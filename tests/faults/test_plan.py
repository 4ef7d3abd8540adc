"""FaultPlan validation, the JSON loader, and the ambient-plan plumbing."""

import json

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    ambient_fault_plan,
    apply_ambient_faults,
    fault_plan_from_mapping,
    load_fault_plan,
    using_fault_plan,
)


class TestValidation:
    def test_defaults_are_null(self):
        assert FaultPlan().is_null

    @pytest.mark.parametrize(
        "field", ["corrupt_prob", "reorder_prob", "strip_option_prob"]
    )
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probabilities_bounded(self, field, bad):
        with pytest.raises(ConfigError):
            FaultPlan(**{field: bad})

    def test_certain_loss_rejected(self):
        # loss_prob=1.0 would retransmit forever: every attempt drops.
        with pytest.raises(ConfigError):
            FaultPlan(loss_prob=1.0)

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(straggler_servers=(0,), straggler_slowdown=0.5)

    def test_negative_straggler_index_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(straggler_servers=(-1,), straggler_slowdown=2.0)

    @pytest.mark.parametrize(
        "window",
        [
            (0, 0.5, 0.1),   # end before start
            (0, -1.0, 1.0),  # negative start
            (-2, 0.0, 1.0),  # negative server
        ],
    )
    def test_bad_failure_window_rejected(self, window):
        with pytest.raises(ConfigError):
            FaultPlan(server_failure_windows=(window,))

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("seed", "abc"),
            ("seed", 1.5),
            ("seed", True),
            ("max_strip_retries", 2.5),
            ("max_strip_retries", "3"),
            ("max_strip_retries", False),
        ],
    )
    def test_integer_fields_reject_non_ints(self, field, bad):
        # A float or string here used to crash mid-run (hash_unit, or
        # range() in the strip watchdog) instead of failing up front.
        with pytest.raises(ConfigError, match=field):
            FaultPlan(loss_prob=0.02, **{field: bad})

    def test_bool_straggler_index_rejected(self):
        # JSON true is a Python int; it used to run silently as server 1.
        with pytest.raises(ConfigError, match="straggler_servers"):
            FaultPlan(straggler_servers=(True,), straggler_slowdown=2.0)

    def test_bool_failure_window_server_rejected(self):
        with pytest.raises(ConfigError, match="server_failure_windows"):
            FaultPlan(server_failure_windows=((True, 0.0, 1.0),))

    def test_backoff_below_one_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(retransmit_backoff=0.5)

    def test_is_null_ignores_slowdown_without_stragglers(self):
        # A slowdown with no servers listed applies to nothing.
        assert FaultPlan(straggler_slowdown=8.0).is_null
        assert not FaultPlan(
            straggler_servers=(1,), straggler_slowdown=8.0
        ).is_null

    def test_with_seed(self):
        plan = FaultPlan(loss_prob=0.1)
        assert plan.with_seed(7).seed == 7
        assert plan.with_seed(7).loss_prob == 0.1
        assert plan.seed == 0  # original untouched

    def test_plan_is_hashable(self):
        # A frozen value type, tuple-valued fields included: a plan, and
        # the ClusterConfig holding it, can key a dict or a set.
        plan = FaultPlan(
            loss_prob=0.1,
            straggler_servers=(0, 1),
            server_failure_windows=((0, 0.0, 1.0),),
        )
        assert hash(plan) == hash(plan)


class TestMapping:
    def test_round_trip(self):
        plan = fault_plan_from_mapping(
            {"loss_prob": 0.05, "straggler_servers": [0, 2],
             "straggler_slowdown": 4.0}
        )
        assert plan.loss_prob == 0.05
        assert plan.straggler_servers == (0, 2)

    def test_windows_coerced_to_tuples(self):
        plan = fault_plan_from_mapping(
            {"server_failure_windows": [[1, 0.0, 0.5]]}
        )
        assert plan.server_failure_windows == ((1, 0.0, 0.5),)

    def test_unknown_key_rejected_with_valid_keys_listed(self):
        with pytest.raises(ConfigError) as excinfo:
            fault_plan_from_mapping({"los_prob": 0.1})
        message = str(excinfo.value)
        assert "los_prob" in message
        assert "loss_prob" in message  # the valid keys are listed

    @pytest.mark.parametrize("payload", [["loss_prob"], "loss_prob", 3])
    def test_non_mapping_rejected(self, payload):
        with pytest.raises(ConfigError):
            fault_plan_from_mapping(payload)

    def test_wrong_typed_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            fault_plan_from_mapping({"loss_prob": "lots"})

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"loss_prob": 0.02, "max_strip_retries": 2.5}, "max_strip_retries"),
            ({"loss_prob": 0.02, "seed": "abc"}, "seed"),
            ({"straggler_servers": [True], "straggler_slowdown": 2.0},
             "straggler_servers"),
            ({"server_failure_windows": [[True, 0.0, 0.5]]},
             "server_failure_windows"),
        ],
    )
    def test_non_int_json_fields_rejected(self, payload, field):
        with pytest.raises(ConfigError, match=field):
            fault_plan_from_mapping(payload)

    def test_scalar_straggler_servers_rejected(self):
        with pytest.raises(ConfigError):
            fault_plan_from_mapping({"straggler_servers": 3})


class TestLoader:
    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"loss_prob": 0.02, "seed": 9}))
        plan = load_fault_plan(str(path))
        assert plan.loss_prob == 0.02
        assert plan.seed == 9

    def test_missing_file_names_path(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(ConfigError) as excinfo:
            load_fault_plan(missing)
        assert "nope.json" in str(excinfo.value)

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as excinfo:
            load_fault_plan(str(path))
        assert "broken.json" in str(excinfo.value)

    def test_non_utf8_file_names_path(self, tmp_path):
        # Used to escape as a UnicodeDecodeError traceback.
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError) as excinfo:
            load_fault_plan(str(path))
        assert "binary.json" in str(excinfo.value)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_fault_plan(str(path))

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"loss_prob": 2.0}))
        with pytest.raises(ConfigError):
            load_fault_plan(str(path))


class TestAmbient:
    def test_default_is_clear(self):
        assert ambient_fault_plan() is None

    def test_apply_is_identity_without_plan(self):
        config = ClusterConfig()
        assert apply_ambient_faults(config) is config

    def test_apply_attaches_ambient_plan(self):
        plan = FaultPlan(loss_prob=0.1)
        with using_fault_plan(plan):
            assert apply_ambient_faults(ClusterConfig()).faults == plan
        assert ambient_fault_plan() is None  # scope restored

    def test_explicit_plan_wins_over_ambient(self):
        mine = FaultPlan(corrupt_prob=0.2)
        config = ClusterConfig(faults=mine)
        with using_fault_plan(FaultPlan(loss_prob=0.5)):
            assert apply_ambient_faults(config).faults == mine
