"""Spec schema: validation, the committed examples, file loading."""

import json
import pathlib
import sys

import pytest

from repro.errors import ConfigError
from repro.net.ip_options import MAX_ENCODABLE_CORES
from repro.scenarios import (
    BUILTIN_SPECS,
    ClientClassSpec,
    Const,
    ScenarioSpec,
    Uniform,
    load_spec,
    spec_from_mapping,
)

SPEC_DIR = pathlib.Path(__file__).parent.parent.parent / "examples" / "specs"


def minimal_mapping(**overrides):
    payload = {"name": "t", "clients": {"classes": [{"name": "c"}]}}
    payload.update(overrides)
    return payload


class TestValidation:
    def test_minimal_spec_builds_with_defaults(self):
        spec = spec_from_mapping(minimal_mapping())
        assert spec.classes[0].name == "c"
        assert spec.n_servers == Const(8)
        assert spec.baseline == "irqbalance"

    def test_cores_must_divide_over_sockets(self):
        with pytest.raises(ConfigError) as excinfo:
            ClientClassSpec(name="odd", cores=Const(9), sockets=2)
        assert "sockets" in str(excinfo.value)

    def test_cores_bounded_by_option_encoding(self):
        with pytest.raises(ConfigError) as excinfo:
            ClientClassSpec(name="huge", cores=Const(2 * MAX_ENCODABLE_CORES), sockets=2)
        assert str(MAX_ENCODABLE_CORES) in str(excinfo.value)

    def test_cores_needs_finite_support(self):
        with pytest.raises(ConfigError):
            ClientClassSpec(name="c", cores=Uniform(lo=2.0, hi=8.0))

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(
                minimal_mapping(
                    clients={"classes": [{"name": "c"}, {"name": "c"}]}
                )
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(
                minimal_mapping(policies={"treatment": "quantum_irq"})
            )

    def test_oversubscription_below_one_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(
                minimal_mapping(network={"oversubscription": 0.5})
            )

    def test_cache_hit_above_one_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(
                minimal_mapping(servers={"cache_hit": {"uniform": [0.5, 1.5]}})
            )

    def test_small_mss_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(minimal_mapping(network={"mss": 100}))

    @pytest.mark.parametrize(
        "payload",
        [
            {"nope": 1},
            minimal_mapping(clients={"classes": [{"name": "c"}], "wat": 1}),
            minimal_mapping(
                clients={"classes": [{"name": "c", "flavor": "mint"}]}
            ),
            minimal_mapping(workload={"write_fraction": 1.5}),
            minimal_mapping(clients={"classes": []}),
            {"clients": {"classes": [{"name": "c"}]}},  # no name
            [],
        ],
    )
    def test_malformed_mappings_raise_config_error(self, payload):
        with pytest.raises(ConfigError):
            spec_from_mapping(payload)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_committed_example_matches_builtin(self, name):
        """The files under examples/specs/ are the built-ins, verbatim."""
        assert load_spec(str(SPEC_DIR / f"{name}.json")) == BUILTIN_SPECS[name]

    def test_sizes_accept_suffix_labels(self):
        spec = spec_from_mapping(
            minimal_mapping(workload={"transfer_size": {"choice": ["128K", "1M"]}})
        )
        assert spec.transfer_size.values == (128 * 1024, 1024 * 1024)


class TestLoading:
    def test_load_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_mapping()))
        assert load_spec(str(path)) == spec_from_mapping(minimal_mapping())

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            load_spec(str(tmp_path / "absent.json"))
        assert "absent.json" in str(excinfo.value)

    def test_invalid_json_names_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as excinfo:
            load_spec(str(path))
        assert "broken.json" in str(excinfo.value)

    def test_schema_error_names_the_path(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ConfigError) as excinfo:
            load_spec(str(path))
        assert "typo.json" in str(excinfo.value)
        assert "nope" in str(excinfo.value)

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python >= 3.11"
    )
    def test_load_toml(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "t"\n\n[[clients.classes]]\nname = "c"\ncores = 8\n'
        )
        spec = load_spec(str(path))
        assert spec.name == "t"
        assert spec.classes[0].cores == Const(8)

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python >= 3.11"
    )
    def test_invalid_toml_names_the_path(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(ConfigError) as excinfo:
            load_spec(str(path))
        assert "broken.toml" in str(excinfo.value)


class TestSpecDataclass:
    def test_spec_requires_a_class(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(name="empty", classes=())

    def test_spec_is_hashable_and_frozen(self):
        spec = BUILTIN_SPECS["homogeneous"]
        assert hash(spec) == hash(BUILTIN_SPECS["homogeneous"])
        with pytest.raises(dataclasses_frozen_error()):
            spec.name = "mutated"


def dataclasses_frozen_error():
    import dataclasses

    return dataclasses.FrozenInstanceError
