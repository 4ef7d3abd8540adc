"""Spec schema: validation, the committed examples, file loading."""

import json
import pathlib

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
from repro.scenarios.spec import CLASS_KNOBS, SPEC_KNOBS

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

    @pytest.mark.parametrize(
        "path", sorted(SPEC_DIR.glob("*.json")), ids=lambda path: path.name
    )
    def test_committed_examples_spell_out_every_declared_knob(self, path):
        """The example files and the field declarations name the same keys."""
        payload = json.loads(path.read_text())
        written = {
            f"{section}.{key}"
            for section, body in payload.items()
            if section != "name"
            for key in body
        }
        assert written - {"clients.classes"} == {
            field.metadata["path"] for field in SPEC_KNOBS
        }
        class_keys = {field.metadata["path"] for field in CLASS_KNOBS}
        for klass in payload["clients"]["classes"]:
            assert set(klass) - {"name"} == class_keys, klass["name"]

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

    def test_toml_spec_is_refused_naming_the_file(self, tmp_path):
        # A spec is JSON: a valid TOML spec is one ConfigError, not a load.
        path = tmp_path / "s.toml"
        path.write_text(
            'name = "t"\n\n[[clients.classes]]\nname = "c"\ncores = 8\n'
        )
        with pytest.raises(ConfigError) as excinfo:
            load_spec(str(path))
        message = str(excinfo.value)
        assert "s.toml" in message and "\n" not in message

    def test_loguniform_knob_is_refused_naming_the_field(self, tmp_path):
        path = tmp_path / "log.json"
        path.write_text(
            json.dumps(
                minimal_mapping(servers={"disk_mib": {"loguniform": [10, 100]}})
            )
        )
        with pytest.raises(ConfigError) as excinfo:
            load_spec(str(path))
        message = str(excinfo.value)
        assert "servers.disk_mib" in message and "\n" not in message


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
