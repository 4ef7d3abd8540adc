"""Declarative scenario specs: schema, validation, JSON loading.

A :class:`ScenarioSpec` is a compact, frozen description of a *family*
of clusters: distributions over client core counts and NIC speeds,
heterogeneous client classes, server counts and disk rates, switch-tier
depth and oversubscription, and the read/write mix.  The generator
(:mod:`repro.scenarios.generate`) expands it into concrete
:class:`~repro.config.ClusterConfig` instances, byte-reproducible from
``(spec, seed)``.

Each knob is declared once, on its field: :func:`_knob` records the
knob's JSON path, the atom that parses its scalars and its bounds.  The
loader derives the spec's sections, their keys and the parsing from
those declarations, validation derives the bounds, and the generator
draws each distribution knob under the same path.

Loading mirrors :func:`repro.faults.load_fault_plan`: every failure mode
— unreadable file, invalid JSON, unknown keys, out-of-range values —
surfaces as a uniform :class:`~repro.errors.ConfigError` naming the
file, which the CLI maps to exit code 2.  The full schema, knob by knob,
is documented in ``docs/SCENARIOS.md``.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from ..errors import ConfigError, read_json
from ..net.ip_options import MAX_ENCODABLE_CORES
from ..units import KiB, parse_size
from .dist import (
    Atom,
    Choice,
    Const,
    Distribution,
    Uniform,
    UniformInt,
    parse_dist,
)

__all__ = [
    "ClientClassSpec",
    "ScenarioSpec",
    "BUILTIN_SPECS",
    "spec_from_mapping",
    "load_spec",
]

#: Minimum plausible TCP MSS (RFC 791 minimum reassembly minus headers).
_MIN_MSS = 576


def _int_atom(raw: t.Any) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"expected an integer, got {raw!r}")
    return raw


def _number_atom(raw: t.Any) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"expected a number, got {raw!r}")
    return float(raw)


def _bool_atom(raw: t.Any) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"expected a boolean, got {raw!r}")
    return raw


def _positive_atom(raw: t.Any) -> float:
    value = _number_atom(raw)
    if not value > 0:
        raise ConfigError(f"expected a positive number, got {raw!r}")
    return value


def _mss_atom(raw: t.Any) -> int | None:
    if raw is None:
        return None
    value = _int_atom(raw)
    if value < _MIN_MSS:
        raise ConfigError(f"mss must be None or >= {_MIN_MSS}, got {value}")
    return value


def _policy_atom(raw: t.Any) -> str:
    # The live policy registry, as ClusterConfig checks its policy field.
    from ..core import policies as _policies  # noqa: F401  (registers)
    from ..core.policy import available_policies, unknown_policy_error

    if raw not in available_policies():
        raise unknown_policy_error(raw)
    return raw


def _knob(
    path: str,
    default: t.Any,
    atom: Atom,
    lo: float | None = None,
    hi: float = math.inf,
) -> t.Any:
    """Declare a spec field as the knob at JSON key ``path``.

    A knob whose default is a :class:`Distribution` is *drawn*: the
    loader parses each of its values with ``atom``, and the generator
    draws it under ``path`` (``client.<path>`` on a client class).  Any
    other knob is one plain value that ``atom`` checks.  A knob with a
    ``lo`` bound keeps every value it can take in ``[lo, hi]``.
    """
    drawn = isinstance(default, Distribution)
    return dataclasses.field(
        default=default,
        metadata=dict(path=path, atom=atom, lo=lo, hi=hi, drawn=drawn),
    )


def _check_knobs(
    owner: t.Any, knobs: t.Sequence[dataclasses.Field], prefix: str = ""
) -> None:
    """Validate ``owner``'s knobs against their declarations.

    Every value a knob can take must pass its atom, so a spec built in
    Python meets the loader's rules (a continuous distribution's values
    are checked by its bounds), and a bounded knob must stay in range.
    """
    for field in knobs:
        value = getattr(owner, field.name)
        path = prefix + field.metadata["path"]
        drawn, lo, hi = (field.metadata[key] for key in ("drawn", "lo", "hi"))
        try:
            for scalar in (value.support() or ()) if drawn else (value,):
                field.metadata["atom"](scalar)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if lo is None:
            continue
        bounds = value.bounds() if drawn else (value, value)
        if bounds is None:
            raise ConfigError(f"{path}: non-numeric values {value.support()!r}")
        if not lo <= bounds[0] <= bounds[1] <= hi:
            raise ConfigError(
                f"{path}: values must lie in [{lo:g}, {hi:g}], "
                f"got {bounds[0]:g} to {bounds[1]:g}"
            )


def _knobs(cls: type) -> tuple[dataclasses.Field, ...]:
    return tuple(
        field for field in dataclasses.fields(cls) if "path" in field.metadata
    )


@dataclasses.dataclass(frozen=True)
class ClientClassSpec:
    """One heterogeneous client class (a machine shape plus a weight).

    Each generated scenario draws its client machine from the spec's
    classes, weighted by :attr:`weight` — the Helix-style way of saying
    "30% of sampled clusters have fat 16-core clients".
    """

    name: str
    #: Relative probability of a scenario drawing this class.
    weight: float = _knob("weight", 1.0, _positive_atom)
    #: Core count — must have *finite* support (const or choice), every
    #: value a multiple of ``sockets`` and at most the SAIs IP option's
    #: 5-bit core-id capacity (``MAX_ENCODABLE_CORES``).
    cores: Distribution = _knob("cores", Const(8), _int_atom)
    #: CPU packages (a plain int: it gates which core counts are legal).
    sockets: int = _knob("sockets", 2, _int_atom, lo=1)
    #: Aggregate client NIC speed in Gigabits; integral values model
    #: bonded 1-Gigabit ports (the paper's head node), fractional or
    #: >4 values a single faster port.
    nic_gigabits: Distribution = _knob(
        "nic_gigabits", Const(3), _number_atom, lo=0.1
    )
    #: Linux-NAPI adaptive interrupt coalescing on this class's driver.
    napi: bool = _knob("napi", False, _bool_atom)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("client class name must be non-empty")
        _check_knobs(self, CLASS_KNOBS, f"client class {self.name!r}: ")
        support = self.cores.support()
        if support is None:
            raise ConfigError(
                f"client class {self.name!r}: cores needs finite support "
                "(a constant or a choice), not a continuous distribution"
            )
        for value in support:
            if not 1 <= value <= MAX_ENCODABLE_CORES:
                raise ConfigError(
                    f"client class {self.name!r}: {value} cores exceeds the "
                    f"SAIs option encoding ({MAX_ENCODABLE_CORES} max)"
                )
            if value % self.sockets:
                raise ConfigError(
                    f"client class {self.name!r}: {value} cores do not "
                    f"split evenly over {self.sockets} sockets"
                )


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A compact declarative family of clusters and workloads.

    Every field that varies across scenarios is a
    :class:`~repro.scenarios.dist.Distribution`; plain scalars pin a
    knob for the whole family.  Validation is eager and uniform
    (:class:`~repro.errors.ConfigError`), so a malformed spec fails at
    load time, never mid-sweep.
    """

    name: str
    #: Client machine classes, drawn per scenario by weight.
    classes: tuple[ClientClassSpec, ...]
    #: Number of client nodes.
    n_clients: Distribution = _knob("clients.count", Const(1), _int_atom, lo=1)
    #: Number of PVFS I/O servers.
    n_servers: Distribution = _knob("servers.count", Const(8), _int_atom, lo=1)
    #: Server NIC speed in Gigabits.
    server_gigabits: Distribution = _knob(
        "servers.nic_gigabits", Const(1), _number_atom, lo=0.1
    )
    #: Server streaming disk rate in MiB/s.
    disk_mib: Distribution = _knob(
        "servers.disk_mib", Const(80), _number_atom, lo=1
    )
    #: Server page-cache hit ratio in [0, 1].
    cache_hit: Distribution = _knob(
        "servers.cache_hit", Const(0.62), _number_atom, lo=0.0, hi=1.0
    )
    #: Switch tiers: 1 = single switch, 2 = leaf–spine, 3 = leaf–spine–
    #: core.  Each extra tier adds two switch hops to the path, so the
    #: effective one-way fabric latency is ``latency_us x (2·tiers - 1)``.
    tiers: Distribution = _knob("network.tiers", Const(1), _int_atom, lo=1)
    #: Leaf→spine uplink oversubscription ratio (>= 1).  The shared
    #: switch backplane is sized at ``aggregate edge bandwidth / ratio``
    #: (floored at the fastest single link), so ratios above 1 make the
    #: fabric a contended resource.
    oversubscription: Distribution = _knob(
        "network.oversubscription", Const(1.0), _number_atom, lo=1.0
    )
    #: Per-hop one-way switch latency in microseconds.
    latency_us: Distribution = _knob(
        "network.latency_us", Const(60.0), _number_atom, lo=0.0
    )
    #: TCP MSS: ``None`` = coalesced one-interrupt-per-strip trains,
    #: 1500/8960 = per-segment packets and interrupts.
    mss: Distribution = _knob("network.mss", Const(None), _mss_atom)
    #: Concurrent IOR processes per client.
    n_processes: Distribution = _knob(
        "workload.processes", Const(8), _int_atom, lo=1
    )
    #: Bytes per IOR read/write call (accepts "512K"-style labels).
    transfer_size: Distribution = _knob(
        "workload.transfer_size", Const(512 * KiB), parse_size, lo=1
    )
    #: Probability that a scenario runs the write path instead of read.
    write_fraction: float = _knob(
        "workload.write_fraction", 0.0, _number_atom, lo=0.0, hi=1.0
    )
    #: Probability that a scenario uses the random access pattern.
    random_fraction: float = _knob(
        "workload.random_fraction", 0.0, _number_atom, lo=0.0, hi=1.0
    )
    #: The A/B pair every scenario is scored on, checked against the
    #: live policy registry.
    baseline: str = _knob("policies.baseline", "irqbalance", _policy_atom)
    treatment: str = _knob("policies.treatment", "source_aware", _policy_atom)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario spec name must be non-empty")
        if not self.classes:
            raise ConfigError("scenario spec needs at least one client class")
        names = [klass.name for klass in self.classes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate client class names: {names}")
        _check_knobs(self, SPEC_KNOBS)


#: The knob fields of each spec dataclass, in declaration order.
CLASS_KNOBS = _knobs(ClientClassSpec)
SPEC_KNOBS = _knobs(ScenarioSpec)


def _spec_sections() -> dict[str, tuple[str, ...]]:
    """Each section's keys, from the knob paths (``clients`` also holds
    the class list)."""
    sections: dict[str, tuple[str, ...]] = {}
    for field in SPEC_KNOBS:
        section, key = field.metadata["path"].split(".")
        sections[section] = sections.get(section, ()) + (key,)
    sections["clients"] += ("classes",)
    return sections


_SECTIONS = _spec_sections()


def _object(
    what: str, payload: t.Any, allowed: t.Sequence[str]
) -> t.Mapping[str, t.Any]:
    """``payload`` as a mapping whose keys are all ``allowed``."""
    if not isinstance(payload, t.Mapping):
        raise ConfigError(
            f"{what} must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {what}: {', '.join(unknown)}; "
            f"valid keys: {', '.join(allowed)}"
        )
    return payload


def _parse_knobs(
    knobs: t.Sequence[dataclasses.Field], raw: t.Mapping[str, t.Any]
) -> dict[str, t.Any]:
    """Constructor arguments for the knobs ``raw`` sets, keyed by path."""
    kwargs: dict[str, t.Any] = {}
    for field in knobs:
        path = field.metadata["path"]
        if path in raw:
            value = raw[path]
            kwargs[field.name] = (
                parse_dist(path, value, field.metadata["atom"])
                if field.metadata["drawn"]
                else value
            )
    return kwargs


def _class_from_mapping(payload: t.Any) -> ClientClassSpec:
    keys = ("name", *(field.metadata["path"] for field in CLASS_KNOBS))
    payload = _object("client class", payload, keys)
    if "name" not in payload:
        raise ConfigError("client class needs a name")
    return ClientClassSpec(
        name=payload["name"], **_parse_knobs(CLASS_KNOBS, payload)
    )


def spec_from_mapping(payload: t.Mapping[str, t.Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a parsed-JSON mapping.

    Unknown keys at any level raise :class:`~repro.errors.ConfigError`
    (the ``fault_plan_from_mapping`` contract), so typos fail loudly
    instead of silently pinning a knob to its default.
    """
    payload = _object("scenario spec", payload, ("name", *_SECTIONS))
    if not isinstance(payload.get("name"), str):
        raise ConfigError("scenario spec needs a string name")
    raw: dict[str, t.Any] = {}
    for section, keys in _SECTIONS.items():
        body = _object(
            f"spec section {section!r}", payload.get(section, {}), keys
        )
        raw.update((f"{section}.{key}", value) for key, value in body.items())
    classes = raw.pop("clients.classes", [{"name": "default"}])
    if not isinstance(classes, (list, tuple)) or not classes:
        raise ConfigError(
            f"clients.classes must be a non-empty list, got {classes!r}"
        )
    try:
        return ScenarioSpec(
            name=payload["name"],
            classes=tuple(_class_from_mapping(klass) for klass in classes),
            **_parse_knobs(SPEC_KNOBS, raw),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario spec: {exc}") from exc


def load_spec(path: str) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON file.

    Every failure mode surfaces as :class:`~repro.errors.ConfigError`
    naming the file.
    """
    payload = read_json(path, "scenario spec")
    try:
        return spec_from_mapping(payload)
    except ConfigError as exc:
        raise ConfigError(f"scenario spec {path!r}: {exc}") from exc


#: The three worked cookbook specs (docs/SCENARIOS.md), also committed
#: verbatim under ``examples/specs/`` — a test pins the two in sync.
BUILTIN_SPECS: dict[str, ScenarioSpec] = {
    "homogeneous": ScenarioSpec(
        name="homogeneous",
        classes=(
            ClientClassSpec(
                name="paper_head_node",
                cores=Const(8),
                sockets=2,
                nic_gigabits=Const(3),
            ),
        ),
        n_servers=Choice(values=(4, 8, 12), weights=(1.0, 1.0, 1.0)),
        disk_mib=Uniform(lo=60.0, hi=100.0),
        latency_us=Uniform(lo=40.0, hi=80.0),
        n_processes=Choice(values=(2, 4), weights=(1.0, 1.0)),
        transfer_size=Choice(
            values=(128 * KiB, 256 * KiB, 512 * KiB), weights=(1.0, 1.0, 1.0)
        ),
    ),
    "heterogeneous": ScenarioSpec(
        name="heterogeneous",
        classes=(
            ClientClassSpec(
                name="paper_head_node",
                weight=2.0,
                cores=Const(8),
                sockets=2,
                nic_gigabits=Const(3),
            ),
            ClientClassSpec(
                name="fat_numa",
                weight=1.0,
                cores=Choice(values=(16, 32), weights=(2.0, 1.0)),
                sockets=4,
                nic_gigabits=Const(10),
            ),
            ClientClassSpec(
                name="lean_edge",
                weight=1.0,
                cores=Const(4),
                sockets=1,
                nic_gigabits=Const(1),
            ),
        ),
        n_servers=UniformInt(lo=4, hi=10),
        server_gigabits=Choice(values=(1, 10), weights=(3.0, 1.0)),
        disk_mib=Uniform(lo=50.0, hi=120.0),
        cache_hit=Uniform(lo=0.4, hi=0.8),
        oversubscription=Choice(values=(1.0, 2.0), weights=(1.0, 1.0)),
        latency_us=Uniform(lo=40.0, hi=100.0),
        mss=Choice(values=(None, 8960), weights=(2.0, 1.0)),
        n_processes=Choice(values=(2, 4, 8), weights=(1.0, 2.0, 1.0)),
        transfer_size=Choice(
            values=(128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB),
            weights=(1.0, 1.0, 1.0, 1.0),
        ),
        write_fraction=0.25,
    ),
    "leafspine": ScenarioSpec(
        name="leafspine",
        classes=(
            ClientClassSpec(
                name="rack_client",
                cores=Const(8),
                sockets=2,
                nic_gigabits=Choice(values=(3, 10), weights=(2.0, 1.0)),
            ),
        ),
        n_clients=Choice(values=(1, 2), weights=(1.0, 1.0)),
        n_servers=UniformInt(lo=8, hi=16),
        disk_mib=Uniform(lo=60.0, hi=110.0),
        tiers=Choice(values=(2, 3), weights=(2.0, 1.0)),
        oversubscription=Choice(values=(2.0, 4.0, 8.0), weights=(1.0, 1.0, 1.0)),
        latency_us=Uniform(lo=20.0, hi=60.0),
        n_processes=Choice(values=(2, 4), weights=(1.0, 1.0)),
        transfer_size=Choice(
            values=(256 * KiB, 512 * KiB), weights=(1.0, 1.0)
        ),
        random_fraction=0.25,
    ),
}
