"""Declarative scenario specs: schema, validation, JSON/TOML loading.

A :class:`ScenarioSpec` is a compact, frozen description of a *family*
of clusters: distributions over client core counts and NIC speeds,
heterogeneous client classes, server counts and disk rates, switch-tier
depth and oversubscription, and the read/write mix.  The generator
(:mod:`repro.scenarios.generate`) expands it into concrete
:class:`~repro.config.ClusterConfig` instances, byte-reproducible from
``(spec, seed)``.

Loading mirrors :func:`repro.faults.load_fault_plan`: every failure mode
— unreadable file, invalid JSON/TOML, unknown keys, out-of-range values
— surfaces as a uniform :class:`~repro.errors.ConfigError` naming the
file, which the CLI maps to exit code 2.  The full schema, knob by knob,
is documented in ``docs/SCENARIOS.md``.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

from ..errors import ConfigError
from ..net.ip_options import MAX_ENCODABLE_CORES
from ..units import KiB, parse_size
from .dist import Choice, Const, Distribution, Uniform, UniformInt, parse_dist

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


def _size_atom(raw: t.Any) -> int:
    return parse_size(raw)


def _mss_atom(raw: t.Any) -> int | None:
    if raw is None:
        return None
    value = _int_atom(raw)
    if value < _MIN_MSS:
        raise ConfigError(f"mss must be None or >= {_MIN_MSS}, got {value}")
    return value


def _check_min(field: str, dist: Distribution, minimum: float) -> None:
    bounds = dist.bounds()
    if bounds is None:
        support = dist.support()
        if support is None:
            raise ConfigError(f"{field}: distribution has no numeric bounds")
        raise ConfigError(f"{field}: non-numeric values {support!r}")
    if bounds[0] < minimum:
        raise ConfigError(
            f"{field}: values must be >= {minimum:g}, "
            f"distribution reaches {bounds[0]:g}"
        )


def _check_fraction(field: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{field} must be in [0, 1], got {value}")


@dataclasses.dataclass(frozen=True)
class ClientClassSpec:
    """One heterogeneous client class (a machine shape plus a weight).

    Each generated scenario draws its client machine from the spec's
    classes, weighted by :attr:`weight` — the Helix-style way of saying
    "30% of sampled clusters have fat 16-core clients".
    """

    name: str
    #: Relative probability of a scenario drawing this class.
    weight: float = 1.0
    #: Core count — must have *finite* support (const or choice), every
    #: value a multiple of ``sockets`` and at most the SAIs IP option's
    #: 5-bit core-id capacity (``MAX_ENCODABLE_CORES``).
    cores: Distribution = dataclasses.field(default_factory=lambda: Const(8))
    #: CPU packages (a plain int: it gates which core counts are legal).
    sockets: int = 2
    #: Aggregate client NIC speed in Gigabits; integral values model
    #: bonded 1-Gigabit ports (the paper's head node), fractional or
    #: >4 values a single faster port.
    nic_gigabits: Distribution = dataclasses.field(
        default_factory=lambda: Const(3)
    )
    #: Linux-NAPI adaptive interrupt coalescing on this class's driver.
    napi: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("client class name must be non-empty")
        if not isinstance(self.weight, (int, float)) or self.weight <= 0:
            raise ConfigError(
                f"client class {self.name!r}: weight must be positive, "
                f"got {self.weight!r}"
            )
        if not isinstance(self.sockets, int) or self.sockets < 1:
            raise ConfigError(
                f"client class {self.name!r}: sockets must be a positive "
                f"int, got {self.sockets!r}"
            )
        support = self.cores.support()
        if support is None:
            raise ConfigError(
                f"client class {self.name!r}: cores needs finite support "
                "(a constant or a choice), not a continuous distribution"
            )
        for value in support:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(
                    f"client class {self.name!r}: cores must be integers, "
                    f"got {value!r}"
                )
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
        _check_min(f"client class {self.name!r}: nic_gigabits", self.nic_gigabits, 0.1)
        if not isinstance(self.napi, bool):
            raise ConfigError(
                f"client class {self.name!r}: napi must be a boolean, "
                f"got {self.napi!r}"
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
    n_clients: Distribution = dataclasses.field(default_factory=lambda: Const(1))
    #: Number of PVFS I/O servers.
    n_servers: Distribution = dataclasses.field(default_factory=lambda: Const(8))
    #: Server NIC speed in Gigabits.
    server_gigabits: Distribution = dataclasses.field(
        default_factory=lambda: Const(1)
    )
    #: Server streaming disk rate in MiB/s.
    disk_mib: Distribution = dataclasses.field(default_factory=lambda: Const(80))
    #: Server page-cache hit ratio in [0, 1].
    cache_hit: Distribution = dataclasses.field(
        default_factory=lambda: Const(0.62)
    )
    #: Switch tiers: 1 = single switch, 2 = leaf–spine, 3 = leaf–spine–
    #: core.  Each extra tier adds two switch hops to the path, so the
    #: effective one-way fabric latency is ``latency_us x (2·tiers - 1)``.
    tiers: Distribution = dataclasses.field(default_factory=lambda: Const(1))
    #: Leaf→spine uplink oversubscription ratio (>= 1).  The shared
    #: switch backplane is sized at ``aggregate edge bandwidth / ratio``
    #: (floored at the fastest single link), so ratios above 1 make the
    #: fabric a contended resource.
    oversubscription: Distribution = dataclasses.field(
        default_factory=lambda: Const(1.0)
    )
    #: Per-hop one-way switch latency in microseconds.
    latency_us: Distribution = dataclasses.field(
        default_factory=lambda: Const(60.0)
    )
    #: TCP MSS: ``None`` = coalesced one-interrupt-per-strip trains,
    #: 1500/8960 = per-segment packets and interrupts.
    mss: Distribution = dataclasses.field(default_factory=lambda: Const(None))
    #: Concurrent IOR processes per client.
    n_processes: Distribution = dataclasses.field(
        default_factory=lambda: Const(8)
    )
    #: Bytes per IOR read/write call (accepts "512K"-style labels).
    transfer_size: Distribution = dataclasses.field(
        default_factory=lambda: Const(512 * KiB)
    )
    #: Probability that a scenario runs the write path instead of read.
    write_fraction: float = 0.0
    #: Probability that a scenario uses the random access pattern.
    random_fraction: float = 0.0
    #: The A/B pair every scenario is scored on.
    baseline: str = "irqbalance"
    treatment: str = "source_aware"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario spec name must be non-empty")
        if not self.classes:
            raise ConfigError("scenario spec needs at least one client class")
        names = [klass.name for klass in self.classes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate client class names: {names}")
        _check_min("clients.count", self.n_clients, 1)
        _check_min("servers.count", self.n_servers, 1)
        _check_min("servers.nic_gigabits", self.server_gigabits, 0.1)
        _check_min("servers.disk_mib", self.disk_mib, 1)
        _check_min("servers.cache_hit", self.cache_hit, 0.0)
        bounds = self.cache_hit.bounds()
        if bounds is not None and bounds[1] > 1.0:
            raise ConfigError(
                f"servers.cache_hit must stay in [0, 1], "
                f"distribution reaches {bounds[1]:g}"
            )
        _check_min("network.tiers", self.tiers, 1)
        _check_min("network.oversubscription", self.oversubscription, 1.0)
        _check_min("network.latency_us", self.latency_us, 0.0)
        support = self.tiers.support()
        if support is not None:
            for value in support:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(
                        f"network.tiers must be integers, got {value!r}"
                    )
        _check_min("workload.processes", self.n_processes, 1)
        _check_min("workload.transfer_size", self.transfer_size, 1)
        _check_fraction("workload.write_fraction", self.write_fraction)
        _check_fraction("workload.random_fraction", self.random_fraction)
        # Validate the A/B pair against the live policy registry, the
        # same way ClusterConfig validates its policy field.
        from ..core import policies as _policies  # noqa: F401  (registers)
        from ..core.policy import available_policies, unknown_policy_error

        for policy in (self.baseline, self.treatment):
            if policy not in available_policies():
                raise unknown_policy_error(policy)


_CLASS_KEYS = ("name", "weight", "cores", "sockets", "nic_gigabits", "napi")
_TOP_KEYS = ("name", "clients", "servers", "network", "workload", "policies")


def _section(
    payload: t.Mapping[str, t.Any], key: str, allowed: t.Sequence[str]
) -> dict[str, t.Any]:
    section = payload.get(key, {})
    if not isinstance(section, t.Mapping):
        raise ConfigError(
            f"spec section {key!r} must be an object, "
            f"got {type(section).__name__}"
        )
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in spec section {key!r}: {', '.join(unknown)}; "
            f"valid keys: {', '.join(allowed)}"
        )
    return dict(section)


def _class_from_mapping(payload: t.Mapping[str, t.Any]) -> ClientClassSpec:
    if not isinstance(payload, t.Mapping):
        raise ConfigError(
            f"client class must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_CLASS_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown client class key(s): {', '.join(unknown)}; "
            f"valid keys: {', '.join(_CLASS_KEYS)}"
        )
    if "name" not in payload:
        raise ConfigError("client class needs a name")
    kwargs: dict[str, t.Any] = {"name": payload["name"]}
    if "weight" in payload:
        kwargs["weight"] = payload["weight"]
    if "sockets" in payload:
        kwargs["sockets"] = payload["sockets"]
    if "napi" in payload:
        kwargs["napi"] = payload["napi"]
    if "cores" in payload:
        kwargs["cores"] = parse_dist("cores", payload["cores"], _int_atom)
    if "nic_gigabits" in payload:
        kwargs["nic_gigabits"] = parse_dist(
            "nic_gigabits", payload["nic_gigabits"], _number_atom
        )
    return ClientClassSpec(**kwargs)


def spec_from_mapping(payload: t.Mapping[str, t.Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a parsed-JSON style mapping.

    Unknown keys at any level raise :class:`~repro.errors.ConfigError`
    (the ``fault_plan_from_mapping`` contract), so typos fail loudly
    instead of silently pinning a knob to its default.
    """
    if not isinstance(payload, t.Mapping):
        raise ConfigError(
            f"scenario spec must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_TOP_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown spec key(s): {', '.join(unknown)}; "
            f"valid keys: {', '.join(_TOP_KEYS)}"
        )
    if "name" not in payload or not isinstance(payload["name"], str):
        raise ConfigError("scenario spec needs a string name")
    clients = _section(payload, "clients", ("count", "classes"))
    servers = _section(
        payload, "servers", ("count", "nic_gigabits", "disk_mib", "cache_hit")
    )
    network = _section(
        payload, "network", ("tiers", "oversubscription", "latency_us", "mss")
    )
    workload = _section(
        payload,
        "workload",
        ("processes", "transfer_size", "write_fraction", "random_fraction"),
    )
    policies = _section(payload, "policies", ("baseline", "treatment"))

    raw_classes = clients.get("classes", [{"name": "default"}])
    if not isinstance(raw_classes, (list, tuple)) or not raw_classes:
        raise ConfigError(
            f"clients.classes must be a non-empty list, got {raw_classes!r}"
        )
    kwargs: dict[str, t.Any] = {
        "name": payload["name"],
        "classes": tuple(_class_from_mapping(klass) for klass in raw_classes),
    }
    if "count" in clients:
        kwargs["n_clients"] = parse_dist(
            "clients.count", clients["count"], _int_atom
        )
    if "count" in servers:
        kwargs["n_servers"] = parse_dist(
            "servers.count", servers["count"], _int_atom
        )
    if "nic_gigabits" in servers:
        kwargs["server_gigabits"] = parse_dist(
            "servers.nic_gigabits", servers["nic_gigabits"], _number_atom
        )
    if "disk_mib" in servers:
        kwargs["disk_mib"] = parse_dist(
            "servers.disk_mib", servers["disk_mib"], _number_atom
        )
    if "cache_hit" in servers:
        kwargs["cache_hit"] = parse_dist(
            "servers.cache_hit", servers["cache_hit"], _number_atom
        )
    if "tiers" in network:
        kwargs["tiers"] = parse_dist("network.tiers", network["tiers"], _int_atom)
    if "oversubscription" in network:
        kwargs["oversubscription"] = parse_dist(
            "network.oversubscription", network["oversubscription"], _number_atom
        )
    if "latency_us" in network:
        kwargs["latency_us"] = parse_dist(
            "network.latency_us", network["latency_us"], _number_atom
        )
    if "mss" in network:
        kwargs["mss"] = parse_dist("network.mss", network["mss"], _mss_atom)
    if "processes" in workload:
        kwargs["n_processes"] = parse_dist(
            "workload.processes", workload["processes"], _int_atom
        )
    if "transfer_size" in workload:
        kwargs["transfer_size"] = parse_dist(
            "workload.transfer_size", workload["transfer_size"], _size_atom
        )
    if "write_fraction" in workload:
        kwargs["write_fraction"] = workload["write_fraction"]
    if "random_fraction" in workload:
        kwargs["random_fraction"] = workload["random_fraction"]
    if "baseline" in policies:
        kwargs["baseline"] = policies["baseline"]
    if "treatment" in policies:
        kwargs["treatment"] = policies["treatment"]
    try:
        return ScenarioSpec(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario spec: {exc}") from exc


def load_spec(path: str) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON or TOML file.

    The format follows the extension: ``.toml`` parses with the standard
    library's ``tomllib`` (Python >= 3.11; a uniform ConfigError explains
    the gate on 3.10), everything else parses as JSON.  Every failure
    mode surfaces as :class:`~repro.errors.ConfigError` naming the file.
    """
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10
            raise ConfigError(
                f"cannot read {path!r}: TOML specs need Python >= 3.11 "
                "(tomllib); use the JSON form instead"
            ) from None
        try:
            with open(path, "rb") as handle:
                payload = tomllib.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario spec {path!r}: {exc}") from exc
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(
                f"scenario spec {path!r} is not valid TOML: {exc}"
            ) from exc
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read scenario spec {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"scenario spec {path!r} is not valid JSON: {exc}"
            ) from exc
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
