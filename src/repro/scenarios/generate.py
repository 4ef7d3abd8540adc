"""Expanding a :class:`~repro.scenarios.spec.ScenarioSpec` into configs.

The contract is byte-reproducibility: ``generate_scenarios(spec, n,
seed, scale)`` returns the same :class:`~repro.config.ClusterConfig`
instances — field for field, bit for bit — in any process, under any
``--jobs`` fan-out, on any platform.  That follows from how draws are
made: every knob of scenario *i* is a pure function of ``(seed, i,
knob path)`` through :func:`repro.rng.hash_unit`, with no sequential
stream state to perturb (the same order-independence idiom the fault
injector uses for per-packet decisions).  The path is the knob's JSON
key, declared once on its spec field (``client.<key>`` for a client
class knob), so adding a knob is adding a field: it never shifts the
draws of existing knobs, and scenario *i* is the same whether you
generate 1 or 1000.

``scale`` only dials the per-process file size (run length), exactly
like the figure experiments: bandwidth is a steady-state rate, so quick
sweeps keep the topology distribution while shrinking wall-clock cost.
"""

from __future__ import annotations

import dataclasses
import typing as t

from ..config import (
    ClientConfig,
    ClusterConfig,
    NetworkConfig,
    ServerConfig,
    WorkloadConfig,
)
from ..errors import ConfigError
from ..rng import hash_unit, stable_hash
from ..units import Gbit, MiB, USEC, sum_left
from .spec import CLASS_KNOBS, SPEC_KNOBS, ScenarioSpec

__all__ = [
    "Scenario",
    "TopologyFeatures",
    "generate_scenarios",
    "scenario_file_size",
]

#: Per-process bytes by scale.  Smaller than the figure experiments'
#: presets — a sweep runs dozens of scenarios, so each one is kept light.
_FILE_SIZE_BASE = {"quick": 1 * MiB, "default": 8 * MiB, "full": 32 * MiB}


def scenario_file_size(scale: str, transfer_size: int) -> int:
    """Per-process bytes for a generated scenario at ``scale``."""
    # Imported lazily: repro.experiments pulls in the sweep family,
    # which imports this module (registration-time cycle).
    from ..experiments.base import resolve_scale

    base = _FILE_SIZE_BASE[resolve_scale(scale)]
    return max(base, 2 * transfer_size)


@dataclasses.dataclass(frozen=True)
class TopologyFeatures:
    """The topology coordinates a scenario is bucketed by in reports.

    Derived purely from the drawn knobs, so features are as reproducible
    as the configs themselves and travel with the point through the
    runner (win-rate tables in :mod:`repro.scenarios.report` group on
    them).
    """

    #: Client class name the scenario drew.
    klass: str
    n_clients: int
    n_servers: int
    #: Fan-in depth: servers per client node (how many sources converge
    #: on one interrupt-taking machine).
    fan_in: float
    #: Switch tiers (1 = single switch, 2 = leaf–spine, ...).
    tiers: int
    #: Drawn leaf→spine oversubscription ratio.
    oversubscription: float
    #: Link heterogeneity: aggregate client NIC over one server NIC.
    link_ratio: float
    #: ``"strip"`` for coalesced trains, else the MSS in bytes.
    mss_label: str
    operation: str


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One generated point: a concrete config plus its feature vector."""

    index: int
    config: ClusterConfig
    features: TopologyFeatures
    #: The A/B pair the sweep scores this scenario on (from the spec).
    baseline: str
    treatment: str


def _u(seed: int, index: int, knob: str) -> float:
    return hash_unit(seed, index, stable_hash(knob))


def _draw_keys(
    knobs: t.Sequence[dataclasses.Field], prefix: str = ""
) -> tuple[tuple[str, int], ...]:
    return tuple(
        (field.name, stable_hash(prefix + field.metadata["path"]))
        for field in knobs
        if field.metadata["drawn"]
    )


#: (field name, hashed draw key) of every drawn knob, hashed at import.
_SPEC_DRAWS = _draw_keys(SPEC_KNOBS)
_CLASS_DRAWS = _draw_keys(CLASS_KNOBS, "client.")


def _draw(
    owner: t.Any, draws: tuple[tuple[str, int], ...], seed: int, index: int
) -> dict[str, t.Any]:
    """Each distribution knob of ``owner`` sampled at scenario ``index``."""
    return {
        name: getattr(owner, name).sample(hash_unit(seed, index, key))
        for name, key in draws
    }


def _pick_class(spec: ScenarioSpec, u: float):
    total = sum_left(klass.weight for klass in spec.classes)
    acc = 0.0
    for klass in spec.classes:
        acc += klass.weight / total
        if u < acc:
            return klass
    return spec.classes[-1]


def _client_nic(gigabits: float) -> tuple[int, float]:
    """Model integral speeds as bonded 1-Gigabit ports, else one port."""
    if float(gigabits).is_integer() and 1 <= gigabits <= 8:
        return int(gigabits), 1.0 * Gbit
    return 1, float(gigabits) * Gbit


def _one_scenario(
    spec: ScenarioSpec, index: int, seed: int, scale: str
) -> Scenario:
    klass = _pick_class(spec, _u(seed, index, "client.class"))
    shape = _draw(klass, _CLASS_DRAWS, seed, index)
    drawn = _draw(spec, _SPEC_DRAWS, seed, index)
    nic_ports, port_bw = _client_nic(float(shape["nic_gigabits"]))
    n_clients = int(drawn["n_clients"])
    n_servers = int(drawn["n_servers"])
    server_gbit = float(drawn["server_gigabits"])
    tiers = int(drawn["tiers"])
    oversub = float(drawn["oversubscription"])
    mss = drawn["mss"]
    transfer = int(drawn["transfer_size"])
    operation = (
        "write"
        if _u(seed, index, "workload.operation") < spec.write_fraction
        else "read"
    )
    access = (
        "random"
        if _u(seed, index, "workload.access") < spec.random_fraction
        else "sequential"
    )

    client = ClientConfig(
        n_cores=shape["cores"],
        n_sockets=klass.sockets,
        nic_ports=nic_ports,
        nic_port_bandwidth=port_bw,
        napi=klass.napi,
    )
    server = ServerConfig(
        disk_rate=float(drawn["disk_mib"]) * MiB,
        cache_hit_ratio=round(float(drawn["cache_hit"]), 4),
        nic_bandwidth=server_gbit * Gbit,
    )
    # The fabric model: each extra tier adds two switch hops to the
    # one-way path (client leaf -> spine -> server leaf for tiers=2),
    # and the shared backplane is the aggregate edge bandwidth divided
    # by the oversubscription ratio, floored at the fastest single link
    # so one flow is switch-limited only by its own NIC.
    client_agg_bw = client.nic_bandwidth
    edge_bw = max(n_servers * server_gbit * Gbit, n_clients * client_agg_bw)
    switch_bw = max(edge_bw / oversub, max(server_gbit * Gbit, client_agg_bw))
    network = NetworkConfig(
        latency=float(drawn["latency_us"]) * USEC * (2 * tiers - 1),
        switch_bandwidth=switch_bw,
        mss=mss,
    )
    workload = WorkloadConfig(
        n_processes=int(drawn["n_processes"]),
        transfer_size=transfer,
        file_size=scenario_file_size(scale, transfer),
        operation=operation,
        access_pattern=access,
    )
    try:
        config = ClusterConfig(
            client=client,
            server=server,
            network=network,
            workload=workload,
            n_servers=n_servers,
            n_clients=n_clients,
            policy=spec.baseline,
            seed=1 + int(_u(seed, index, "seed") * 2**31),
        )
    except ConfigError as exc:  # pragma: no cover - spec validation gates
        raise ConfigError(
            f"spec {spec.name!r} scenario {index} draws an invalid "
            f"config: {exc}"
        ) from exc
    features = TopologyFeatures(
        klass=klass.name,
        n_clients=n_clients,
        n_servers=n_servers,
        fan_in=round(n_servers / n_clients, 3),
        tiers=tiers,
        oversubscription=round(oversub, 3),
        link_ratio=round(client_agg_bw / (server_gbit * Gbit), 3),
        mss_label="strip" if mss is None else str(int(mss)),
        operation=operation,
    )
    return Scenario(
        index=index,
        config=config,
        features=features,
        baseline=spec.baseline,
        treatment=spec.treatment,
    )


def generate_scenarios(
    spec: ScenarioSpec,
    samples: int,
    seed: int = 1,
    scale: str = "default",
) -> tuple[Scenario, ...]:
    """Expand ``spec`` into ``samples`` concrete scenarios.

    Byte-reproducible from ``(spec, seed)``; ``scale`` only dials run
    length (:func:`scenario_file_size`).  Scenario ``i`` is independent
    of ``samples``, so growing a sweep extends it without re-drawing
    what was already generated: scenario ``i`` and its result row stay
    identical.  The result cache holds one entry per grid, so the grown
    sweep still simulates every scenario (DESIGN.md §11).
    """
    from ..experiments.base import resolve_scale

    if not isinstance(samples, int) or samples < 1:
        raise ConfigError(f"samples must be a positive int, got {samples!r}")
    scale = resolve_scale(scale)
    return tuple(
        _one_scenario(spec, index, int(seed), scale)
        for index in range(samples)
    )
