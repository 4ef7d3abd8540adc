"""Resilience sweeps: how much of the SAIs win survives a faulty fabric.

The paper evaluates SAIs on a healthy cluster.  These two experiments ask
the robustness question its deployment story raises: source-aware steering
depends on an IP-options side channel and on the request/reply pairing
staying intact, so what happens when the fabric drops packets, middleboxes
strip or corrupt the options, or an I/O server straggles/blinks?

* ``resilience_loss_sweep`` — sweeps a combined fault level ``p`` applied
  as packet loss, option stripping and packet reordering (with an MSS so
  strips travel as segment trains and reassembly is actually exercised),
  and reports each policy's bandwidth retention relative to its own
  fault-free run plus the recovery counters.
* ``resilience_straggler_sweep`` — slows one server down by a factor and,
  at the top level, takes it briefly offline, exercising the client-side
  strip-retry watchdog.

Both report *retention* (bandwidth at fault level / bandwidth at level 0,
per policy) rather than raw speed-up: the claim under test is that SAIs
degrades gracefully — no worse than the baseline — not that it keeps its
healthy-fabric advantage.
"""

from __future__ import annotations

from ..cluster.simulation import compare_policies
from ..config import ClusterConfig, NetworkConfig, WorkloadConfig
from ..faults.plan import FaultPlan
from ..units import KiB, MiB
from .base import ExperimentResult, register_grid_experiment, resolve_scale
from .grids import nic_config

__all__: list[str] = []

#: Combined loss / strip / reorder probability levels per scale.
_LOSS_LEVELS = {
    "quick": (0.0, 0.02, 0.05),
    "default": (0.0, 0.005, 0.02, 0.05),
    "full": (0.0, 0.005, 0.01, 0.02, 0.05, 0.1),
}

#: Straggler slowdown factors per scale (1.0 = the fault-free reference).
_STRAGGLER_LEVELS = {
    "quick": (1.0, 4.0, 8.0),
    "default": (1.0, 2.0, 4.0, 8.0),
    "full": (1.0, 2.0, 4.0, 8.0, 16.0),
}

_FILE_SIZE = {"quick": 2 * MiB, "default": 4 * MiB, "full": 16 * MiB}

#: Deterministic fault-plan seed for both sweeps (the per-packet draws are
#: hash-keyed off it, so this one integer pins every fault decision).
_FAULT_SEED = 20120521  # IPPS 2012


def _base_config(scale: str, faults: FaultPlan | None, mss: int | None) -> ClusterConfig:
    """One resilience cell: modest 8-server point, 3-Gigabit client."""
    return ClusterConfig(
        n_servers=8,
        client=nic_config(3),
        network=NetworkConfig(mss=mss),
        workload=WorkloadConfig(
            n_processes=4,
            transfer_size=512 * KiB,
            file_size=_FILE_SIZE[scale],
        ),
        faults=faults,
    )


def _loss_plan(p: float) -> FaultPlan | None:
    if p == 0.0:
        # The retention base runs on the genuinely fault-free stack —
        # same build as every other experiment, strict tripwires and all.
        return None
    return FaultPlan(
        loss_prob=p,
        strip_option_prob=p,
        reorder_prob=p,
        reorder_window=300e-6,
        seed=_FAULT_SEED,
        # Simulation timescales are microseconds; a fast first retransmit
        # keeps recovery on the same order as serialization.
        retransmit_timeout=100e-6,
        retransmit_cap=5e-3,
    )


def _loss_grid(scale: str) -> tuple[ClusterConfig, ...]:
    scale = resolve_scale(scale)
    # Jumbo-frame MSS: strips travel as multi-segment trains, so loss and
    # reordering hit mid-strip and TCP reassembly does real work.
    return tuple(
        _base_config(scale, _loss_plan(p), mss=8960)
        for p in _LOSS_LEVELS[scale]
    )


def _straggler_plan(slowdown: float, top: bool) -> FaultPlan | None:
    if slowdown <= 1.0:
        return None
    return FaultPlan(
        straggler_servers=(0,),
        straggler_slowdown=slowdown,
        # At the top level the straggler also blinks: offline for the
        # first 2 ms, so every first-wave request to it simply vanishes
        # and only the retry watchdog recovers it.
        server_failure_windows=(((0, 0.0, 2e-3),) if top else ()),
        seed=_FAULT_SEED,
        strip_retry_timeout=20e-3,
        strip_retry_backoff=2.0,
        max_strip_retries=5,
    )


def _straggler_grid(scale: str) -> tuple[ClusterConfig, ...]:
    scale = resolve_scale(scale)
    levels = _STRAGGLER_LEVELS[scale]
    return tuple(
        _base_config(
            scale, _straggler_plan(s, top=(s == levels[-1])), mss=None
        )
        for s in levels
    )


def _fault_level(config: ClusterConfig) -> float:
    return 0.0 if config.faults is None else config.faults.loss_prob


def _slowdown_level(config: ClusterConfig) -> float:
    return 1.0 if config.faults is None else config.faults.straggler_slowdown


def _retention(bandwidth: float, base: float) -> float:
    return bandwidth / base if base > 0 else 0.0


def _resilience_cells(comparison):
    """Counter columns shared by both sweeps' tables."""
    res = comparison.treatment.resilience
    if res is None:
        return ("0", "0", "0", "1.000")
    return (
        str(res.retransmits),
        str(res.strip_retries),
        str(res.fallback_steered),
        f"{res.goodput_ratio:.3f}",
    )


def _assemble_loss(scale, specs, comparisons) -> ExperimentResult:
    base = comparisons[0]
    rows = []
    for spec, comparison in zip(specs, comparisons):
        p = _fault_level(spec)
        base_ret = _retention(
            comparison.baseline.bandwidth, base.baseline.bandwidth
        )
        sais_ret = _retention(
            comparison.treatment.bandwidth, base.treatment.bandwidth
        )
        rows.append(
            (
                f"{p:.3f}",
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{base_ret:.3f}",
                f"{sais_ret:.3f}",
                *_resilience_cells(comparison),
            )
        )
    worst = comparisons[-1]
    worst_base_ret = _retention(
        worst.baseline.bandwidth, base.baseline.bandwidth
    )
    worst_sais_ret = _retention(
        worst.treatment.bandwidth, base.treatment.bandwidth
    )
    worst_res = worst.treatment.resilience
    return ExperimentResult(
        exp_id="resilience_loss_sweep",
        title=(
            "Resilience — bandwidth retention under packet loss + option "
            "stripping + reordering (irqbalance vs SAIs)"
        ),
        headers=(
            "fault p",
            "irqbalance MB/s",
            "SAIs MB/s",
            "irqbalance retention",
            "SAIs retention",
            "retransmits",
            "strip retries",
            "fallback steered",
            "goodput ratio",
        ),
        rows=tuple(rows),
        paper={},
        measured={
            "baseline_retention_at_worst": worst_base_ret,
            "sais_retention_at_worst": worst_sais_ret,
            "retention_gap_pct": (worst_sais_ret - worst_base_ret) * 100,
            "fallback_steered_at_worst": float(
                worst_res.fallback_steered if worst_res else 0
            ),
            "goodput_ratio_at_worst": (
                worst_res.goodput_ratio if worst_res else 1.0
            ),
        },
        notes=(
            "The paper reports no faulty-fabric numbers; the claim under "
            "test is graceful degradation — option-less packets fall back "
            "to round-robin steering instead of failing, so SAIs retention "
            "should track the baseline's.",
            "Loss costs both policies the same retransmission stalls; the "
            "SAIs-specific fault is option stripping, visible in the "
            "fallback-steered column.",
        ),
    )


def _assemble_straggler(scale, specs, comparisons) -> ExperimentResult:
    base = comparisons[0]
    rows = []
    for spec, comparison in zip(specs, comparisons):
        s = _slowdown_level(spec)
        base_ret = _retention(
            comparison.baseline.bandwidth, base.baseline.bandwidth
        )
        sais_ret = _retention(
            comparison.treatment.bandwidth, base.treatment.bandwidth
        )
        res = comparison.treatment.resilience
        rows.append(
            (
                f"{s:g}x",
                f"{comparison.baseline.bandwidth / MiB:.1f}",
                f"{comparison.treatment.bandwidth / MiB:.1f}",
                f"{base_ret:.3f}",
                f"{sais_ret:.3f}",
                str(res.requests_dropped if res else 0),
                str(res.strip_retries if res else 0),
                str(res.duplicate_strips if res else 0),
            )
        )
    worst = comparisons[-1]
    worst_base_ret = _retention(
        worst.baseline.bandwidth, base.baseline.bandwidth
    )
    worst_sais_ret = _retention(
        worst.treatment.bandwidth, base.treatment.bandwidth
    )
    worst_res = worst.treatment.resilience
    return ExperimentResult(
        exp_id="resilience_straggler_sweep",
        title=(
            "Resilience — bandwidth retention with one straggling / "
            "transiently-failing I/O server (irqbalance vs SAIs)"
        ),
        headers=(
            "slowdown",
            "irqbalance MB/s",
            "SAIs MB/s",
            "irqbalance retention",
            "SAIs retention",
            "requests dropped",
            "strip retries",
            "duplicate strips",
        ),
        rows=tuple(rows),
        paper={},
        measured={
            "baseline_retention_at_worst": worst_base_ret,
            "sais_retention_at_worst": worst_sais_ret,
            "retention_gap_pct": (worst_sais_ret - worst_base_ret) * 100,
            "requests_dropped_at_worst": float(
                worst_res.requests_dropped if worst_res else 0
            ),
            "strip_retries_at_worst": float(
                worst_res.strip_retries if worst_res else 0
            ),
        },
        notes=(
            "IOR's synchronous rounds serialize on the slowest strip, so "
            "one straggler drags both policies toward 1/slowdown alike; "
            "the interesting outcome is that the transient-failure window "
            "at the top level recovers through retries rather than hanging.",
        ),
    )


# Bandwidth retention under combined loss / stripping / reordering.
register_grid_experiment(
    "resilience_loss_sweep",
    grid=_loss_grid,
    run_point=compare_policies,
    assemble=_assemble_loss,
)

# Bandwidth retention with one slow (and briefly dead) I/O server.
register_grid_experiment(
    "resilience_straggler_sweep",
    grid=_straggler_grid,
    run_point=compare_policies,
    assemble=_assemble_straggler,
)
