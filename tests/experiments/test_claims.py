"""The claims ledger: every paper headline, judged once.

Each :class:`Claim` is one row of :data:`CLAIMS`: an experiment id, a
key of the result's ``measured`` dict (or an extractor over the rows of
one or two results), a band, and the deviation note of EXPERIMENTS.md
(D1-D3) that explains why the measured value misses the paper's.  The
paper value is read from the result's ``paper`` dict, never restated
here.

Claims are judged against the committed default-scale goldens
(``goldens/<exp_id>.default.json``), so the tier-1 tests run no
simulation.  The ``slow`` test reruns the ledger's experiments at default
scale and compares them with those goldens.  The same table renders the
claims block of EXPERIMENTS.md.  After an intentional change, regenerate
the goldens and the block with::

    PYTHONPATH=src python -m pytest tests/experiments/test_claims.py --update-goldens
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re
import typing as t

import pytest

from repro.runner import ExperimentRunner
from repro.units import MiB

from .conftest import GOLDENS_DIR, encode_golden, golden_path

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BLOCK_BEGIN = (
    "<!-- claims:begin (generated from tests/experiments/test_claims.py) -->\n"
)
BLOCK_END = "<!-- claims:end -->"

#: Default-scale goldens by experiment id.
Goldens = t.Mapping[str, t.Mapping[str, t.Any]]
Extract = t.Callable[[Goldens], float]

#: Interval notation: ``[`` and ``]`` include a bound, ``(`` and ``)``
#: exclude it, and ``inf`` leaves a side open.
_BAND = re.compile(r"([\[(])(\S+), (\S+)([\])])")


@dataclasses.dataclass(frozen=True)
class Claim:
    """One headline of one experiment, with the band it must stay in."""

    exp_id: str
    #: A key of the result's ``measured`` dict, or the name of what
    #: ``extract`` computes (then it must not be a ``measured`` key).
    key: str
    band: str
    extract: Extract | None = None
    #: The EXPERIMENTS.md deviation that explains a miss of the paper.
    note: str = ""

    @property
    def id(self) -> str:
        return f"{self.exp_id}.{self.key}"

    def value(self, goldens: Goldens) -> float:
        if self.extract is None:
            return goldens[self.exp_id]["measured"][self.key]
        return self.extract(goldens)

    def paper(self, goldens: Goldens) -> float | None:
        return goldens[self.exp_id]["paper"].get(self.key)

    def bounds(self) -> tuple[str, float, float, str]:
        match = _BAND.fullmatch(self.band)
        if match is None:
            raise ValueError(f"{self.id}: band {self.band!r} is not an interval")
        opening, low, high, closing = match.groups()
        return opening, float(low), float(high), closing

    def holds(self, value: float) -> bool:
        opening, low, high, closing = self.bounds()
        above = value > low or (opening == "[" and value == low)
        below = value < high or (closing == "]" and value == high)
        return above and below

    def band_text(self) -> str:
        opening, low, high, closing = self.bounds()
        if low == -math.inf:
            return f"{'≤' if closing == ']' else '<'} {high:g}"
        if high == math.inf:
            return f"{'≥' if opening == '[' else '>'} {low:g}"
        return f"= {low:g}" if low == high else self.band


def _number(text: t.Any) -> float:
    """A table cell as a number: ``"+18.97%"`` -> 18.97."""
    return float(str(text).rstrip("%"))


def _column(goldens: Goldens, exp_id: str, column: str) -> list[float]:
    result = goldens[exp_id]
    index = result["headers"].index(column)
    return [_number(row[index]) for row in result["rows"]]


def cell(exp_id: str, column: str, **where: t.Any) -> Extract:
    """The ``column`` cell of the one row whose cells equal ``where``."""

    def extract(goldens: Goldens) -> float:
        result = goldens[exp_id]
        headers = result["headers"]
        (row,) = [
            row
            for row in result["rows"]
            if all(row[headers.index(name)] == want for name, want in where.items())
        ]
        return _number(row[headers.index(column)])

    return extract


def measured(exp_id: str, key: str) -> Extract:
    return lambda goldens: goldens[exp_id]["measured"][key]


def mean(exp_id: str, column: str) -> Extract:
    def extract(goldens: Goldens) -> float:
        values = _column(goldens, exp_id, column)
        return sum(values) / len(values)

    return extract


def total(exp_id: str, column: str) -> Extract:
    return lambda goldens: sum(_column(goldens, exp_id, column))


def rises(exp_id: str, column: str) -> Extract:
    """1 if ``column`` never falls down the rows and ends above its start."""

    def extract(goldens: Goldens) -> float:
        values = _column(goldens, exp_id, column)
        return float(values == sorted(values) and values[-1] > values[0])

    return extract


def ratio(numerator: Extract, denominator: Extract) -> Extract:
    return lambda goldens: numerator(goldens) / denominator(goldens)


def difference(minuend: Extract, subtrahend: Extract) -> Extract:
    return lambda goldens: minuend(goldens) - subtrahend(goldens)


def gbit(mib_per_s: Extract) -> Extract:
    """A MB/s (MiB/s) cell in Gb/s."""
    return lambda goldens: mib_per_s(goldens) * MiB * 8 / 1e9


FIG5, SEC5C = "fig5_bandwidth_3g", "sec5c_bandwidth_1g"
FIG6, FIG7 = "fig6_missrate_1g", "fig7_missrate_3g"
FIG9, FIG11 = "fig9_cpuutil_3g", "fig11_unhalted_3g"
FIG12, FIG14 = "fig12_multiclient", "fig14_memsim"
MIGRATION = "ablation_migration"

CLAIMS: tuple[Claim, ...] = (
    # Fig. 5: the speed-up grows with the servers; bandwidth stays
    # under the 3-Gigabit line.  The cells are (1 MiB, 48 servers).
    Claim(FIG5, "max_speedup_pct", "[12, 35]"),
    Claim(FIG5, "bandwidth_below_gbit", "(-inf, 3)"),
    Claim(
        FIG5,
        "speedup_at_most_servers_over_max",
        "[0.7, inf)",
        ratio(
            measured(FIG5, "speedup_at_most_servers_pct"),
            measured(FIG5, "max_speedup_pct"),
        ),
    ),
    Claim(
        FIG5,
        "speedup_pct_at_1M_48",
        "[12, 35]",
        cell(FIG5, "speed-up", transfer="1M", servers=48),
    ),
    Claim(
        FIG5,
        "speedup_pct_48_minus_16_servers_at_1M",
        "[-2, inf)",
        difference(
            cell(FIG5, "speed-up", transfer="1M", servers=48),
            cell(FIG5, "speed-up", transfer="1M", servers=16),
        ),
    ),
    # Sec. V-C: the 1-Gigabit NIC binds, so the policies tie.
    Claim(SEC5C, "peak_speedup_pct", "[-2, 8]", note="D1"),
    Claim(SEC5C, "bandwidth_below_gbit", "[0.8, 1)"),
    Claim(
        SEC5C,
        "speedup_pct_at_1M_16",
        "[-2, 8]",
        cell(SEC5C, "speed-up", transfer="1M", servers=16),
        note="D1",
    ),
    Claim(
        SEC5C,
        "sais_gbit_at_1M_16",
        "(0.8, inf)",
        gbit(cell(SEC5C, "SAIs MB/s", transfer="1M", servers=16)),
    ),
    # Figs. 6 and 7: SAIs' L2 miss rate is lower at every point, and the
    # rates rise with the network bandwidth.
    Claim(FIG6, "sais_always_lower", "[1, 1]"),
    Claim(FIG6, "max_reduction_pct", "[25, 65]"),
    Claim(FIG7, "sais_always_lower", "[1, 1]"),
    Claim(FIG7, "max_reduction_pct", "[30, 65]"),
    Claim(
        FIG7,
        "reduction_pct_at_1M_48",
        "[30, 65]",
        cell(FIG7, "reduction", transfer="1M", servers=48),
    ),
    Claim(
        FIG7,
        "sais_miss_rate_pct_at_1M_48",
        "[2, 30]",
        cell(FIG7, "SAIs", transfer="1M", servers=48),
    ),
    Claim(
        FIG7,
        "irqbalance_miss_rate_pct_at_1M_48",
        "[5, 35]",
        cell(FIG7, "irqbalance", transfer="1M", servers=48),
    ),
    Claim(
        FIG7,
        "mean_irqbalance_rate_over_1g",
        "[0.95, inf)",
        ratio(mean(FIG7, "irqbalance"), mean(FIG6, "irqbalance")),
    ),
    # Figs. 8 and 9: utilization stays far from saturation, and
    # irqbalance spends more of it than SAIs.
    Claim("fig8_cpuutil_1g", "max_util_pct", "[1, 20]"),
    Claim(FIG9, "irqbalance_higher_everywhere", "[1, 1]"),
    Claim(FIG9, "util_ratio_3g_over_1g", "[1.5, 4]"),
    Claim(
        FIG9,
        "irqbalance_util_pct_at_1M_48",
        "(-inf, 40)",
        cell(FIG9, "irqbalance util", transfer="1M", servers=48),
    ),
    Claim(
        FIG9,
        "sais_util_pct_at_1M_48",
        "(-inf, 30)",
        cell(FIG9, "SAIs util", transfer="1M", servers=48),
    ),
    # Figs. 10 and 11: SAIs cuts the unhalted cycles of the same reads.
    Claim("fig10_unhalted_1g", "max_reduction_pct", "[15, 60]", note="D2"),
    Claim("fig10_unhalted_1g", "mean_reduction_pct", "(10, inf)"),
    # D2's mechanism: every per-strip cycle cost (M, P, encrypt) is
    # independent of the arrival rate, so the 1 Gb reduction equals the
    # 3 Gb one up to the grid's noise.  A rate-dependent stall would pull
    # the ratio well below 1: the paper reads 27.14 / 48.57 = 0.56.
    Claim(
        "fig10_unhalted_1g",
        "max_reduction_1g_over_3g",
        "[0.9, 1.1]",
        ratio(
            measured("fig10_unhalted_1g", "max_reduction_pct"),
            measured(FIG11, "max_reduction_pct"),
        ),
        note="D2",
    ),
    Claim(FIG11, "max_reduction_pct", "[35, 60]"),
    Claim(FIG11, "mean_reduction_pct", "(25, inf)"),
    Claim(
        FIG11,
        "reduction_pct_at_1M_48",
        "[35, 60]",
        cell(FIG11, "reduction", transfer="1M", servers=48),
    ),
    # Fig. 12: the speed-up peaks before the servers saturate, then
    # decays, while the aggregate bandwidth grows.
    Claim(FIG12, "peak_speedup_pct", "[10, 30]", note="D3"),
    Claim(FIG12, "peak_at_clients", "(-inf, 8]", note="D3"),
    Claim(FIG12, "min_speedup_pct", "[-1, 5]", note="D3"),
    Claim(
        FIG12,
        "sais_mbs_56_over_4_clients",
        "(1, inf)",
        ratio(
            cell(FIG12, "SAIs MB/s", clients=56),
            cell(FIG12, "SAIs MB/s", clients=4),
        ),
    ),
    # Fig. 14: Si-SAIs peaks at 4 applications, and both schemes
    # converge once the applications saturate the cores.
    Claim(FIG14, "peak_sais_mbs", "[3000, 4200]"),
    Claim(FIG14, "peak_speedup_pct", "[40, 65]"),
    Claim(FIG14, "miss_reduction_at_peak_pct", "[40, 60]"),
    Claim(FIG14, "converged_mbs", "[1900, 3000]"),
    Claim(
        FIG14,
        "sais_mbs_at_4_apps",
        "[3000, 4200]",
        cell(FIG14, "Si-SAIs MB/s", apps=4),
    ),
    Claim(
        FIG14,
        "speedup_pct_at_4_apps",
        "[40, 65]",
        cell(FIG14, "speed-up", apps=4),
    ),
    Claim(
        FIG14,
        "sais_mbs_at_16_apps",
        "[1900, 3000]",
        cell(FIG14, "Si-SAIs MB/s", apps=16),
    ),
    Claim(
        FIG14,
        "speedup_pct_at_16_apps",
        "(-10, 10)",
        cell(FIG14, "speed-up", apps=16),
    ),
    Claim(
        FIG14,
        "sais_util_pct_at_16_apps",
        "(90, inf)",
        cell(FIG14, "sais util", apps=16),
    ),
    # Sec. III: M >> P, and the simulator orders the points like the
    # analytic gap.
    Claim("sec3_model", "m_over_p_much_greater_1", "[1, 1]"),
    Claim("sec3_model", "gap_grows_with_servers", "[1, 1]"),
    Claim("sec3_model", "m_over_p", "(3, inf)"),
    Claim("sec3_model", "sim_speedup_16_pct", "(5, inf)"),
    Claim(
        "sec3_model",
        "sim_speedup_48_minus_16_pct",
        "[-2, inf)",
        difference(
            measured("sec3_model", "sim_speedup_48_pct"),
            measured("sec3_model", "sim_speedup_16_pct"),
        ),
    ),
    # Sec. III's four policies: (i) and (ii) tie, and both source-aware
    # policies beat the conventional ones.
    Claim("ablation_policies", "policy_i_vs_ii_gap_pct_max", "(-inf, 2]"),
    Claim("ablation_policies", "source_aware_beats_conventional", "[1, 1]"),
    # Migration during blocking I/O: (i) and (ii) tie when it is rare;
    # when it is common, (i)'s stale hints migrate strips and (ii) wins.
    Claim(MIGRATION, "gap_trivial_when_migration_rare_pct", "(-inf, 1]"),
    Claim(MIGRATION, "gain_at_30pct_migration_pct", "(1, inf)"),
    Claim(
        MIGRATION,
        "policy_i_migrations_at_30pct",
        "(0, inf)",
        cell(MIGRATION, "(i) strip migrations", **{"P(migrate)": "30%"}),
    ),
    Claim(
        MIGRATION,
        "policy_i_migrations_rise_with_hops",
        "[1, 1]",
        rises(MIGRATION, "(i) strip migrations"),
    ),
    Claim(
        MIGRATION,
        "policy_ii_migrations_total",
        "[0, 0]",
        total(MIGRATION, "(ii) strip migrations"),
    ),
    # Writes have no interrupt data-locality problem.
    Claim("ablation_write_path", "write_speedup_pct", "(-inf, 1]"),
    Claim(
        "ablation_write_path",
        "strip_migrations_total",
        "[0, 0]",
        total("ablation_write_path", "strip migrations"),
    ),
    # The advantage needs M >> P and network headroom.
    Claim("ablation_costmodel", "advantage_needs_m_much_greater_p", "[1, 1]"),
    Claim("ablation_costmodel", "advantage_needs_bandwidth", "[1, 1]"),
    # The win holds across client-bound strip sizes; 16 KiB strips make
    # the storage tier bind.
    Claim(
        "ablation_stripsize", "speedup_positive_at_client_bound_sizes", "[1, 1]"
    ),
    Claim("ablation_stripsize", "speedup_spread_pct", "(-inf, 10)"),
    Claim("ablation_stripsize", "speedup_at_16k_pct", "(-inf, 5)"),
    # Extensions: newer NICs, NAPI coalescing and collective I/O.
    Claim("extension_modern_hw", "win_grows_with_network_speed", "[1, 1]"),
    Claim("extension_modern_hw", "paper_era_speedup_pct", "[10, 35]"),
    Claim(
        "extension_modern_hw",
        "modern_25g_over_paper_era",
        "(2, inf)",
        ratio(
            measured("extension_modern_hw", "modern_25g_speedup_pct"),
            measured("extension_modern_hw", "paper_era_speedup_pct"),
        ),
    ),
    Claim("extension_napi", "win_survives_napi", "[1, 1]"),
    Claim(
        "extension_napi",
        "speedup_with_over_without_napi",
        "(0.4, inf)",
        ratio(
            measured("extension_napi", "speedup_with_napi_pct"),
            measured("extension_napi", "speedup_without_napi_pct"),
        ),
    ),
    Claim("extension_collective", "collective_costs_bandwidth", "[1, 1]"),
    Claim("extension_collective", "win_survives_collective", "[1, 1]"),
)

#: The experiments the ledger judges: each has claims and a default
#: golden, and dropping every claim of one leaves its golden judged.
LEDGER_IDS = tuple(
    sorted(
        {claim.exp_id for claim in CLAIMS}
        | {
            path.name.removesuffix(".default.json")
            for path in GOLDENS_DIR.glob("*.default.json")
        }
    )
)


def render_ledger(goldens: Goldens) -> str:
    """The claims table of EXPERIMENTS.md, as Markdown."""
    lines = [
        "| Experiment | Claim | Paper | Measured | Band | Note |",
        "|---|---|---|---|---|---|",
    ]
    previous = None
    for claim in CLAIMS:
        paper = claim.paper(goldens)
        lines.append(
            f"| {'' if claim.exp_id == previous else f'`{claim.exp_id}`'} "
            f"| `{claim.key}` | {'—' if paper is None else f'{paper:g}'} "
            f"| {claim.value(goldens):.4g} | {claim.band_text()} "
            f"| {claim.note} |"
        )
        previous = claim.exp_id
    return "\n".join(lines) + "\n"


@pytest.mark.slow
def test_default_goldens_match_a_fresh_run(update_goldens):
    """One runner invocation, so the points the experiments share run once."""
    summary = ExperimentRunner(jobs=1, use_cache=False).run_many(
        LEDGER_IDS, scale="default"
    )
    drifted = []
    for result in summary.results:
        payload = result.to_dict()
        path = golden_path(result.exp_id, "default")
        if update_goldens:
            path.write_text(encode_golden(payload), encoding="utf-8")
        elif not path.exists() or json.loads(path.read_text("utf-8")) != payload:
            drifted.append(result.exp_id)
    if update_goldens:
        pytest.skip(f"{len(summary.results)} default goldens updated")
    assert not drifted, (
        f"default-scale results drifted from their goldens: {drifted}; if "
        "the change is intentional, re-run with --update-goldens and "
        "review the diff"
    )


@pytest.fixture(scope="module")
def goldens() -> dict[str, dict[str, t.Any]]:
    return {
        exp_id: json.loads(golden_path(exp_id, "default").read_text("utf-8"))
        for exp_id in LEDGER_IDS
    }


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(claim, goldens):
    value = claim.value(goldens)
    paper = claim.paper(goldens)
    message = f"{claim.id} = {value:.4g} is outside {claim.band}"
    if paper is not None:
        message += f" (paper: {paper:g})"
    if claim.note:
        message += f"; {claim.note} in EXPERIMENTS.md explains the gap"
    assert claim.holds(value), message


def test_ledger_is_complete_and_resolves(goldens):
    claimed = {(claim.exp_id, claim.key) for claim in CLAIMS}
    unclaimed = [
        f"{exp_id}.{key}"
        for exp_id in LEDGER_IDS
        for key in goldens[exp_id]["paper"]
        if (exp_id, key) not in claimed
    ]
    assert not unclaimed, f"paper headlines without a claim: {unclaimed}"

    unresolved = []
    for claim in CLAIMS:
        measured_keys = goldens[claim.exp_id]["measured"]
        try:
            _, low, high, _ = claim.bounds()
            if claim.extract is None:
                resolves = claim.key in measured_keys
            else:
                resolves = claim.key not in measured_keys and math.isfinite(
                    claim.extract(goldens)
                )
            resolves = resolves and low <= high
        except (KeyError, ValueError, ZeroDivisionError):
            resolves = False
        if not resolves:
            unresolved.append(claim.id)
    if len({claim.id for claim in CLAIMS}) != len(CLAIMS):
        unresolved.append("duplicate claim ids")
    assert not unresolved, f"claims that do not resolve: {unresolved}"


def test_experiments_md_claims_block_is_rendered(goldens, update_goldens):
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert BLOCK_BEGIN in text and BLOCK_END in text, (
        "EXPERIMENTS.md lost its claims block markers"
    )
    head, rest = text.split(BLOCK_BEGIN, 1)
    block, tail = rest.split(BLOCK_END, 1)
    rendered = render_ledger(goldens)
    if update_goldens:
        EXPERIMENTS_MD.write_text(
            head + BLOCK_BEGIN + rendered + BLOCK_END + tail, encoding="utf-8"
        )
        pytest.skip("EXPERIMENTS.md claims block updated")
    assert block == rendered, (
        "EXPERIMENTS.md's claims block is stale; re-run with --update-goldens"
    )
