#!/usr/bin/env python
"""Analytic explorer: where does the Sec. III model predict a win?

Evaluates the paper's closed forms (eqs. 5/6/9) over a grid of server
counts and migration costs — no simulation events, one
:class:`~repro.core.AnalysisParams` per cell — and renders the
predicted-win region.  Use it to pick interesting operating points before
spending simulator time on them.

Run:  python examples/analytic_explorer.py
"""

from repro.config import CostModel
from repro.core import AnalysisParams
from repro.metrics import render_table
from repro.units import KiB


def main() -> None:
    costs = CostModel()
    strip = 64 * KiB
    p_cost = costs.strip_processing_time(strip)

    # Sweep M from "as cheap as P" to 4x the calibrated cross-socket cost.
    m_values = [p_cost * factor for factor in (1, 2, 5, 10, 19, 40)]
    servers = [4, 8, 16, 32, 48, 64]
    speedups = [
        [
            AnalysisParams(
                n_cores=8,
                n_servers=n_servers,
                strip_processing=p_cost,
                strip_migration=m,
                rest_time=0.0,
                n_requests=16,
            ).predicted_speedup_stream()
            for m in m_values
        ]
        for n_servers in servers
    ]

    header = ["servers \\ M/P"] + [
        f"{m / p_cost:.0f}x" for m in m_values
    ]
    rows = []
    wins = 0
    for n_servers, row in zip(servers, speedups):
        cells = []
        for speedup in row:
            win = speedup > 0.10
            wins += win
            cells.append(f"{'WIN ' if win else '    '}{speedup:+7.0%}")
        rows.append([n_servers, *cells])

    print(
        render_table(
            header,
            rows,
            title=(
                "Predicted balanced-vs-source-aware speed-up "
                "(eqs. 5/6; upper envelope, TR = 0)"
            ),
        )
    )
    print()
    calibrated = costs.strip_migration_time(strip) / p_cost
    print(
        f"The calibrated testbed sits at M/P = {calibrated:.0f}x "
        f"(cross-socket).  Everything at M/P <= 1 predicts a loss — the "
        f"analysis' own statement that without M >> P, balanced "
        f"scheduling's parallel processing wins."
    )
    print(
        "Note the rows are identical: in the closed forms both sides "
        "scale linearly with NS, so the *ratio* depends only on M/P while "
        "the absolute gap (eq. 9) grows with NS — in the simulator the "
        "ratio grows with NS too, because TR (ignored here) shrinks as "
        "servers are added."
    )
    share = wins / (len(servers) * len(m_values))
    print(f"Fraction of the grid with a predicted >10% win: {share:.0%}")


if __name__ == "__main__":
    main()
