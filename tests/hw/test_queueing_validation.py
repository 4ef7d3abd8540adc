"""Open-loop validation of the serialized-migration-path queueing story.

docs/MODEL.md claims the SAIs advantage appears where the offered
migration load approaches the serialized fill path's capacity.  Here we
drive that path directly with Poisson strip arrivals (no PFS, no NIC)
and check the M/M/1-shaped response: waits negligible at low utilization,
exploding near 1.0 — the mechanism behind the 1 Gb vs 3 Gb difference.
"""

import pytest

from repro.config import CostModel
from repro.des import Environment
from repro.hw import InterconnectBus
from repro.rng import RngFactory
from repro.units import KiB
from repro.workloads import poisson_strip_arrivals


def mean_wait_at(utilization, arrivals=3000, seed=7):
    """Mean queue wait when offered load is `utilization` x capacity."""
    env = Environment()
    costs = CostModel()
    bus = InterconnectBus(env, costs)
    service = costs.strip_migration_time(64 * KiB)
    rate = utilization / service

    def handler(i):
        yield from bus.transfer(64 * KiB, costs.c2c_rate)

    env.process(
        poisson_strip_arrivals(
            env,
            rate=rate,
            count=arrivals,
            handler=handler,
            rng=RngFactory(seed).stream("arrivals"),
        )
    )
    env.run()
    return bus.wait_time / arrivals, service


class TestQueueingCurve:
    def test_low_load_waits_negligible(self):
        wait, service = mean_wait_at(0.2)
        assert wait < 0.5 * service

    def test_waits_grow_monotonically_with_load(self):
        waits = [mean_wait_at(u)[0] for u in (0.2, 0.5, 0.8)]
        assert waits[0] < waits[1] < waits[2]

    def test_near_saturation_waits_explode(self):
        moderate, service = mean_wait_at(0.5)
        heavy, _ = mean_wait_at(0.95)
        assert heavy > 5 * moderate
        assert heavy > 2 * service

    def test_mm1_shape_roughly_holds(self):
        """Mean wait ~ rho/(1-rho) x service, within queueing-sim slop."""
        for rho in (0.3, 0.6):
            wait, service = mean_wait_at(rho, arrivals=6000)
            predicted = rho / (1 - rho) * service
            assert wait == pytest.approx(predicted, rel=0.5)

    def test_one_gb_vs_three_gb_operating_points(self):
        """The figure-level regimes, reduced to their queueing essence:
        1 Gb offers ~0.4 of capacity (waits ~ service), 3 Gb offers ~1.2
        (the queue diverges and the bus caps throughput)."""
        costs = CostModel()
        service = costs.strip_migration_time(64 * KiB)
        # Offered strip rates: NIC bandwidth / strip size x P(remote).
        one_gb_rate = (1e9 / 8) / (64 * KiB) * (7 / 8)
        three_gb_rate = 3 * one_gb_rate
        assert one_gb_rate * service < 0.6      # comfortably sub-critical
        assert three_gb_rate * service > 1.0    # super-critical
