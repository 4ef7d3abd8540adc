"""Tests for the IOR driver and synthetic arrival generators."""

import pytest

from repro.cluster import build_cluster
from repro.config import ClusterConfig, WorkloadConfig
from repro.des import AllOf, Environment
from repro.errors import ConfigError
from repro.rng import RngFactory
from repro.units import KiB, MiB
from repro.workloads import poisson_strip_arrivals, spawn_ior_processes
from repro.workloads.ior import ior_process


def small_cluster(**kwargs):
    defaults = dict(
        n_servers=4,
        workload=WorkloadConfig(
            n_processes=2, transfer_size=256 * KiB, file_size=512 * KiB
        ),
    )
    defaults.update(kwargs)
    return build_cluster(ClusterConfig(**defaults))


class TestIorProcess:
    def test_reads_configured_bytes(self):
        cluster = small_cluster()
        node = cluster.clients[0]
        workload = cluster.config.workload
        proc = cluster.env.process(
            ior_process(node, pid=0, core_index=0, workload=workload,
                        segment_offset=0)
        )
        result = cluster.env.run(until=proc)
        assert result == workload.file_size

    def test_process_table_cleaned_on_exit(self):
        cluster = small_cluster()
        node = cluster.clients[0]
        workload = cluster.config.workload
        proc = cluster.env.process(
            ior_process(node, 0, 0, workload, segment_offset=0)
        )
        cluster.env.run(until=proc)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            node.processes.core_of(0)

    def test_spawn_pins_processes_round_robin(self):
        cluster = small_cluster(
            workload=WorkloadConfig(
                n_processes=10, transfer_size=256 * KiB, file_size=256 * KiB
            )
        )
        node = cluster.clients[0]
        spawn_ior_processes(node, cluster.config.workload)
        cluster.env.run(until=0.0)  # let the process generators start
        assert node.processes.core_of(0) == 0
        assert node.processes.core_of(7) == 7
        assert node.processes.core_of(8) == 0  # wraps around

    def test_segments_are_disjoint(self):
        cluster = small_cluster()
        node = cluster.clients[0]
        workload = cluster.config.workload
        spawn_ior_processes(node, workload, segment_base=0)
        # Two processes, segments 0 and 1: requests must not overlap.
        # Drive to completion and check bytes.
        procs = []  # already spawned inside; re-run via env
        cluster.env.run()
        assert node.pfs.bytes_requested == (
            workload.n_processes * workload.file_size
        )

    def test_absurd_process_count_rejected(self):
        cluster = small_cluster()
        workload = WorkloadConfig(
            n_processes=8 * 65, transfer_size=64 * KiB, file_size=64 * KiB
        )
        with pytest.raises(ConfigError):
            spawn_ior_processes(cluster.clients[0], workload)


class TestRandomAccess:
    def make(self, pattern):
        return small_cluster(
            workload=WorkloadConfig(
                n_processes=2,
                transfer_size=256 * KiB,
                file_size=2 * MiB,
                access_pattern=pattern,
            )
        )

    def drive(self, cluster):
        from repro.rng import RngFactory

        procs = spawn_ior_processes(
            cluster.clients[0],
            cluster.config.workload,
            rng=RngFactory(3).stream("access"),
        )
        cluster.env.run(until=AllOf(cluster.env, procs))
        return sum(int(p.value) for p in procs)

    def test_random_reads_all_bytes(self):
        cluster = self.make("random")
        assert self.drive(cluster) == 2 * 2 * MiB

    def test_random_and_sequential_touch_same_offsets(self):
        """Same transfers, different order: byte totals and strip counts
        match exactly."""
        seq = self.make("sequential")
        rand = self.make("random")
        assert self.drive(seq) == self.drive(rand)
        assert (
            seq.clients[0].pfs.strips_requested
            == rand.clients[0].pfs.strips_requested
        )

    def test_random_without_rng_rejected(self):
        from repro.workloads.ior import ior_process

        cluster = self.make("random")
        with pytest.raises(ConfigError):
            next(
                ior_process(
                    cluster.clients[0],
                    pid=0,
                    core_index=0,
                    workload=cluster.config.workload,
                    segment_offset=0,
                    rng=None,
                )
            )

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(
                n_processes=1,
                transfer_size=256 * KiB,
                file_size=1 * MiB,
                access_pattern="zigzag",
            )


class TestCollectiveIo:
    def make(self, collective):
        return small_cluster(
            workload=WorkloadConfig(
                n_processes=4,
                transfer_size=256 * KiB,
                file_size=1 * MiB,
                collective=collective,
            )
        )

    def test_collective_run_completes(self):
        cluster = self.make(True)
        procs = spawn_ior_processes(cluster.clients[0], cluster.config.workload)
        cluster.env.run(until=AllOf(cluster.env, procs))
        assert sum(int(p.value) for p in procs) == 4 * 1 * MiB

    def test_collective_processes_finish_together(self):
        """Barrier lockstep: last-iteration spread is at most one transfer."""

        def finish_times(collective):
            cluster = self.make(collective)
            times = []
            procs = spawn_ior_processes(
                cluster.clients[0], cluster.config.workload
            )
            for proc in procs:
                proc.callbacks.append(
                    lambda ev, t=times: t.append(cluster.env.now)
                )
            cluster.env.run(until=AllOf(cluster.env, procs))
            return max(times) - min(times), cluster.env.now

        collective_spread, collective_total = finish_times(True)
        independent_spread, independent_total = finish_times(False)
        assert collective_spread <= independent_spread + 1e-9
        # Synchronization costs throughput.
        assert collective_total >= independent_total

    def test_collective_without_barrier_rejected(self):
        cluster = self.make(True)
        from repro.workloads.ior import ior_process

        with pytest.raises(ConfigError):
            next(
                ior_process(
                    cluster.clients[0],
                    pid=0,
                    core_index=0,
                    workload=cluster.config.workload,
                    segment_offset=0,
                    barrier=None,
                )
            )


class TestPoissonArrivals:
    def test_fires_expected_count(self):
        env = Environment()
        rng = RngFactory(1).stream("arrivals")
        fired = []
        env.process(
            poisson_strip_arrivals(env, rate=100.0, count=50,
                                   handler=fired.append, rng=rng)
        )
        env.run()
        assert fired == list(range(50))

    def test_mean_rate_roughly_correct(self):
        env = Environment()
        rng = RngFactory(2).stream("arrivals")
        env.process(
            poisson_strip_arrivals(env, rate=1000.0, count=2000,
                                   handler=lambda i: None, rng=rng)
        )
        env.run()
        assert env.now == pytest.approx(2.0, rel=0.15)

    def test_generator_handlers_do_not_throttle(self):
        env = Environment()
        rng = RngFactory(3).stream("arrivals")

        def slow_handler(i):
            yield env.timeout(100.0)

        env.process(
            poisson_strip_arrivals(env, rate=1000.0, count=100,
                                   handler=slow_handler, rng=rng)
        )
        env.run()
        # Arrivals took ~0.1s; handlers stretch the run to ~100s, but the
        # stream itself was open-loop.
        assert env.now > 99.0

    def test_invalid_args(self):
        env = Environment()
        rng = RngFactory(1).stream("x")
        with pytest.raises(ConfigError):
            list(poisson_strip_arrivals(env, 0.0, 1, lambda i: None, rng))
        with pytest.raises(ConfigError):
            list(poisson_strip_arrivals(env, 1.0, 0, lambda i: None, rng))
