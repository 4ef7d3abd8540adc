"""Closed-form cost model of Section III, equations (1)-(9).

The paper decomposes the total time of an I/O request stream as

    T = TR + TP + TM - TO                                             (1)

where ``TR`` is network/server time (policy-independent), ``TP`` is strip
processing on the client cores, ``TM = M x #migrations`` is serialized
strip migration (2), and the overlap ``TO`` is proportional to
``min(TP, TM)``.  From this it derives bounds for balanced vs source-aware
scheduling for single requests (3)-(4), request streams (5)-(6), the
client-bandwidth feasibility constraint (7), the multi-program bounds (8)
and the performance gap (9).

These formulas are *bounds*, not predictions of absolute bandwidth; the
test suite and the ``sec3_model`` claims check that the discrete-event
simulator's ordering and scaling agree with them (gap grows with NS, NR and
M-P; vanishes when M≈P or when programs saturate the cores).
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigError

__all__ = ["AnalysisParams"]


@dataclasses.dataclass(frozen=True)
class AnalysisParams:
    """Symbols of the Sec. III analysis.

    Attributes
    ----------
    n_cores:
        ``NC`` — client cores.
    n_servers:
        ``NS`` — I/O server nodes; the paper assumes ``NS = alpha x NC``
        with integer alpha, but the formulas accept any positive ratio.
    strip_processing:
        ``P`` — seconds to process one strip-sized interrupt.
    strip_migration:
        ``M`` — seconds to move one strip between private caches (M >> P).
    rest_time:
        ``TR`` — network + server time, identical under every policy.
    n_requests:
        ``NR`` — number of I/O requests in the stream.
    n_programs:
        ``NP`` — concurrently running programs on the client.
    """

    n_cores: int
    n_servers: int
    strip_processing: float
    strip_migration: float
    rest_time: float = 0.0
    n_requests: int = 1
    n_programs: int = 1

    def __post_init__(self) -> None:
        if self.n_cores < 1 or self.n_servers < 1:
            raise ConfigError("n_cores and n_servers must be >= 1")
        if self.strip_processing <= 0 or self.strip_migration <= 0:
            raise ConfigError("P and M must be positive")
        if self.rest_time < 0:
            raise ConfigError("TR must be non-negative")
        if self.n_requests < 1 or self.n_programs < 1:
            raise ConfigError("NR and NP must be >= 1")

    # -- derived symbols -----------------------------------------------------

    @property
    def alpha(self) -> float:
        """``alpha = NS / NC`` (strips per core under perfect balance)."""
        return self.n_servers / self.n_cores

    @property
    def migrations_per_request(self) -> float:
        """Expected migrations under balanced scheduling: strips landing on
        the (NC-1)/NC of cores that are not the consumer."""
        return self.n_servers * (self.n_cores - 1) / self.n_cores

    # -- single request (Sec. III-B) ------------------------------------------

    def t_balanced_single(self) -> float:
        """Eq. (3): lower bound on a balanced-scheduling request,
        ``TR + M x alpha x (NC - 1)``."""
        return self.rest_time + self.strip_migration * self.alpha * (
            self.n_cores - 1
        )

    def t_source_aware_single(self) -> float:
        """Eq. (4): ``TR + P x NS`` — all strips processed on one core, no
        migrations."""
        return self.rest_time + self.strip_processing * self.n_servers

    # -- request streams (Sec. III-C) ------------------------------------------

    def t_source_aware_stream(self) -> float:
        """Eq. (5): ``TR + P x NS x NR``."""
        return (
            self.rest_time
            + self.strip_processing * self.n_servers * self.n_requests
        )

    def t_balanced_stream(self) -> float:
        """Eq. (6): lower bound ``TR + M x alpha x (NC - 1) x NR``."""
        return self.rest_time + (
            self.strip_migration * self.alpha * (self.n_cores - 1) * self.n_requests
        )

    @staticmethod
    def max_requests_for_bandwidth(
        n_servers: int, request_size: int, client_bandwidth: float
    ) -> float:
        """Eq. (7) rearranged: the request *rate* the client NIC can carry.

        ``NR x NS x Size_req <= Bandwidth`` couples NS and NR: past the NIC
        ceiling, adding servers must reduce the feasible request rate, which
        is why the SAIs advantage stops growing when the NIC saturates.
        """
        if n_servers < 1 or request_size <= 0 or client_bandwidth <= 0:
            raise ConfigError("invalid eq. (7) inputs")
        return client_bandwidth / (n_servers * request_size)

    # -- multiple programs (Sec. III-D) ----------------------------------------

    def t_source_aware_multiprogram_bounds(self) -> tuple[float, float]:
        """Eq. (8): with NP <= NC programs, source-aware TP parallelizes
        over the NP consuming cores; returns (lower, upper) bounds."""
        base = self.strip_processing * self.n_servers * self.n_requests
        lower = self.rest_time + base / min(self.n_programs, self.n_cores)
        upper = self.rest_time + base
        return lower, upper

    def performance_gap(self) -> float:
        """Eq. (9): ``(NC - 1) x NR x alpha x (M - P)`` — the balanced vs
        source-aware time difference; positive whenever M > P."""
        return (
            (self.n_cores - 1)
            * self.n_requests
            * self.alpha
            * (self.strip_migration - self.strip_processing)
        )

    # -- convenience ------------------------------------------------------------

    def predicted_speedup_stream(self) -> float:
        """Fractional speed-up implied by eqs. (5)-(6): T_bal/T_sa - 1.

        Only meaningful as a *trend* indicator — both inputs are bounds.
        """
        sa = self.t_source_aware_stream()
        bal = self.t_balanced_stream()
        if sa <= 0:
            raise ConfigError("degenerate source-aware time")
        return bal / sa - 1.0

    def cpu_saturated(self) -> bool:
        """Sec. III-D.2: with NP >= NC every core stays busy and the two
        schemes share the same TP lower bound — the advantage vanishes."""
        return self.n_programs >= self.n_cores
