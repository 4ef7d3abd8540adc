"""``repro.scenarios``: declarative, seeded scenario generation.

Where the figure experiments hand-pick a handful of topologies, this
subsystem makes scenario breadth a knob: a compact declarative JSON
spec (distributions over core counts, NIC/link speeds, heterogeneous
client classes, oversubscribed leaf–spine switch tiers, read/write
mixes) expands into concrete :class:`~repro.config.ClusterConfig`
instances, byte-reproducible from ``(spec, seed)``.  Each knob is
declared once, on its spec field (:mod:`repro.scenarios.spec`), which
names its JSON key, its parsing, its bounds and its draw.  The
``sweep`` experiment family (:mod:`repro.experiments.sweep`) samples
generated scenarios through the ordinary runner/cache/``--jobs``
machinery and :func:`build_report` folds the results into win-rate
tables bucketed by topology features.

The cookbook — full schema, worked example specs, how to read the sweep
report — lives in ``docs/SCENARIOS.md``.
"""

from .ambient import (
    DEFAULT_CUSTOM_REQUEST,
    SweepRequest,
    ambient_sweep,
    using_sweep,
)
from .dist import (
    Choice,
    Const,
    Distribution,
    Uniform,
    UniformInt,
    parse_dist,
)
from .generate import (
    Scenario,
    TopologyFeatures,
    generate_scenarios,
    scenario_file_size,
)
from .report import BucketStat, SweepReport, build_report
from .spec import (
    BUILTIN_SPECS,
    ClientClassSpec,
    ScenarioSpec,
    load_spec,
    spec_from_mapping,
)

__all__ = [
    "BUILTIN_SPECS",
    "BucketStat",
    "Choice",
    "ClientClassSpec",
    "Const",
    "DEFAULT_CUSTOM_REQUEST",
    "Distribution",
    "Scenario",
    "ScenarioSpec",
    "SweepReport",
    "SweepRequest",
    "TopologyFeatures",
    "Uniform",
    "UniformInt",
    "ambient_sweep",
    "build_report",
    "generate_scenarios",
    "load_spec",
    "parse_dist",
    "scenario_file_size",
    "spec_from_mapping",
    "using_sweep",
]
