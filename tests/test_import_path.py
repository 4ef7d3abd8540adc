"""The ``run`` import path stays lean.

Every ``sais-repro`` invocation starts a fresh interpreter and pays for
whatever ``repro.cli`` imports before the first simulation.  numpy is not a
dependency, and the trace-only parts of :mod:`repro.obs` load only for
``sais-repro trace``.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

KEPT_OFF = (
    "numpy",
    "repro.obs.analysis",
    "repro.obs.export",
    "repro.obs.flamegraph",
)


def test_cli_import_loads_no_trace_only_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import sys, repro.cli; "
        f"print(','.join(m for m in {KEPT_OFF!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "", f"imported by repro.cli: {out.stdout}"
