"""Repo-level pytest configuration: test tiers and golden-file updates.

Tiers (see CONTRIBUTING.md):

* ``tier1`` — the fast default suite; auto-applied to every test that is
  marked neither ``slow`` nor ``chaos``.
* ``slow`` — scale-stress, the default-scale golden check and long
  example campaigns.
* ``chaos`` — worker-pool tests that kill the workers of a ``--jobs N``
  run or wedge them with SIGSTOP (``pytest -m chaos``).  They are
  deterministic in outcome but process-heavy; a chaos test that is also
  fast and signal-free can opt back into the default suite with an
  explicit ``@pytest.mark.tier1``.

``--update-goldens`` (the ``update_goldens`` fixture) rewrites, instead
of asserting against them, the snapshot files consumed by
``tests/experiments/test_golden_snapshots.py`` and
``tests/experiments/test_claims.py``, the claims block of EXPERIMENTS.md,
and ``tests/obs/registry_known.json``, the registry readings of
``tests/obs/test_registry.py``::

    pytest tests/experiments tests/obs/test_registry.py --update-goldens
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files instead of comparing",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return bool(request.config.getoption("--update-goldens"))


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    for item in items:
        if (
            item.get_closest_marker("slow") is None
            and item.get_closest_marker("chaos") is None
        ):
            item.add_marker(pytest.mark.tier1)
