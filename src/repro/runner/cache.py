"""Content-addressed on-disk cache of experiment results.

A cache entry is one :class:`~repro.experiments.base.ExperimentResult`,
keyed by the SHA-256 of everything that determines it:

* the experiment id and scale preset,
* the keys of the *resolved* grid points the experiment would run
  (:meth:`~repro.experiments.base.GridExperiment.keys`: each holds its
  spec's digest, so editing any ``CostModel``/``WorkloadConfig``/...
  field, or the grid itself, invalidates the entry),
* the package version (``repro.__version__``), so releases never serve
  stale shapes.

Entries are JSON files named ``<key>.json`` under per-version
subdirectories of the cache root; an entry that is unreadable or
malformed is treated as a miss, never an error.  A cache directory that
cannot be created (a file in its place, no permission) is a
``ConfigError`` when the cache is opened, before anything runs.  Writes
go through a same-directory temp file + ``os.replace`` so concurrent
runners can share a cache dir.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import pathlib
import tempfile
import typing as t

import repro
from ..errors import ConfigError
from ..experiments.base import ExperimentResult

__all__ = [
    "ResultCache",
    "canonical_payload",
    "canonical_json",
    "config_digest",
    "default_cache_dir",
    "result_key",
]

#: Environment override for the cache root (CLI ``--cache-dir`` wins).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

logger = logging.getLogger("repro.runner.cache")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/sais-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "sais-repro"


def canonical_payload(obj: t.Any) -> t.Any:
    """Reduce an object tree to JSON-stable primitives.

    Dataclasses are tagged with their class name so two config types with
    coincidentally equal fields hash differently; tuples become lists;
    dict keys are stringified (json sorts them at dump time).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                field.name: canonical_payload(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {str(key): canonical_payload(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache keying")


def canonical_json(obj: t.Any) -> str:
    """Deterministic JSON encoding of :func:`canonical_payload`."""
    return json.dumps(
        canonical_payload(obj), sort_keys=True, separators=(",", ":")
    )


def config_digest(obj: t.Any) -> str:
    """SHA-256 hex digest of any canonicalizable object tree."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def result_key(exp_id: str, scale: str, keys: t.Sequence[str]) -> str:
    """The cache key for one (experiment, scale) at the current version.

    ``keys`` are the :meth:`~repro.experiments.base.GridExperiment.keys`
    of the experiment's resolved grid, in grid order.
    """
    return config_digest(
        {
            "exp_id": exp_id,
            "scale": scale,
            "version": repro.__version__,
            "grid": keys,
        }
    )


class ResultCache:
    """Directory of content-addressed ``ExperimentResult`` JSON entries.

    Construction creates ``<root>/v<version>``; an ``OSError`` doing so
    becomes a one-line ``ConfigError`` naming the directory.
    """

    def __init__(self, cache_dir: str | os.PathLike[str] | None = None) -> None:
        self.root = pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
        version_dir = self.root / f"v{repro.__version__}"
        try:
            version_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot use cache directory {self.root}: {exc.strerror}"
            ) from None

    def path_for(self, key: str) -> pathlib.Path:
        """Where a key lives: ``<root>/v<version>/<key>.json``."""
        return self.root / f"v{repro.__version__}" / f"{key}.json"

    def get(self, key: str) -> ExperimentResult | None:
        """Load a cached result; any corruption is a *logged* miss.

        A plain missing file is the ordinary cold-cache case and stays
        silent; an entry that exists but cannot be parsed (truncated by
        a crash predating the atomic-write path, bit rot, a stray
        editor) warns once and is re-run — never an exception, so one
        bad file cannot take a runner invocation down with it.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning(
                "cache entry %s unreadable (%s); treating as a miss",
                path.name,
                exc,
            )
            return None
        try:
            payload = json.loads(text)
            if payload.get("key") != key:
                raise ValueError("entry/key mismatch")
            return ExperimentResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            logger.warning(
                "cache entry %s corrupt (%s); treating as a miss",
                path.name,
                exc,
            )
            return None

    def put(self, key: str, result: ExperimentResult, scale: str) -> pathlib.Path:
        """Atomically persist one result under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "exp_id": result.exp_id,
            "scale": scale,
            "version": repro.__version__,
            "result": result.to_dict(),
        }
        # No sort_keys: the entry must round-trip the result's dict
        # ordering exactly so cached replays are byte-identical.
        encoded = json.dumps(payload, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:12]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        return path
