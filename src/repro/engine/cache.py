"""On-disk result cache for experiment runs.

A run is identified by ``(experiment, config, params, seed, trials)``;
the cache maps that identity to the list of per-trial values the run
produced.  Because the engine's seeding makes runs deterministic, a
cache hit is exact — re-running a sweep with the same inputs returns the
recorded statistics without burning CPU, which is what makes iterative
design-space exploration over the paper's Monte-Carlo studies cheap.

The key is a SHA-256 digest of a canonical JSON encoding of the
identity.  Values are stored with :mod:`pickle` under
``<root>/<xx>/<digest>.pkl`` (two-level fan-out keeps directories
small).  The root defaults to ``.repro_cache`` in the working directory
and can be pointed elsewhere with the ``REPRO_CACHE_DIR`` environment
variable.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ReproError

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

# Bump to invalidate every existing cache entry after a change to the
# stored format or to any model whose outputs the cache records.
CACHE_FORMAT_VERSION = 1


def canonicalize(obj: Any) -> Any:
    """Reduce an object to a JSON-encodable canonical form.

    Handles the types experiment identities are made of: dataclasses
    (via ``to_dict`` when available, e.g. :class:`~repro.config.
    SystemConfig`), numpy scalars and arrays, sets and tuples.  Raises
    :class:`ReproError` on anything it cannot make canonical, so
    un-keyable params fail loudly instead of colliding.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
            "shape": list(obj.shape),
            "dtype": str(obj.dtype),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        to_dict = getattr(obj, "to_dict", None)
        payload = to_dict() if callable(to_dict) else dataclasses.asdict(obj)
        return {"__type__": type(obj).__name__, "fields": canonicalize(payload)}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonicalize(v) for v in obj), key=repr)
    raise ReproError(f"cannot build a cache key from {type(obj).__name__!r}")


def cache_key(
    experiment: str,
    config: Any,
    params: dict[str, Any] | None,
    seed: Any,
    trials: int,
) -> str:
    """The digest identifying one experiment run."""
    identity = {
        "version": CACHE_FORMAT_VERSION,
        "experiment": experiment,
        "config": canonicalize(config),
        "params": canonicalize(params or {}),
        "seed": canonicalize(seed),
        "trials": trials,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-backed store of per-trial result lists, keyed by digest."""

    def __init__(self, root: str | os.PathLike[str] | None = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """``(hit, values)``; a missing or unreadable entry is a miss.

        Unpickling arbitrary bytes can raise nearly anything (a bad
        opcode argument is a ``ValueError``, an unknown module a
        ``ModuleNotFoundError``), so every exception counts as a miss.
        """
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                values = pickle.load(fh)
        except Exception:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, values

    def put(self, key: str, values: Any) -> None:
        """Record a run's values; atomic via :func:`os.replace`.

        The entry is first pickled to a uniquely named temp file in the
        destination directory and then renamed into place, so a reader —
        another process *or* another thread sharing the cache dir — can
        never observe a torn/partial pickle.  (A pid-suffixed temp name
        is not enough: two threads share a pid and would interleave
        writes into one temp file.)
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f"{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(values, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Stray temp files from interrupted :meth:`put` calls are swept
        too (they do not count toward the total).
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*/*.tmp"):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))


def resolve_cache(cache: "ResultCache | bool | None") -> ResultCache | None:
    """Normalise the ``cache`` argument accepted across the library.

    ``None``/``False`` disable caching, ``True`` selects the default
    on-disk location, and a :class:`ResultCache` is used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache
