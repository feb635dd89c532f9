"""The experiment-execution engine.

Runs independent trials of a stochastic experiment across a
:mod:`multiprocessing` worker pool with deterministic per-trial seed
streams, chunked dispatch, an optional on-disk result cache, and
observability hooks.  All of the paper's repeated-experiment studies —
the Fig. 6 disconnection Monte Carlo, production-lot yield binning, the
shmoo characterization, clock-resiliency sweeps — run on this engine;
their public functions are thin wrappers that aggregate trial values
into their historical result types.

Determinism contract
--------------------
Trial ``i`` of a run always receives the ``i``-th child of
``SeedSequence(seed)`` (see :mod:`repro.engine.seeding`), so the values
produced are a pure function of ``(fn, config, params, seed, trials)``
and **never** of the worker count, the chunking, or completion order.
``workers=1`` executes inline (no pool, no pickling overhead) and is the
reference behaviour the parallel path must reproduce exactly.

Trial functions must be module-level (picklable) callables of one
argument, a :class:`TrialContext`; values they return must be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..config import SystemConfig
from ..errors import ReproError
from ..obs.manifest import build_manifest
from ..obs.snapshot import (
    TelemetrySnapshot,
    capture_snapshot,
    merge_snapshot,
    worker_telemetry,
)
from ..obs.telemetry import Telemetry, resolve_telemetry, use_telemetry
from .adaptive import CIStop
from .cache import ResultCache, cache_key, resolve_cache
from .observe import EngineObserver, TelemetryObserver
from .seeding import SeedLike, spawn_trial_seeds


@dataclass
class TrialContext:
    """Everything one trial may depend on.

    ``rng`` is created lazily from the trial's private seed stream; a
    deterministic trial (e.g. one shmoo row) never pays for it.
    """

    index: int
    seed: np.random.SeedSequence
    params: dict[str, Any]
    _rng: np.random.Generator | None = field(default=None, repr=False)

    @property
    def rng(self) -> np.random.Generator:
        """The trial's private random generator."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    @property
    def config(self) -> SystemConfig:
        """The run's :class:`SystemConfig` (when one was supplied)."""
        cfg = self.params.get("config")
        if cfg is None:
            raise ReproError("this run was started without a config")
        return cfg


@dataclass(frozen=True)
class RunResult:
    """Outcome of one engine run."""

    experiment: str
    trials: int
    workers: int
    values: list[Any]               # per-trial values, in trial-index order
    trial_times_s: list[float]      # per-trial compute time (zeros on cache hit)
    elapsed_s: float                # wall-clock for the whole run
    from_cache: bool
    #: Trial cap the caller asked for; set (> ``trials``-or-equal) only on
    #: adaptive runs, where ``trials`` is the count actually executed.
    requested_trials: int | None = None

    @property
    def total_trial_time_s(self) -> float:
        """Summed single-trial compute time (CPU-side work)."""
        return float(sum(self.trial_times_s))

    @property
    def trials_per_second(self) -> float:
        """Wall-clock throughput of the run."""
        return self.trials / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Ratio of summed trial time to wall time (parallel gain)."""
        return self.total_trial_time_s / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _run_chunk(
    payload: tuple[
        Callable[[TrialContext], Any],
        Callable[[list[TrialContext]], list[Any]] | None,
        dict[str, Any],
        list[tuple[int, np.random.SeedSequence]],
        bool,
    ],
) -> tuple[list[tuple[int, Any, float]], TelemetrySnapshot | None]:
    """Execute one chunk of trials; runs inside a worker process.

    With ``batch_fn`` set, the whole chunk is consumed by one vectorized
    call — ``batch_fn(contexts)`` returns per-trial values in context
    order, each context carrying the same private seed stream its trial
    would get on the per-trial path, so values must (and, for the
    shipped batch kernels, bit-identically do) match ``fn`` trial by
    trial.  The chunk's wall time is charged evenly across its trials.

    With ``capture`` set, the chunk runs under a *fresh* ambient
    telemetry — never the one inherited across ``fork``, whose registry
    already holds the driver's accumulated state and would be
    double-counted on merge — and ships everything the trials recorded
    back as a picklable :class:`TelemetrySnapshot`.  The inline
    (``workers=1``) path uses the very same flow, so merged totals are
    identical by construction regardless of worker count.
    """
    fn, batch_fn, params, items, capture = payload

    def _execute() -> list[tuple[int, Any, float]]:
        out: list[tuple[int, Any, float]] = []
        if batch_fn is not None:
            contexts = [
                TrialContext(index=index, seed=seed, params=params)
                for index, seed in items
            ]
            start = time.perf_counter()
            values = batch_fn(contexts)
            per_trial = (time.perf_counter() - start) / max(1, len(items))
            if len(values) != len(items):
                raise ReproError(
                    f"batch_fn returned {len(values)} values for "
                    f"{len(items)} trials"
                )
            for (index, _), value in zip(items, values):
                out.append((index, value, per_trial))
            return out
        for index, seed in items:
            start = time.perf_counter()
            value = fn(TrialContext(index=index, seed=seed, params=params))
            out.append((index, value, time.perf_counter() - start))
        return out

    if not capture:
        return _execute(), None
    with use_telemetry(worker_telemetry()) as tel:
        out = _execute()
        return out, capture_snapshot(tel)


def default_workers() -> int:
    """A sensible worker count for this machine (leaves one CPU free)."""
    return max(1, (os.cpu_count() or 1) - 1)


class ExperimentEngine:
    """Shared executor for repeated stochastic experiments.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) runs inline; ``0`` or
        negative selects :func:`default_workers`.
    cache:
        ``None``/``False`` (default) disables the on-disk cache,
        ``True`` uses the default location, or pass a
        :class:`~repro.engine.cache.ResultCache`.
    observers:
        :class:`~repro.engine.observe.EngineObserver` instances notified
        of run/trial events in the parent process.
    chunk_size:
        Trials per dispatched task.  Defaults to ~4 chunks per worker,
        which amortises pickling without starving the pool.
    telemetry:
        A :class:`~repro.obs.telemetry.Telemetry`; defaults to the
        ambient one (disabled unless installed, e.g. by the CLI's
        ``--trace``/``--metrics`` flags).  When enabled, every run is
        traced as a span, cache hits/misses and trial times are
        recorded, and a :class:`~repro.obs.manifest.RunManifest` is
        appended per run.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | bool | None = None,
        observers: Sequence[EngineObserver] = (),
        chunk_size: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if workers <= 0:
            workers = default_workers()
        self.workers = workers
        self.cache = resolve_cache(cache)
        self.observers = list(observers)
        self.chunk_size = chunk_size
        self.telemetry = resolve_telemetry(telemetry)

    # -- observer plumbing -------------------------------------------------

    def add_observer(self, observer: EngineObserver) -> None:
        """Attach an observer for subsequent runs."""
        self.observers.append(observer)

    # -- execution ---------------------------------------------------------

    def _chunks(
        self, items: list[tuple[int, np.random.SeedSequence]]
    ) -> Iterable[list[tuple[int, np.random.SeedSequence]]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(items) // (self.workers * 4)))
        for start in range(0, len(items), size):
            yield items[start : start + size]

    def run(
        self,
        fn: Callable[[TrialContext], Any],
        *,
        experiment: str,
        trials: int,
        seed: SeedLike = 0,
        config: SystemConfig | None = None,
        params: dict[str, Any] | None = None,
        verify: Callable[[int, Any], None] | None = None,
        batch_fn: Callable[[list[TrialContext]], list[Any]] | None = None,
        adaptive: "CIStop | None" = None,
    ) -> RunResult:
        """Run ``trials`` independent trials of ``fn`` and collect values.

        ``config`` and ``params`` are made available to every trial via
        its :class:`TrialContext` and, together with ``experiment``,
        ``seed`` and ``trials``, form the cache identity of the run.

        ``verify`` is the per-trial verification hook: called in the
        parent process as ``verify(index, value)`` for every trial value
        in index order — *including* values served from the result cache,
        so a stale or corrupted cache entry cannot bypass verification.
        Raise from the hook (e.g. an
        :class:`~repro.verify.invariants.InvariantViolation`) to fail
        the run; verified-trial counts are recorded through telemetry.

        ``batch_fn``, when given, consumes each dispatched chunk in one
        vectorized call (see :func:`_run_chunk`); per-trial seed
        streams, chunking, caching, and telemetry capture are unchanged,
        and the caller warrants that ``batch_fn`` reproduces ``fn``'s
        per-trial values.

        ``adaptive`` (a :class:`~repro.engine.adaptive.CIStop`) turns
        ``trials`` into a cap: trials run in deterministic blocks and
        stop early once the bootstrap CI on the tracked statistic
        closes.  The decision is a pure function of trial order, so the
        executed trial count — recorded as ``result.trials``, with the
        cap in ``result.requested_trials`` — is worker-count invariant.
        """
        if trials < 1:
            raise ReproError("an experiment needs at least one trial")
        if adaptive is not None:
            adaptive.validate()
        run_params = dict(params or {})
        if config is not None:
            run_params["config"] = config

        telemetry = self.telemetry
        observers = list(self.observers)
        if telemetry.enabled:
            observers.append(TelemetryObserver(telemetry))

        cache_params = params
        if adaptive is not None:
            cache_params = dict(params or {})
            cache_params["adaptive"] = adaptive.cache_token()

        key = None
        if self.cache is not None:
            key = cache_key(experiment, config, cache_params, seed, trials)
            hit, values = self.cache.get(key)
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "engine.cache_hits" if hit else "engine.cache_misses",
                    experiment=experiment,
                ).inc()
            if hit:
                start = time.perf_counter()
                for observer in observers:
                    observer.on_run_start(experiment, trials, self.workers)
                self._verify_values(verify, values)
                result = RunResult(
                    experiment=experiment,
                    trials=len(values),
                    workers=self.workers,
                    values=values,
                    trial_times_s=[0.0] * len(values),
                    elapsed_s=time.perf_counter() - start,
                    from_cache=True,
                    requested_trials=trials if adaptive is not None else None,
                )
                for observer in observers:
                    observer.on_run_end(result)
                if telemetry.enabled:
                    self._record_manifest(experiment, config, params, seed, result)
                return result

        start = time.perf_counter()
        for observer in observers:
            observer.on_run_start(experiment, trials, self.workers)

        seeds = spawn_trial_seeds(seed, trials)
        items = list(zip(range(trials), seeds))
        values_by_index: list[Any] = [None] * trials
        times_by_index: list[float] = [0.0] * trials

        capture = telemetry.enabled

        def _absorb(
            chunk_result: tuple[
                list[tuple[int, Any, float]], TelemetrySnapshot | None
            ],
        ) -> None:
            trial_results, snapshot = chunk_result
            if snapshot is not None:
                merge_snapshot(telemetry, snapshot)
            for index, value, elapsed in trial_results:
                values_by_index[index] = value
                times_by_index[index] = elapsed
                for observer in observers:
                    observer.on_trial(experiment, index, elapsed)

        def _dispatch(block, pool) -> None:
            payloads = [
                (fn, batch_fn, run_params, chunk, capture)
                for chunk in self._chunks(block)
            ]
            if pool is None:
                for payload in payloads:
                    _absorb(_run_chunk(payload))
            else:
                for chunk_result in pool.imap_unordered(_run_chunk, payloads):
                    _absorb(chunk_result)

        pool = None
        executed = trials
        try:
            if self.workers > 1 and trials > 1:
                ctx = multiprocessing.get_context(
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
                pool = ctx.Pool(processes=self.workers)
            if adaptive is None:
                _dispatch(items, pool)
            else:
                # Deterministic block schedule with a barrier per block:
                # the stopping decision sees exactly the first N trial
                # values, never a worker-count-dependent superset.
                done = 0
                while done < trials:
                    checkpoint = adaptive.next_checkpoint(done, trials)
                    _dispatch(items[done:checkpoint], pool)
                    done = checkpoint
                    if done >= trials or adaptive.satisfied(
                        values_by_index[:done]
                    ):
                        break
                executed = done
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()

        values_by_index = values_by_index[:executed]
        times_by_index = times_by_index[:executed]
        self._verify_values(verify, values_by_index)

        if self.cache is not None and key is not None:
            self.cache.put(key, values_by_index)

        result = RunResult(
            experiment=experiment,
            trials=executed,
            workers=self.workers,
            values=values_by_index,
            trial_times_s=times_by_index,
            elapsed_s=time.perf_counter() - start,
            from_cache=False,
            requested_trials=trials if adaptive is not None else None,
        )
        for observer in observers:
            observer.on_run_end(result)
        if telemetry.enabled:
            self._record_manifest(experiment, config, params, seed, result)
        return result

    def _verify_values(
        self, verify: Callable[[int, Any], None] | None, values: list[Any]
    ) -> None:
        """Run the per-trial verification hook over values in index order.

        A raising hook aborts the run *before* fresh values are written
        to the result cache, so unverified results are never persisted.
        """
        if verify is None:
            return
        for index, value in enumerate(values):
            verify(index, value)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("engine.verified_trials").inc(len(values))

    def _record_manifest(
        self,
        experiment: str,
        config: SystemConfig | None,
        params: dict[str, Any] | None,
        seed: SeedLike,
        result: RunResult,
    ) -> None:
        """Append this run's provenance record to the telemetry."""
        self.telemetry.record_manifest(
            build_manifest(
                experiment,
                config=config,
                params=params,
                seed=seed,
                trials=result.trials,
                workers=self.workers,
                wall_s=result.elapsed_s,
                busy_s=result.total_trial_time_s,
                from_cache=result.from_cache,
                cache_hits=self.cache.hits if self.cache is not None else 0,
                cache_misses=self.cache.misses if self.cache is not None else 0,
            )
        )
