"""Deterministic parallel campaign runner.

``parallel_map`` runs one callable over a sequence of items — coverage
replications, SBC replications, experiment scenarios — on a
``concurrent.futures.ProcessPoolExecutor``, with:

* **order-preserving results** — ``results[i]`` always corresponds to
  ``items[i]`` regardless of completion order;
* **chunked dispatch** — items are shipped to workers in chunks to
  amortise pickling overhead (chunk size auto-sized unless given);
* **a serial fallback** — ``workers <= 1``, tiny workloads, and
  environments whose sandbox forbids subprocesses all run the same
  code path in-process.

Determinism contract: the callable must depend only on its item (each
item carries its own seed material, see :mod:`repro.validation.
seeding`), so the parallel result equals the serial result bit for
bit. The property suite enforces this for the SBC engine.

``campaign_map`` is the campaign runners' traced form of
``parallel_map``: a heartbeat, and under an active telemetry collector
one capture per replication, merged in replication order.
"""

from __future__ import annotations

import logging
import os
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import TypeVar

from repro import obs

__all__ = ["parallel_map", "campaign_map", "default_workers"]

_logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """Worker count used when callers pass ``workers=None``."""
    return max(1, os.cpu_count() or 1)


def _chunk_size(n_items: int, workers: int) -> int:
    # ~4 chunks per worker balances pickling overhead against load
    # imbalance from heterogeneous replication costs.
    return max(1, n_items // (4 * workers) or 1)


def _map_serial(
    fn: Callable[[T], R],
    items: Sequence[T],
    on_result: Callable[[int, R], None] | None,
) -> list[R]:
    results = []
    for item in items:
        results.append(fn(item))
        if on_result is not None:
            on_result(len(results), results[-1])
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = 1,
    chunk_size: int | None = None,
    on_result: Callable[[int, R], None] | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across processes.

    Parameters
    ----------
    fn:
        Top-level (picklable) callable; ``functools.partial`` of a
        module-level function works.
    items:
        The work items; each must be picklable when ``workers > 1``.
    workers:
        Process count. ``1`` (default) runs serially in-process;
        ``None`` uses :func:`default_workers`.
    chunk_size:
        Items per dispatched chunk; auto-sized when omitted.
    on_result:
        Optional progress callback, invoked in the parent process as
        ``on_result(done_count, result)`` once per item, in input
        order, as results become available (``Executor.map`` yields an
        in-order stream). Used by the campaign runners for heartbeat
        reporting; must not mutate the result.

    Returns
    -------
    list
        ``[fn(item) for item in items]``, in input order.
    """
    items = list(items)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError("workers must be at least 1 (or None for auto)")
    workers = min(workers, len(items)) or 1
    if workers == 1 or len(items) < 2:
        return _map_serial(fn, items, on_result)
    if chunk_size is None:
        chunk_size = _chunk_size(len(items), workers)
    _logger.debug(
        "dispatching %d items to %d workers (chunk_size=%d)",
        len(items), workers, chunk_size,
    )
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = []
            for result in pool.map(fn, items, chunksize=chunk_size):
                results.append(result)
                if on_result is not None:
                    on_result(len(results), result)
            return results
    except (OSError, PermissionError) as exc:
        # Sandboxes without fork/spawn support land here before any
        # work item ran; the serial path gives the identical result.
        _logger.warning(
            "process pool unavailable (%s); falling back to serial "
            "execution", exc,
        )
        warnings.warn(
            f"process pool unavailable ({exc}); falling back to serial "
            "execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return _map_serial(fn, items, on_result)


def campaign_map(
    fn: Callable[[int], R],
    indices: Sequence[int],
    *,
    label: str,
    workers: int | None = 1,
    chunk_size: int | None = None,
) -> list[R]:
    """:func:`parallel_map` over replication ``indices``, with telemetry.

    A :class:`~repro.obs.Heartbeat` named ``label`` ticks once per
    finished replication. When a telemetry collector is active
    (:func:`repro.obs.active`), each replication runs under its own
    capture (:func:`repro.obs.traced_task`) and its payload is merged
    into the ambient collector tagged ``rep=indices[i]``, in input
    order. That is the same code path serially and on a process pool,
    so the merged trace is byte-identical for any worker count.

    Returns ``[fn(index) for index in indices]``.
    """
    indices = list(indices)
    heartbeat = obs.Heartbeat(label, len(indices))
    on_result = lambda done, _result: heartbeat.tick(done)  # noqa: E731
    col = obs.active()
    if col is None:
        return parallel_map(
            fn, indices, workers=workers, chunk_size=chunk_size,
            on_result=on_result,
        )
    pairs = parallel_map(
        partial(obs.traced_task, fn, col.level),
        indices,
        workers=workers,
        chunk_size=chunk_size,
        on_result=on_result,
    )
    results = []
    for index, (result, payload) in zip(indices, pairs):
        col.merge(payload, rep=index)
        results.append(result)
    return results
