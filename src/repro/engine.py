"""Catalog-scale placement engine: batched, chunked, parallel.

The paper places objects independently (Theorem 7), and
:func:`repro.core.approx.approximate_placement` follows it literally --
one full pipeline pass per object.  Real catalogs (WWW content providers,
distributed file systems -- Section 1) hold thousands to millions of
objects over *one* network, so almost everything the per-object loop
recomputes is shared: distance rows, their sorted order, the facility
candidate geometry.  :class:`PlacementEngine` reorganizes the pipeline
around that observation without changing a single placement decision:

* **Columnar catalogs.**  The engine consumes the instance's
  ``(num_objects, n)`` frequency matrices directly and processes objects
  in chunks, so per-object temporaries (radii, prefix sums, facility
  matrices) never exist for more than ``chunk_size`` objects at once.
* **Batched radii.**  Per chunk, :func:`repro.core.radii.radii_for_objects`
  runs one shared row sweep: each node block is fetched (and argsorted)
  once for every object in the chunk, and sparse-demand objects restrict
  their prefix-sum state to their demand support.  Phase 1 runs for the
  whole chunk first, and the sweep takes each object's phase-1 copies:
  on a dense backend it then computes exact radii only at the copy
  holders and at the nodes where phase 2 might still store a copy, and
  settles the rest with two storage-number caps (99% of the
  (object, node) pairs of the dense benchmark catalog).
* **Shared phases.**  Phases 1-3 call the exact helpers the per-object
  loop uses (:func:`~repro.core.approx.phase1_facility_copies`,
  :func:`~repro.core.approx.phase2_add_copies`,
  :func:`~repro.core.approx.phase3_delete_copies`), so the engine's copy
  sets are identical to the loop's -- bit-for-bit on integer request
  counts; the property suite asserts this.
* **Parallel execution.**  ``jobs > 1`` fans object chunks out over a
  process pool (pinned multiprocessing context).  The instance ships
  once: via :mod:`repro.shm` the dense closure / CSR adjacency and
  frequency matrices are published to shared memory and every worker
  attaches zero-copy read-only views (a few-hundred-byte handle per
  worker instead of an ``O(n^2)`` pickle); where shared memory is
  unavailable the initializer pickle path of old is kept
  (:class:`~repro.graphs.backend.LazyMetric` pickles as its ``O(n + m)``
  adjacency, dropping its row cache).  Each worker keeps its own warm
  row cache across all chunks it processes, and results merge in chunk
  order -- the outcome is independent of ``jobs``, ``chunk_size`` and
  the transport.
* **Compiled kernels.**  The hot loops (radii prefix sums, phase 2/3
  sweeps, backend reductions) dispatch through :mod:`repro.kernels`:
  numba-compiled when importable, the bit-identical numpy reference
  otherwise -- selected by the ``kernels`` knob, never changing results.
* **Streaming.**  :meth:`PlacementEngine.stream` yields
  ``(object, copies)`` pairs chunk by chunk for callers that persist or
  bill placements incrementally and never want the whole catalog's
  intermediate state in memory.
* **Sparse subsets.**  :meth:`PlacementEngine.place_subset` (and
  ``stream(objects=...)``) run the identical chunked/parallel pipeline
  over an arbitrary object subset -- what the incremental epoch
  replanner feeds with only the objects whose demand drifted, instead
  of re-solving a whole near-unchanged catalog.

Quickstart::

    from repro.engine import PlacementEngine
    placement = PlacementEngine(instance, jobs=4).place()

which equals ``approximate_placement(instance)`` on every object.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence

import numpy as np

from .core.approx import (
    phase1_facility_copies,
    phase2_add_copies,
    phase3_delete_copies,
    zero_demand_copies,
)
from .core.instance import DataManagementInstance
from .core.placement import Placement
from .core.radii import DEFAULT_RADII_BLOCK, radii_for_objects
from .facility import FL_SOLVERS
from .graphs.backend import PortalMetric
from .graphs.metric import Metric
from .graphs.partition import Partition
from .kernels import KERNEL_MODES, kernel_mode
from .shm import publish_instance

__all__ = ["PlacementEngine", "place_catalog", "DEFAULT_CHUNK_SIZE"]

#: Objects per chunk: each chunk holds three ``(chunk, n)`` radii arrays
#: plus per-object facility scratch, so 512 keeps a 10k-node network's
#: working set in tens of megabytes while amortizing the shared sweep.
DEFAULT_CHUNK_SIZE = 512


class PlacementEngine:
    """Places an entire object catalog with the Section 2 approximation.

    Parameters
    ----------
    instance:
        The multi-object :class:`~repro.core.instance.DataManagementInstance`.
    fl_solver, phase2, phase3, facility_candidates:
        Forwarded to the per-object pipeline; same semantics as
        :func:`~repro.core.approx.approximate_object_placement`.
    chunk_size:
        Objects per batch.  Bounds peak memory; does not affect results.
    jobs:
        Worker processes.  ``1`` (default) runs in-process; ``jobs > 1``
        distributes chunks over a pool.  Does not affect results.
    radii_block:
        Node-block size of the shared radii sweep (memory/batching knob).
    shared_memory:
        With ``jobs > 1``, publish the instance's arrays into
        :mod:`multiprocessing.shared_memory` once (:mod:`repro.shm`) so
        workers attach zero-copy instead of unpickling the whole
        instance per process.  Falls back to the pickle path silently
        when shared memory is unavailable; never affects results.
    kernels:
        Hot-loop dispatch mode (:data:`repro.kernels.KERNEL_MODES`):
        ``"auto"`` uses the compiled numba kernels when importable,
        ``"numpy"`` forces the reference implementations, ``"numba"``
        requests the compiled path (degrading to numpy with a
        provenance note if numba is absent).  Bit-identical either way.
    """

    def __init__(
        self,
        instance: DataManagementInstance,
        *,
        fl_solver: str = "local_search",
        phase2: bool = True,
        phase3: bool = True,
        facility_candidates: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        jobs: int = 1,
        radii_block: int = DEFAULT_RADII_BLOCK,
        shared_memory: bool = True,
        kernels: str = "auto",
    ) -> None:
        if fl_solver not in FL_SOLVERS:
            raise ValueError(
                f"unknown fl_solver {fl_solver!r}; choose from {sorted(FL_SOLVERS)}"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if radii_block < 1:
            raise ValueError("radii_block must be positive")
        if kernels not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernels mode {kernels!r}; choose from {KERNEL_MODES}"
            )
        self.instance = instance
        self.fl_solver = fl_solver
        self.phase2 = phase2
        self.phase3 = phase3
        self.facility_candidates = facility_candidates
        self.chunk_size = int(chunk_size)
        self.jobs = int(jobs)
        self.radii_block = int(radii_block)
        self.shared_memory = bool(shared_memory)
        self.kernels = kernels
        #: Whether the last parallel run shipped the instance via shared
        #: memory (``None`` until a ``jobs > 1`` stream actually runs).
        self.used_shared_memory: bool | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, instance: DataManagementInstance, config) -> "PlacementEngine":
        """An engine configured by a :class:`~repro.config.PlanConfig`.

        The config is duck-typed (anything with ``engine_kwargs()``)
        because :mod:`repro.config` imports this module for its
        defaults; the concrete class cannot be imported here.
        """
        return cls(instance, **config.engine_kwargs())

    @property
    def config(self):
        """This engine's knobs as a :class:`~repro.config.PlanConfig`
        (backend ``"auto"``: the engine works on whatever metric the
        instance carries)."""
        from .config import PlanConfig

        return PlanConfig(
            fl_solver=self.fl_solver,
            phase2=self.phase2,
            phase3=self.phase3,
            facility_candidates=self.facility_candidates,
            chunk_size=self.chunk_size,
            jobs=self.jobs,
            radii_block=self.radii_block,
            shared_memory=self.shared_memory,
            kernels=self.kernels,
        )

    def for_instance(self, instance: DataManagementInstance) -> "PlacementEngine":
        """A new engine with this engine's configuration over another
        instance -- the epoch-replanning hook: re-solving a drifted
        billing period reuses solver/chunking/parallelism choices
        without re-spelling them."""
        return PlacementEngine.from_config(instance, self.config)

    # ------------------------------------------------------------------
    def place_objects(self, objects: Sequence[int]) -> list[tuple[int, ...]]:
        """Place one chunk of objects; returns their copy tuples in order.

        This is the batched kernel: phase 1 runs per object on its
        support-restricted facility problem, the radii of all live
        objects come from one shared sweep, and phases 2/3 consume those
        rows -- dispatched under this engine's ``kernels`` mode.  Every
        decision matches the per-object loop.
        """
        with kernel_mode(self.kernels):
            return self._place_objects(objects)

    def _place_objects(self, objects: Sequence[int]) -> list[tuple[int, ...]]:
        inst = self.instance
        metric = inst.metric
        objs = [int(o) for o in objects]
        results: list[tuple[int, ...] | None] = [None] * len(objs)

        live: list[int] = []
        for pos, obj in enumerate(objs):
            if inst.total_requests(obj) == 0:
                results[pos] = zero_demand_copies(inst)
            else:
                live.append(pos)
        if not live:
            return results  # type: ignore[return-value]

        opened = {
            pos: phase1_facility_copies(
                inst,
                objs[pos],
                fl_solver=self.fl_solver,
                facility_candidates=self.facility_candidates,
            )
            for pos in live
        }

        live_objs = [objs[pos] for pos in live]
        # Given the phase-1 copies, the sweep computes exact radii only
        # where phases 2 and 3 can read them.
        RW, RS, _ = radii_for_objects(
            metric,
            inst.storage_costs,
            inst.read_freq[live_objs],
            inst.write_freq[live_objs],
            block_size=self.radii_block,
            copies=[opened[pos] for pos in live],
        )
        for k, pos in enumerate(live):
            copies = opened[pos]
            if self.phase2:
                copies = phase2_add_copies(metric, copies, RS[k])
            if self.phase3:
                copies = phase3_delete_copies(metric, copies, RW[k])
            results[pos] = tuple(copies)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _chunked(self, objects: Sequence[int]) -> list[Sequence[int]]:
        """Slice an object sequence into ``chunk_size`` pieces.

        Ranges slice to ranges (the full-catalog case ships two ints per
        chunk to the workers); explicit subsets slice to lists.
        """
        return [
            objects[s:s + self.chunk_size]
            for s in range(0, len(objects), self.chunk_size)
        ]

    def place_subset(
        self, objects: Sequence[int]
    ) -> dict[int, tuple[int, ...]]:
        """Place a sparse object subset; returns ``{object: copy tuple}``.

        The subset rides the exact chunking/parallelism plumbing of
        :meth:`place` -- same chunked shared radii sweep, same process
        pool -- so placing the ``k`` drifted objects of an epoch costs
        what a ``k``-object catalog would, not an ``m``-object one.
        Each object's copies equal what a full :meth:`place` would
        assign it (objects are placed independently).  Duplicates are
        collapsed to their first occurrence; unknown indices raise.
        """
        unique = list(dict.fromkeys(int(o) for o in objects))
        return dict(self.stream(objects=unique))

    def stream(
        self, objects: Sequence[int] | None = None
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(object index, copy tuple)`` chunk by chunk -- only one
        chunk's temporaries are ever live, so a huge catalog streams
        through bounded memory.

        ``objects`` restricts (and orders) the stream to an explicit
        subset; the default covers the whole catalog in object order.
        Unknown indices raise immediately (at the call, not at first
        iteration).
        """
        if objects is None:
            objs: Sequence[int] = range(self.instance.num_objects)
        else:
            m = self.instance.num_objects
            objs = [int(o) for o in objects]
            for o in objs:
                if not 0 <= o < m:
                    raise ValueError(
                        f"object index {o} out of range for a {m}-object catalog"
                    )
        return self._stream_chunks(self._chunked(objs))

    def _stream_chunks(
        self, chunks: list[Sequence[int]]
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        if self.jobs == 1 or len(chunks) <= 1:
            for chunk in chunks:
                yield from zip(chunk, self.place_objects(chunk))
            return
        kwargs = dict(
            fl_solver=self.fl_solver,
            phase2=self.phase2,
            phase3=self.phase3,
            facility_candidates=self.facility_candidates,
            chunk_size=self.chunk_size,
            radii_block=self.radii_block,
            kernels=self.kernels,
        )
        # Publish the instance's arrays into shared memory once, so the
        # pool initializer ships a few-hundred-byte handle instead of the
        # whole pickled instance; `shared` stays None (pickle path) when
        # shm is unavailable or the metric isn't shareable.
        shared = publish_instance(self.instance) if self.shared_memory else None
        self.used_shared_memory = shared is not None
        if shared is not None:
            initializer, initargs = _engine_worker_init_shm, (shared.handle, kwargs)
        else:
            initializer, initargs = _engine_worker_init, (self.instance, kwargs)
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks)),
                mp_context=_pool_context(),
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                # Chunks are submitted through a bounded window (2 per worker)
                # and consumed in submission order, so the merge is
                # deterministic, at most a window's worth of results is ever
                # buffered, and a caller that stops iterating early leaves
                # only the in-flight window to drain -- not the whole catalog.
                window = 2 * min(self.jobs, len(chunks))
                pending: deque = deque()
                it = iter(chunks)
                try:
                    for c in it:
                        pending.append((c, pool.submit(_engine_worker_place, c)))
                        if len(pending) >= window:
                            break
                    while pending:
                        chunk_objs, fut = pending.popleft()
                        chunk = fut.result()
                        nxt = next(it, None)
                        if nxt is not None:
                            pending.append(
                                (nxt, pool.submit(_engine_worker_place, nxt))
                            )
                        yield from zip(chunk_objs, chunk)
                finally:
                    for _, fut in pending:
                        fut.cancel()
        finally:
            # The owner unlinks exactly once, after the pool has shut
            # down (the `with` block waits), so no blocks outlive an
            # early-exiting consumer.
            if shared is not None:
                shared.close()

    def place(self) -> Placement:
        """Place every object of the catalog; equals the per-object loop."""
        return Placement(tuple(copies for _, copies in self.stream()))

    def bill(self, placement: Placement, *, policy: str = "mst", cost_model=None):
        """Charge ``placement`` against this engine's instance.

        Accounting goes through the pluggable seam
        (:mod:`repro.costmodel`): ``cost_model`` is a registered name or
        model instance, ``None`` meaning the default ``"krw"`` -- whose
        bill is :func:`repro.core.costs.placement_cost` verbatim.
        Returns the model's :class:`~repro.core.costs.CostBreakdown`.
        """
        from .costmodel import get_cost_model

        if cost_model is None or isinstance(cost_model, str):
            cost_model = get_cost_model(cost_model or "krw")
        return cost_model.bill_placement(self.instance, placement, policy=policy)

    # ------------------------------------------------------------------
    # sharded dispatch: partition -> portal-summarized shard solves ->
    # stitch.  The second fan-out axis: tasks are (shard, chunk) pairs.
    # ------------------------------------------------------------------
    def place_sharded(self, partition: Partition) -> tuple[Placement, dict]:
        """Place the catalog shard-by-shard against portal summaries.

        Each object is solved only on the shards that carry its demand:
        a shard's subproblem sees the shard's nodes plus every portal,
        with distances from :class:`~repro.graphs.backend.PortalMetric`
        (intra-shard exact, inter-shard routed portal-to-portal) and
        demand masked to the shard's own nodes.  Copy sets of objects
        spanning several shards are merged by union and re-trimmed with
        one global phase-3 pass on the *real* metric, so the final
        placement is billed against true distances.  With a single-shard
        partition this degenerates to :meth:`place` exactly.

        Returns ``(placement, info)`` where ``info`` summarizes the
        decomposition (shard sizes, per-shard object counts, spanning
        objects, copies dropped by the stitch, backend cache stats).
        """
        inst = self.instance
        if partition.n != inst.num_nodes:
            raise ValueError(
                f"partition covers {partition.n} nodes but the instance "
                f"has {inst.num_nodes}"
            )
        if partition.num_shards == 1:
            placement = self.place()
            return placement, {
                "num_shards": 1,
                "num_portals": 0,
                "shard_sizes": [inst.num_nodes],
                "objects_per_shard": [inst.num_objects],
                "spanning_objects": 0,
                "stitch_dropped": 0,
            }

        m = inst.num_objects
        results: list[tuple[int, ...] | None] = [None] * m

        # Which shards support each object's demand?  An object solves
        # only there; demand-free objects take the global cheapest node
        # (same rule as the per-object loop).
        demand = inst.read_freq + inst.write_freq
        support: list[list[int]] = [[] for _ in range(m)]
        shard_objs: list[list[int]] = [[] for _ in range(partition.num_shards)]
        for s in range(partition.num_shards):
            nodes = partition.shard_array(s)
            for o in np.flatnonzero(demand[:, nodes].sum(axis=1) > 0).tolist():
                support[o].append(s)
                shard_objs[s].append(o)
        for o in range(m):
            if not support[o]:
                results[o] = zero_demand_copies(inst)

        tasks = [
            (s, chunk)
            for s in range(partition.num_shards)
            for chunk in self._chunked(shard_objs[s])
        ]
        outputs = self._run_shard_tasks(partition, tasks)

        # Merge: single-shard objects take their shard's copies as-is;
        # spanning objects union across shards (order-independent, so
        # the outcome does not depend on jobs or task scheduling).
        union: dict[int, set[int]] = {}
        for (s, chunk), mapped in zip(tasks, outputs):
            for o, copies in zip(chunk, mapped):
                union.setdefault(o, set()).update(copies)
        spanning = [o for o in range(m) if len(support[o]) > 1]

        # Stitch: one global phase-3 re-trim on the real metric for the
        # spanning objects -- their per-shard solves could not see that
        # another shard already hosts a nearby copy.
        dropped = 0
        if spanning and self.phase3:
            with kernel_mode(self.kernels):
                for start in range(0, len(spanning), self.chunk_size):
                    batch = spanning[start:start + self.chunk_size]
                    RW, _, _ = radii_for_objects(
                        inst.metric,
                        inst.storage_costs,
                        inst.read_freq[batch],
                        inst.write_freq[batch],
                        block_size=self.radii_block,
                    )
                    for k, o in enumerate(batch):
                        before = sorted(union[o])
                        after = phase3_delete_copies(inst.metric, before, RW[k])
                        dropped += len(before) - len(after)
                        union[o] = set(after)

        for o in range(m):
            if results[o] is None:
                results[o] = tuple(sorted(union[o]))
        placement = Placement(tuple(results))  # type: ignore[arg-type]

        info = {
            "num_shards": partition.num_shards,
            "num_portals": partition.num_portals,
            "shard_sizes": [len(s) for s in partition.shards],
            "objects_per_shard": [len(objs) for objs in shard_objs],
            "spanning_objects": len(spanning),
            "stitch_dropped": dropped,
        }
        stats = getattr(inst.metric, "cache_stats", None)
        if callable(stats):
            info["row_cache"] = stats()
        return placement, info

    def _run_shard_tasks(
        self, partition: Partition, tasks: list[tuple[int, Sequence[int]]]
    ) -> list[list[tuple[int, ...]]]:
        """Run ``(shard, chunk)`` subproblem solves, serially or over the
        pool; returns per-task copy lists already mapped to global node
        ids, in task order."""
        if self.jobs == 1 or len(tasks) <= 1:
            portal_metric = PortalMetric(self.instance.metric, partition)
            cache: dict[int, tuple[PlacementEngine, np.ndarray]] = {}
            outputs = []
            for s, chunk in tasks:
                if s not in cache:
                    sub, view = _shard_subproblem(self.instance, portal_metric, s)
                    cache[s] = (self._shard_engine(sub), view)
                engine, view = cache[s]
                copies = engine.place_objects(chunk)
                outputs.append([tuple(int(view[c]) for c in cs) for cs in copies])
            return outputs

        kwargs = dict(
            fl_solver=self.fl_solver,
            phase2=self.phase2,
            phase3=self.phase3,
            facility_candidates=self.facility_candidates,
            chunk_size=self.chunk_size,
            radii_block=self.radii_block,
            kernels=self.kernels,
        )
        shared = publish_instance(self.instance) if self.shared_memory else None
        self.used_shared_memory = shared is not None
        if shared is not None:
            initializer = _engine_worker_init_shm_sharded
            initargs = (shared.handle, kwargs, partition)
        else:
            initializer = _engine_worker_init_sharded
            initargs = (self.instance, kwargs, partition)
        outputs = [None] * len(tasks)
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)),
                mp_context=_pool_context(),
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                # Same bounded submission window as the chunk stream;
                # tasks are shard-major so a worker's per-shard
                # subproblem cache gets consecutive hits.
                window = 2 * min(self.jobs, len(tasks))
                pending: deque = deque()
                it = iter(enumerate(tasks))
                try:
                    for i, (s, chunk) in it:
                        pending.append(
                            (i, pool.submit(_engine_worker_place_shard, s, chunk))
                        )
                        if len(pending) >= window:
                            break
                    while pending:
                        i, fut = pending.popleft()
                        outputs[i] = fut.result()
                        nxt = next(it, None)
                        if nxt is not None:
                            j, (s, chunk) = nxt
                            pending.append(
                                (j, pool.submit(_engine_worker_place_shard, s, chunk))
                            )
                finally:
                    for _, fut in pending:
                        fut.cancel()
        finally:
            if shared is not None:
                shared.close()
        return outputs  # type: ignore[return-value]

    def _shard_engine(self, sub: DataManagementInstance) -> "PlacementEngine":
        """An in-process engine for one shard subproblem (the fan-out
        already happened at the shard level)."""
        return PlacementEngine(
            sub,
            fl_solver=self.fl_solver,
            phase2=self.phase2,
            phase3=self.phase3,
            facility_candidates=self.facility_candidates,
            chunk_size=self.chunk_size,
            jobs=1,
            radii_block=self.radii_block,
            shared_memory=False,
            kernels=self.kernels,
        )


def place_catalog(
    instance: DataManagementInstance,
    *,
    fl_solver: str = "local_search",
    phase2: bool = True,
    phase3: bool = True,
    facility_candidates: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jobs: int = 1,
    radii_block: int = DEFAULT_RADII_BLOCK,
    shared_memory: bool = True,
    kernels: str = "auto",
) -> Placement:
    """One-call catalog placement with an explicit, typed knob set.

    The knobs are exactly the engine fields of
    :class:`~repro.config.PlanConfig` (which this delegates through), so
    an unknown keyword is an immediate ``TypeError`` naming the bad
    argument instead of an untyped ``**kwargs`` passthrough.
    """
    from .config import PlanConfig

    config = PlanConfig(
        fl_solver=fl_solver,
        phase2=phase2,
        phase3=phase3,
        facility_candidates=facility_candidates,
        chunk_size=chunk_size,
        jobs=jobs,
        radii_block=radii_block,
        shared_memory=shared_memory,
        kernels=kernels,
    )
    return PlacementEngine.from_config(instance, config).place()


def _shard_subproblem(
    instance: DataManagementInstance,
    portal_metric: PortalMetric,
    shard: int,
) -> tuple[DataManagementInstance, np.ndarray]:
    """One shard's portal-summarized subproblem.

    The node view is the shard's own nodes plus *every* portal (so
    inter-shard routes and remote placement sites stay representable);
    distances are the portal metric's, materialized dense over the view;
    demand is masked to the shard's own nodes -- other shards' requests
    are theirs to serve.  Returns ``(sub_instance, view)`` where
    ``view[i]`` is the global node id of sub-node ``i``.
    """
    part = portal_metric.partition
    nodes = part.shard_array(shard)
    pnodes = np.asarray(part.portal_nodes, dtype=np.int64)
    view = np.unique(np.concatenate([nodes, pnodes])) if pnodes.size else nodes
    sub_metric = Metric(portal_metric.pairwise(view), validate=False)
    in_shard = (part.shard_of[view] == shard).astype(float)
    sub = DataManagementInstance(
        sub_metric,
        instance.storage_costs[view],
        instance.read_freq[:, view] * in_shard,
        instance.write_freq[:, view] * in_shard,
        object_names=instance.object_names,
        object_sizes=instance.object_sizes,
    )
    return sub, view


# ----------------------------------------------------------------------
# worker plumbing: the instance ships once per worker -- as a zero-copy
# shared-memory handle when available, as the initializer pickle
# otherwise -- and each chunk task carries only its object indices (a
# range for full catalogs, an explicit list for sparse subsets).
# ----------------------------------------------------------------------
_WORKER_ENGINE: PlacementEngine | None = None
_WORKER_ATTACHED = None  # keeps the worker's shm segments mapped
_WORKER_SHARDED: dict | None = None  # partition + per-shard subproblem cache


def _pool_context() -> mp.context.BaseContext:
    """The pinned multiprocessing context for engine pools.

    Explicit rather than platform-default so fork/spawn behavior is
    deterministic: ``fork`` where the platform offers it (cheap worker
    start-up, the engine ships no state through inherited globals),
    ``spawn`` elsewhere (macOS/Windows).
    """
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def _engine_worker_init(instance: DataManagementInstance, kwargs: dict) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = PlacementEngine(instance, jobs=1, **kwargs)


def _engine_worker_init_shm(handle, kwargs: dict) -> None:
    """Pool initializer for the zero-copy path: attach read-only views
    onto the owner's shared-memory blocks instead of unpickling the
    instance.  The attachment is kept alive for the worker's lifetime
    and unmapped (never unlinked -- that's the owner's job) at exit."""
    global _WORKER_ENGINE, _WORKER_ATTACHED
    attached = handle.attach()
    _WORKER_ATTACHED = attached
    atexit.register(attached.close)
    _WORKER_ENGINE = PlacementEngine(attached.instance, jobs=1, **kwargs)


def _engine_worker_place(objects: Sequence[int]) -> list[tuple[int, ...]]:
    if _WORKER_ENGINE is None:
        raise RuntimeError(
            "engine worker pool not initialized: _engine_worker_place must "
            "run in a process prepared by _engine_worker_init / "
            "_engine_worker_init_shm"
        )
    return _WORKER_ENGINE.place_objects(objects)


def _engine_worker_init_sharded(
    instance: DataManagementInstance, kwargs: dict, partition: Partition
) -> None:
    """Pickle-path initializer for the shard fan-out: the base worker
    setup plus the partition; portal metric and per-shard subproblems
    build lazily and stay cached for the worker's lifetime."""
    _engine_worker_init(instance, kwargs)
    global _WORKER_SHARDED
    _WORKER_SHARDED = {"partition": partition, "portal_metric": None, "subs": {}}


def _engine_worker_init_shm_sharded(handle, kwargs: dict, partition: Partition) -> None:
    """Zero-copy initializer for the shard fan-out (shm attach + partition)."""
    _engine_worker_init_shm(handle, kwargs)
    global _WORKER_SHARDED
    _WORKER_SHARDED = {"partition": partition, "portal_metric": None, "subs": {}}


def _engine_worker_place_shard(
    shard: int, objects: Sequence[int]
) -> list[tuple[int, ...]]:
    """Solve one chunk of objects on one shard's subproblem; copies come
    back already mapped to global node ids."""
    if _WORKER_ENGINE is None or _WORKER_SHARDED is None:
        raise RuntimeError(
            "engine worker pool not initialized for sharded dispatch: "
            "_engine_worker_place_shard must run in a process prepared by "
            "_engine_worker_init_sharded / _engine_worker_init_shm_sharded"
        )
    ctx = _WORKER_SHARDED
    if ctx["portal_metric"] is None:
        ctx["portal_metric"] = PortalMetric(
            _WORKER_ENGINE.instance.metric, ctx["partition"]
        )
    if shard not in ctx["subs"]:
        sub, view = _shard_subproblem(
            _WORKER_ENGINE.instance, ctx["portal_metric"], shard
        )
        ctx["subs"][shard] = (_WORKER_ENGINE.for_instance(sub), view)
    engine, view = ctx["subs"][shard]
    copies = engine.place_objects(objects)
    return [tuple(int(view[c]) for c in cs) for cs in copies]
