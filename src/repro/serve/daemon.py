"""The long-lived placement daemon: live ingest, background replans,
atomically published serving state, warm restarts.

The serving loop (see ARCHITECTURE.md for the dataflow picture):

1. **Ingest** -- :meth:`PlacementDaemon.ingest` folds a columnar
   :class:`~repro.simulate.events.RequestLog` batch into the pending
   per-(object, node) demand counters with one vectorized ``counts``
   call (:meth:`ingest_counts` takes pre-aggregated matrices directly).
2. **Seal** -- :meth:`end_epoch` freezes the pending window as one
   epoch and hands it to the background worker thread; the bounded
   hand-off queue (``config.serve_max_lag``) gives backpressure instead
   of unbounded lag when replans fall behind the stream.
3. **Replan** -- the worker runs the epoch step of
   :class:`~repro.simulate.replanner.EpochReplanner`
   (:meth:`EpochStep.solve <repro.simulate.replanner.EpochStep.solve>`,
   which changes nothing): drift detection against each object's demand
   at its last re-place, the re-solve or a carried placement, the
   serving bill (a :class:`~repro.simulate.simulator.NetworkSimulator`
   replay when the daemon knows the network graph, the cost model's
   ``bill_placement`` otherwise) and the migration bill.
4. **Publish** -- the worker builds a fresh immutable
   :class:`~repro.serve.state.ServingState`, nearest-replica tables
   included (reusing the outgoing state's table for every unchanged
   copy set), and only then commits the step (copy sets and drift
   anchors), advances the cumulative accounting and swaps the state in
   with one reference assignment.  A failure anywhere before the swap
   leaves the published generation, its bill and the drift anchors
   untouched.  Foreground lookups
   (:meth:`placement`, :meth:`nearest_replica`, :meth:`lookup`,
   :meth:`stats`) grab the reference once and answer entirely from that
   snapshot, so they always see exactly one generation -- never a mix --
   while the next replan runs, and never compute anything themselves.

Accounting is *clairvoyant-per-epoch*, exactly the
:class:`~repro.simulate.replanner.EpochReplanner` convention: an epoch
is re-placed on its own demand, then its traffic is billed against the
new placement.  The daemon rebuilds each epoch's request log from its
accumulated count matrices
(:meth:`~repro.simulate.events.RequestLog.from_frequencies`, canonical
order), and the bill of a static replay is count-determined -- so a
daemon fed a :class:`~repro.workloads.dynamic.DynamicWorkload`
epoch-by-epoch runs the replanner's epoch step on the same instances
and produces its per-epoch placements and cumulative bill
bit-identically (gated by Experiment E19).

Warm restarts: :meth:`checkpoint_now` (and the cadence/SIGTERM paths)
persist generation, placement, drift anchors, cumulative bills and the
half-filled pending window through :mod:`repro.serve.checkpoint`;
:meth:`PlacementDaemon.restore` resumes bit-identically from the file.
"""

from __future__ import annotations

import queue
import signal
import threading
import time

import numpy as np

from ..config import PlanConfig
from ..core.instance import DataManagementInstance, _min_finite
from ..simulate.events import RequestLog
from ..simulate.replanner import EpochStep
from .checkpoint import DaemonCheckpoint, load_checkpoint, save_checkpoint
from .state import LookupResult, ServingState

__all__ = ["PlacementDaemon"]

#: Worker shutdown sentinel (never a sealed epoch).
_STOP = object()


class PlacementDaemon:
    """A serving daemon over one network and a fixed object catalog.

    Parameters
    ----------
    storage_costs:
        Per-node storage prices (length ``n``), shared by every epoch;
        finite and non-negative, checked here (and so by :meth:`restore`
        and ``Planner.serve``).
    num_objects:
        Catalog size ``m``; demand counters are ``(m, n)``.
    metric:
        Distance backend (dense :class:`~repro.graphs.metric.Metric` or
        thread-safe :class:`~repro.graphs.backend.LazyMetric`) lookups
        and solves route through.
    graph:
        The network graph.  When given, each sealed epoch's serving
        bill replays the epoch's request log through a
        :class:`~repro.simulate.simulator.NetworkSimulator` (the
        replanner's accounting), so ingested counts must be integers.
        Without it the daemon is *metric-only* and bills the configured
        cost model's closed-form ``bill_placement`` instead (for
        ``"krw"``: :func:`~repro.core.costs.placement_cost`) -- enough
        for the registry's offline ``daemon`` strategy.
    config:
        A :class:`~repro.config.PlanConfig`; ``replan_mode`` /
        ``replan_tolerance`` drive the background solve and the
        ``serve_*`` knobs drive checkpoint cadence and the replan-lag
        bound.
    checkpoint_path:
        Where warm state lands (``*.npz``).  Enables the
        ``serve_checkpoint_every`` cadence and the SIGTERM flush;
        :meth:`checkpoint_now` works without it when given a path.
    keep_history:
        Retain every published generation's copy sets (for parity
        harnesses and the lookup-consistency test; off by default so a
        long-lived daemon's memory stays bounded).
    """

    def __init__(
        self,
        storage_costs,
        num_objects: int,
        *,
        metric,
        graph=None,
        config: PlanConfig | None = None,
        checkpoint_path=None,
        keep_history: bool = False,
    ) -> None:
        self.storage_costs = np.asarray(storage_costs, dtype=float)
        if self.storage_costs.ndim != 1:
            raise ValueError("storage_costs must be a 1-D per-node vector")
        if _min_finite("storage_costs", self.storage_costs) < 0:
            raise ValueError("storage_costs must be non-negative")
        self.num_objects = int(num_objects)
        if self.num_objects < 1:
            raise ValueError("num_objects must be positive")
        self.metric = metric
        n = getattr(metric, "n", None) or len(metric)
        if self.storage_costs.shape[0] != n:
            raise ValueError(
                f"storage_costs has {self.storage_costs.shape[0]} nodes, "
                f"the metric has {n}"
            )
        self.num_nodes = int(n)
        self.graph = graph
        self.config = config if config is not None else PlanConfig()
        self.checkpoint_path = checkpoint_path

        # -- pending (unsealed) window, guarded by the ingest lock
        self._ingest_lock = threading.Lock()
        self._pending_fr = np.zeros((self.num_objects, self.num_nodes))
        self._pending_fw = np.zeros((self.num_objects, self.num_nodes))
        self._totals_read = np.zeros(self.num_objects, dtype=np.int64)
        self._totals_write = np.zeros(self.num_objects, dtype=np.int64)
        self._events_ingested = 0
        self._epochs_sealed = 0

        # -- worker-owned state (only the worker thread mutates it): the
        # epoch step's copy sets and drift anchors, and the accounting
        self._step = EpochStep(
            metric, self.storage_costs, self.num_objects, self.config,
            graph=graph,
        )
        self._serve_cost = 0.0
        self._migration_cost = 0.0
        self._records: list[dict] = []

        # -- the atomically swapped snapshot lookups read
        self._state = ServingState(
            metric=metric,
            copy_sets=self._step.copy_sets,
            generation=0,
            epoch=0,
        )
        self._history: dict[int, tuple[tuple[int, ...], ...]] | None = (
            {0: self._state.copy_sets} if keep_history else None
        )

        # -- background worker (started lazily on the first seal)
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.serve_max_lag)
        self._worker: threading.Thread | None = None
        self._worker_error: BaseException | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        path,
        *,
        storage_costs,
        metric,
        graph=None,
        config: PlanConfig | None = None,
        keep_history: bool = False,
    ) -> "PlacementDaemon":
        """Resume a daemon bit-identically from a warm-state checkpoint.

        ``config=None`` re-uses the config recorded in the checkpoint
        (the provenance path); passing one explicitly overrides it.
        The metric/graph are rebuilt by the caller -- network structure
        is environment, not daemon state.  A file that cannot be read
        completely raises :class:`~repro.serve.checkpoint.CheckpointError`
        before any daemon is built, so nothing is restored in part.
        """
        cp = load_checkpoint(path)
        daemon = cls(
            storage_costs,
            cp.num_objects,
            metric=metric,
            graph=graph,
            config=config if config is not None else cp.plan_config(),
            checkpoint_path=path,
            keep_history=keep_history,
        )
        daemon._apply_checkpoint(cp)
        return daemon

    def _apply_checkpoint(self, cp: DaemonCheckpoint) -> None:
        if cp.num_nodes != self.num_nodes:
            raise ValueError(
                f"checkpoint is for a {cp.num_nodes}-node network, "
                f"this daemon serves {self.num_nodes} nodes"
            )
        if cp.primed:
            self._step.tracker.prime(cp.base_fr, cp.base_fw)
        self._pending_fr = cp.pending_fr.copy()
        self._pending_fw = cp.pending_fw.copy()
        self._totals_read = cp.totals_read.copy()
        self._totals_write = cp.totals_write.copy()
        self._events_ingested = int(cp.events_ingested)
        self._epochs_sealed = int(cp.epochs_published)
        self._step.copy_sets = cp.copy_sets
        self._serve_cost = float(cp.serve_cost)
        self._migration_cost = float(cp.migration_cost)
        self._state = ServingState(
            metric=self.metric,
            copy_sets=cp.copy_sets,
            generation=int(cp.generation),
            epoch=int(cp.epochs_published),
            migration_cost=float(cp.last_migration),
            cumulative_cost=float(cp.serve_cost) + float(cp.migration_cost),
        )
        if self._history is not None:
            self._history[self._state.generation] = self._state.copy_sets

    # ------------------------------------------------------------------
    # ingest side (foreground)
    # ------------------------------------------------------------------
    def ingest(self, log) -> dict:
        """Fold one request batch into the pending window; returns a
        small receipt (events folded, window totals)."""
        self._check_open()
        log = RequestLog.coerce(log)
        log.validate_for(self.num_objects, self.num_nodes)
        fr, fw = log.counts(self.num_objects, self.num_nodes)
        reads, writes = log.counts_by_object(self.num_objects)
        with self._ingest_lock:
            self._pending_fr += fr
            self._pending_fw += fw
            self._totals_read += reads
            self._totals_write += writes
            self._events_ingested += len(log)
            pending = float(self._pending_fr.sum() + self._pending_fw.sum())
        return {
            "events": len(log),
            "pending_events": pending,
            "epoch": self._epochs_sealed,
        }

    def ingest_counts(self, read_freq, write_freq) -> dict:
        """Fold pre-aggregated ``(m, n)`` demand matrices directly (what
        ``repro serve replay`` feeds from a ``DynamicWorkload`` epoch).

        Graph-billed daemons need integer-valued counts -- the epoch log
        is rebuilt from them at seal time -- and refuse others here, so
        the window never holds demand its replan cannot bill;
        metric-only daemons accept any non-negative demand.
        """
        self._check_open()
        fr = np.asarray(read_freq, dtype=float)
        fw = np.asarray(write_freq, dtype=float)
        shape = (self.num_objects, self.num_nodes)
        if fr.shape != shape or fw.shape != shape:
            raise ValueError(
                f"demand matrices must have shape {shape}, "
                f"got {fr.shape} and {fw.shape}"
            )
        if not (np.isfinite(fr).all() and np.isfinite(fw).all()):
            raise ValueError("demand must be finite")
        if (fr < 0).any() or (fw < 0).any():
            raise ValueError("demand must be non-negative")
        if self.graph is not None:
            RequestLog.check_counts(fr, fw)
        events = int(round(float(fr.sum() + fw.sum())))
        with self._ingest_lock:
            self._pending_fr += fr
            self._pending_fw += fw
            self._totals_read += fr.sum(axis=1).astype(np.int64)
            self._totals_write += fw.sum(axis=1).astype(np.int64)
            self._events_ingested += events
            pending = float(self._pending_fr.sum() + self._pending_fw.sum())
        return {
            "events": events,
            "pending_events": pending,
            "epoch": self._epochs_sealed,
        }

    def end_epoch(self, *, wait: bool = True) -> int:
        """Seal the pending window as one epoch and schedule its replan.

        Returns the sealed epoch index.  ``wait=True`` (default) blocks
        until the epoch is published -- deterministic replay/parity
        mode; ``wait=False`` returns as soon as the epoch is queued, so
        the foreground keeps answering from the previous generation
        while the worker replans.  With ``config.serve_max_lag`` epochs
        already in flight the call blocks either way (backpressure).
        """
        self._check_open()
        self._raise_worker_error()
        with self._ingest_lock:
            fr = self._pending_fr
            fw = self._pending_fw
            self._pending_fr = np.zeros_like(fr)
            self._pending_fw = np.zeros_like(fw)
            epoch = self._epochs_sealed
            self._epochs_sealed += 1
        self._ensure_worker()
        self._queue.put((epoch, fr, fw))
        if wait:
            self.drain()
        return epoch

    def drain(self) -> None:
        """Block until every sealed epoch has been published (re-raising
        any background replan failure here, in the caller's thread)."""
        self._queue.join()
        self._raise_worker_error()

    # ------------------------------------------------------------------
    # lookup side (foreground, any thread)
    # ------------------------------------------------------------------
    def snapshot(self) -> ServingState:
        """The current immutable serving state (one atomic read)."""
        return self._state

    def placement(self, obj: int) -> tuple[int, ...]:
        """Current copy set of one object."""
        return self._state.placement(obj)

    def nearest_replica(self, obj: int, node: int) -> tuple[int, float]:
        """``(replica node, distance)`` for a request from ``node``."""
        return self._state.nearest_replica(obj, node)

    def lookup(self, obj: int, node: int) -> LookupResult:
        """Full lookup with the publishing generation's metadata."""
        return self._state.lookup(obj, node)

    def stats(self) -> dict:
        """Serving/ingest counters, the published state's identity and
        ``last_epoch``: a copy of the newest epoch record (its
        ``tables_s``/``tables_built`` show the publish's table build),
        ``None`` before any epoch."""
        state = self._state  # one snapshot: internally consistent
        with self._ingest_lock:
            events = self._events_ingested
            sealed = self._epochs_sealed
            pending = float(self._pending_fr.sum() + self._pending_fw.sum())
            reads = int(self._totals_read.sum())
            writes = int(self._totals_write.sum())
        return {
            "generation": state.generation,
            "epochs_published": state.epoch,
            "epochs_sealed": sealed,
            "replan_backlog": sealed - state.epoch,
            "events_ingested": events,
            "reads": reads,
            "writes": writes,
            "pending_events": pending,
            "serve_cost": self._serve_cost,
            "migration_cost": self._migration_cost,
            "total_cost": state.cumulative_cost,
            "num_objects": self.num_objects,
            "num_nodes": self.num_nodes,
            "replan_mode": self.config.replan_mode,
            "replan_tolerance": self.config.replan_tolerance,
            "last_epoch": dict(self._records[-1]) if self._records else None,
        }

    @property
    def epoch_records(self) -> list[dict]:
        """Per-published-epoch accounting rows (copy; oldest first)."""
        return list(self._records)

    def generation_placement(self, generation: int) -> tuple[tuple[int, ...], ...]:
        """A historical generation's copy sets (``keep_history=True``)."""
        if self._history is None:
            raise ValueError("daemon was not started with keep_history=True")
        try:
            return self._history[int(generation)]
        except KeyError:
            raise ValueError(f"unknown generation {generation}") from None

    # ------------------------------------------------------------------
    # background worker
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serve-replan", daemon=True
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                epoch, fr, fw = item
                if self._worker_error is None:
                    try:
                        self._process_epoch(epoch, fr, fw)
                    except BaseException as exc:  # surfaced via drain()/end_epoch()
                        self._worker_error = exc
                if self._state.epoch <= epoch:
                    # failed before its publish, or queued behind a
                    # failure: the epoch's demand goes back to the window
                    self._unseal(fr, fw)
            finally:
                self._queue.task_done()

    def _unseal(self, fr: np.ndarray, fw: np.ndarray) -> None:
        """Return an unpublished sealed epoch's counts to the pending
        window and roll the seal count back, so the demand is neither
        lost nor counted as sealed: the next checkpoint holds it, and a
        daemon restored from that checkpoint replans it."""
        with self._ingest_lock:
            self._pending_fr += fr
            self._pending_fw += fw
            self._epochs_sealed -= 1

    def _raise_worker_error(self) -> None:
        if self._worker_error is not None:
            raise RuntimeError(
                "background replan failed"
            ) from self._worker_error

    def _process_epoch(self, epoch: int, fr: np.ndarray, fw: np.ndarray) -> None:
        """Replan + bill one sealed epoch, then publish (worker thread).

        The step's solve changes nothing, and the new state, tables
        included, is built before the commit; a raise before that point
        leaves the published generation, the bill and the drift anchors
        as they were."""
        inst = DataManagementInstance(self.metric, self.storage_costs, fr, fw)
        outcome = self._step.solve(inst)
        migration, added, dropped = outcome.migration
        serve_total = self._serve_cost + outcome.serve_cost
        migration_total = self._migration_cost + migration
        t1 = time.perf_counter()
        state = ServingState(
            metric=self.metric,
            copy_sets=outcome.placement.copy_sets,
            generation=self._state.generation + 1,
            epoch=epoch + 1,
            migration_cost=migration,
            cumulative_cost=serve_total + migration_total,
            previous=self._state,
        )
        tables_s = time.perf_counter() - t1

        # commit: from here on nothing raises before the swap
        self._step.commit(outcome)
        self._serve_cost = serve_total
        self._migration_cost = migration_total
        self._records.append(
            {
                "epoch": epoch,
                "generation": state.generation,
                "serve_cost": outcome.serve_cost,
                "migration_cost": float(migration),
                "total_cost": outcome.serve_cost + float(migration),
                "replaced": int(outcome.replaced),
                "copies_added": int(added),
                "copies_dropped": int(dropped),
                "solve_time_s": float(outcome.solve_time_s),
                "tables_s": float(tables_s),
                "tables_built": int(state.tables_built),
            }
        )
        if self._history is not None:
            self._history[state.generation] = state.copy_sets
        # THE publish: one reference swap, atomic for every reader
        self._state = state

        cadence = int(self.config.serve_checkpoint_every)
        if (
            self.checkpoint_path is not None
            and cadence > 0
            and state.epoch % cadence == 0
            and self._queue.qsize() == 0
        ):
            # opportunistic: only when the pipeline is empty, so the
            # checkpoint captures a consistent published-up-to-here
            # point (sealed-but-unpublished epochs are never dropped)
            self._write_checkpoint(self.checkpoint_path)

    # ------------------------------------------------------------------
    # checkpointing / shutdown
    # ------------------------------------------------------------------
    def _build_checkpoint(self) -> DaemonCheckpoint:
        state = self._state
        base_fr = base_fw = None
        if self._step.tracker.primed:
            base_fr, base_fw = self._step.tracker.anchors
        with self._ingest_lock:
            pending_fr = self._pending_fr.copy()
            pending_fw = self._pending_fw.copy()
            totals_read = self._totals_read.copy()
            totals_write = self._totals_write.copy()
            events = self._events_ingested
        return DaemonCheckpoint(
            generation=state.generation,
            epochs_published=state.epoch,
            events_ingested=events,
            copy_sets=state.copy_sets,
            serve_cost=self._serve_cost,
            migration_cost=self._migration_cost,
            last_migration=state.migration_cost,
            base_fr=base_fr,
            base_fw=base_fw,
            pending_fr=pending_fr,
            pending_fw=pending_fw,
            totals_read=totals_read,
            totals_write=totals_write,
            config=self.config.to_dict(),
        )

    def _write_checkpoint(self, path) -> None:
        save_checkpoint(self._build_checkpoint(), path)

    def checkpoint_now(self, path=None) -> DaemonCheckpoint:
        """Drain the replan pipeline, then persist (and return) the warm
        state.  Call from the foreground; the cadence checkpoints inside
        the worker use the same writer without the drain."""
        self.drain()
        cp = self._build_checkpoint()
        target = path if path is not None else self.checkpoint_path
        if target is not None:
            save_checkpoint(cp, target)
        return cp

    def install_signal_handlers(self) -> bool:
        """Checkpoint-and-exit on SIGTERM (CLI daemons).  Returns False
        off the main thread, where Python forbids signal handlers."""
        try:
            signal.signal(signal.SIGTERM, self._handle_sigterm)
        except ValueError:
            return False
        return True

    def _handle_sigterm(self, signum=None, frame=None) -> None:
        self.close()
        raise SystemExit(0)

    def close(self) -> None:
        """Drain, final-checkpoint (when a path is configured) and stop
        the worker.  Idempotent; the daemon is a context manager."""
        if self._closed:
            return
        self._queue.join()
        if self.checkpoint_path is not None:
            self._write_checkpoint(self.checkpoint_path)
        if self._worker is not None and self._worker.is_alive():
            self._queue.put(_STOP)
            self._worker.join()
        self._closed = True
        self._raise_worker_error()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("daemon is closed")

    def __enter__(self) -> "PlacementDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._state
        return (
            f"PlacementDaemon(objects={self.num_objects}, "
            f"nodes={self.num_nodes}, generation={state.generation}, "
            f"epochs={state.epoch})"
        )
