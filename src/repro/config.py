"""Typed, validated, persistable planning configuration.

Every knob of the placement pipeline -- distance backend, phase-1 solver,
phase toggles, engine chunking/parallelism, the seed for order-sensitive
strategies -- lives in one frozen :class:`PlanConfig`.  The config is the
*provenance record* of a plan: :class:`~repro.api.PlanReport` embeds the
exact config that produced it, and ``to_dict`` / ``from_dict`` /
``from_file`` round-trip it through JSON (and read-only TOML), so a
placement artifact can always be traced back to -- and re-run from -- the
declaration that produced it.

Consumers:

* :meth:`repro.engine.PlacementEngine.from_config` /
  :func:`repro.engine.place_catalog` consume the engine knobs,
* :class:`repro.simulate.replanner.EpochReplanner` shares one config
  across its per-epoch solves,
* every :mod:`repro.registry` strategy receives the config through
  ``plan(instance, config)``,
* ``python -m repro plan/compare --config FILE`` loads one from disk.

Unknown keys are a hard :class:`TypeError` -- a typo in a config file
must not silently fall back to a default.  The one exception is
:data:`_RETIRED_KNOBS`, knobs older configs still carry: ``from_dict``
drops them with a :class:`DeprecationWarning`, so saved reports and
daemon checkpoints keep loading.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .core.radii import DEFAULT_RADII_BLOCK
from .costmodel import available_cost_models
from .engine import DEFAULT_CHUNK_SIZE
from .facility import FL_SOLVERS
from .graphs.backend import DEFAULT_CACHE_ROWS
from .graphs.partition import PARTITION_METHODS

__all__ = [
    "PlanConfig",
    "BACKEND_CHOICES",
    "COST_POLICIES",
    "REPLAN_MODES",
    "SERVE_TRIGGERS",
    "PARTITION_METHODS",
    "load_mapping",
]


def load_mapping(path) -> dict:
    """Load a ``*.json`` / ``*.toml`` config file as a plain mapping.

    The one declarative-config loader of the package:
    :meth:`PlanConfig.from_file` and
    :meth:`repro.bench.trials.SweepConfig.from_file` both ride it, so
    every config surface accepts the same two formats with the same
    errors.  TOML is read-only (JSON is the write format throughout).
    """
    path = Path(path)
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError as exc:  # pragma: no cover - env-dependent
                raise RuntimeError(
                    "reading TOML configs needs tomllib (Python >= 3.11) "
                    "or the tomli package; use a .json config instead"
                ) from exc
        data = tomllib.loads(path.read_text())
    else:
        data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise TypeError(f"config file {path} must hold a mapping")
    return data

#: Distance-backend request: ``"auto"`` keeps whatever the instance was
#: built with (dense below, lazy above the materialization threshold when
#: the planner builds the metric itself).
BACKEND_CHOICES = ("auto", "dense", "lazy")

#: Billing policies understood by :func:`repro.core.costs.placement_cost`.
COST_POLICIES = ("mst", "steiner", "steiner_mst")

#: Epoch re-placement modes of the dynamic layer
#: (:class:`repro.simulate.replanner.EpochReplanner`): ``"full"`` re-solves
#: the whole catalog every epoch, ``"incremental"`` re-solves only the
#: objects whose demand drifted beyond ``replan_tolerance``.
REPLAN_MODES = ("full", "incremental")

#: Replan trigger modes of the serving daemon
#: (:class:`repro.serve.PlacementDaemon`): ``"drift"`` re-places only
#: when some object's demand drifted beyond ``replan_tolerance`` since
#: its last re-place, ``"every-epoch"`` runs the configured re-solve for
#: every sealed batch window regardless.
SERVE_TRIGGERS = ("drift", "every-epoch")

#: Knobs that older configs carry and that no longer exist: the worker
#: transport (``shared_memory``) and the kernel dispatch mode
#: (``kernels``).  Neither ever changed a placement, so
#: :meth:`PlanConfig.from_dict` drops them with a warning.
_RETIRED_KNOBS = ("shared_memory", "kernels")


@dataclass(frozen=True)
class PlanConfig:
    """The complete, validated knob set of one planning run.

    Attributes
    ----------
    backend:
        Distance-backend choice for metrics the planner builds itself
        (``"auto"`` | ``"dense"`` | ``"lazy"``).  Instances that already
        carry a metric are used as-is.
    fl_solver:
        Phase-1 facility-location algorithm
        (:data:`repro.facility.FL_SOLVERS`).
    phase2 / phase3:
        The Section 2 ablation toggles; the approximation guarantee
        requires both.
    facility_candidates:
        Cap on the phase-1 candidate facility set (``None``: automatic).
    chunk_size / jobs / radii_block:
        :class:`~repro.engine.PlacementEngine` batching and parallelism.
    cache_rows:
        LRU row-cache capacity of a
        :class:`~repro.graphs.backend.LazyMetric` the planner builds
        itself (scenario instances, replans); instances that already
        carry a metric keep their own setting.
    cost_policy:
        Update-billing policy for report costs (``"mst"`` is the paper's
        restricted policy).
    cost_model:
        Registered accounting model billing the plan
        (:func:`repro.costmodel.available_cost_models`): ``"krw"``
        (default, the paper's bill -- bit-identical to the pre-seam
        inline accounting), ``"admission"`` (per-timeslot capacity with
        accepted/rejected splits) or ``"broadcast-write"`` (one
        multicast propagation charge per period).  Placement search is
        unchanged; the model decides how the resulting placement is
        billed.
    seed:
        Event-order seed for order-sensitive strategies (``online``);
        recorded as provenance either way.
    replication_threshold:
        The ``online`` strategy's ski-rental read count.
    replan_mode:
        Dynamic-layer epoch re-placement mode (``"full"`` |
        ``"incremental"``): whether
        :class:`~repro.simulate.replanner.EpochReplanner` re-solves the
        whole catalog each epoch or only the objects whose demand
        drifted.
    partition / num_shards / portals_per_shard:
        Sharded-solve knobs consumed by the ``krw-sharded`` strategy:
        the partition method (:data:`repro.graphs.partition.PARTITION_METHODS`;
        ``"none"`` forces the global solve), the shard count, and the
        per-shard boundary-portal cap.  ``num_shards=1`` degenerates to
        the global solve bit-for-bit; other strategies record the knobs
        as provenance and ignore them.
    replan_tolerance:
        Normalized per-object L1 demand-drift threshold below which an
        incremental replan carries an object's copy set forward
        unchanged; drift is measured against the object's demand at its
        last re-place, so slow drift accumulates instead of hiding
        under a per-epoch threshold.  ``0.0`` (default) re-places
        exactly the objects whose frequency rows changed at all --
        bit-identical to a full re-solve; larger values trade a bounded
        billing error for fewer re-solves.
    serve_trigger:
        When the serving daemon (:class:`repro.serve.PlacementDaemon`)
        schedules a background replan for a sealed batch window
        (:data:`SERVE_TRIGGERS`): ``"drift"`` (default) only when the
        accumulated drift since the last re-place crosses
        ``replan_tolerance``, ``"every-epoch"`` unconditionally.
    serve_checkpoint_every:
        Warm-state checkpoint cadence of the daemon, in published
        epochs: ``k > 0`` writes the checkpoint after every ``k``-th
        publish (when a checkpoint path is configured); ``0`` (default)
        checkpoints only on shutdown / SIGTERM.
    serve_max_lag:
        Bound on the daemon's background-replan pipeline: at most this
        many sealed-but-unpublished epochs may be queued before
        ``end_epoch`` blocks the ingest side (backpressure instead of
        unbounded queueing).
    """

    backend: str = "auto"
    fl_solver: str = "local_search"
    phase2: bool = True
    phase3: bool = True
    facility_candidates: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    jobs: int = 1
    radii_block: int = DEFAULT_RADII_BLOCK
    cache_rows: int = DEFAULT_CACHE_ROWS
    cost_policy: str = "mst"
    cost_model: str = "krw"
    seed: int | None = None
    replication_threshold: int = 3
    replan_mode: str = "full"
    replan_tolerance: float = 0.0
    partition: str = "auto"
    num_shards: int = 1
    portals_per_shard: int = 4
    serve_trigger: str = "drift"
    serve_checkpoint_every: int = 0
    serve_max_lag: int = 4

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKEND_CHOICES}"
            )
        if self.fl_solver not in FL_SOLVERS:
            raise ValueError(
                f"unknown fl_solver {self.fl_solver!r}; "
                f"choose from {sorted(FL_SOLVERS)}"
            )
        if self.cost_policy not in COST_POLICIES:
            raise ValueError(
                f"unknown cost_policy {self.cost_policy!r}; "
                f"choose from {COST_POLICIES}"
            )
        if self.cost_model not in available_cost_models():
            raise ValueError(
                f"unknown cost_model {self.cost_model!r}; "
                f"choose from {available_cost_models()}"
            )
        if self.cost_model != "krw" and self.cost_policy != "mst":
            raise ValueError(
                f"cost_model {self.cost_model!r} only bills the 'mst' "
                f"cost_policy, not {self.cost_policy!r}"
            )
        for knob in (
            "chunk_size", "jobs", "radii_block", "cache_rows",
            "replication_threshold",
        ):
            if int(getattr(self, knob)) < 1:
                raise ValueError(f"{knob} must be positive")
        if self.facility_candidates is not None and self.facility_candidates < 1:
            raise ValueError("facility_candidates must be positive (or None)")
        if self.replan_mode not in REPLAN_MODES:
            raise ValueError(
                f"unknown replan_mode {self.replan_mode!r}; "
                f"choose from {REPLAN_MODES}"
            )
        tol = float(self.replan_tolerance)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError("replan_tolerance must be a finite non-negative number")
        if self.partition not in PARTITION_METHODS:
            raise ValueError(
                f"unknown partition method {self.partition!r}; "
                f"choose from {PARTITION_METHODS}"
            )
        if int(self.num_shards) < 1:
            raise ValueError(
                "num_shards must be >= 1 (1 solves globally; more splits "
                "the network into that many shards)"
            )
        if int(self.portals_per_shard) < 1:
            raise ValueError(
                "portals_per_shard must be >= 1 (each shard needs at least "
                "one boundary portal to route inter-shard distances)"
            )
        if self.serve_trigger not in SERVE_TRIGGERS:
            raise ValueError(
                f"unknown serve_trigger {self.serve_trigger!r}; "
                f"choose from {SERVE_TRIGGERS}"
            )
        if int(self.serve_checkpoint_every) < 0:
            raise ValueError(
                "serve_checkpoint_every must be >= 0 (0 checkpoints only "
                "on shutdown)"
            )
        if int(self.serve_max_lag) < 1:
            raise ValueError(
                "serve_max_lag must be >= 1 (at least one sealed epoch "
                "must be allowed in flight)"
            )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def engine_kwargs(self) -> dict:
        """The subset :class:`~repro.engine.PlacementEngine` consumes."""
        return dict(
            fl_solver=self.fl_solver,
            phase2=self.phase2,
            phase3=self.phase3,
            facility_candidates=self.facility_candidates,
            chunk_size=self.chunk_size,
            jobs=self.jobs,
            radii_block=self.radii_block,
        )

    def replace(self, **changes) -> "PlanConfig":
        """A copy with the given knobs changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PlanConfig":
        """Build from a plain dict; unknown keys raise ``TypeError``.

        The explicit check turns a config-file typo into a named error
        instead of a silently ignored knob.  :data:`_RETIRED_KNOBS` are
        dropped with one :class:`DeprecationWarning` naming them.
        """
        retired = [k for k in _RETIRED_KNOBS if k in data]
        if retired:
            warnings.warn(
                f"PlanConfig knob(s) {retired} no longer exist and are "
                f"ignored",
                DeprecationWarning,
                stacklevel=2,
            )
            data = {k: v for k, v in data.items() if k not in _RETIRED_KNOBS}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TypeError(
                f"unknown PlanConfig knob(s) {unknown}; known knobs: "
                f"{sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "PlanConfig":
        """Load from ``*.json`` or ``*.toml`` (chosen by suffix)."""
        return cls.from_dict(load_mapping(path))

    def to_file(self, path) -> None:
        """Persist as JSON (the write format; TOML is read-only)."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")
