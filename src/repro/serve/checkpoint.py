"""Warm-state checkpoints: everything a daemon restart must not lose.

A checkpoint captures the daemon's full resume state *between* epochs:
the published placement and generation, the drift anchors (demand at
each object's last re-place), the cumulative bills as the exact floats
the running daemon accumulated (so a restarted daemon keeps summing in
the same order and lands on the bit-identical total), the per-object
demand totals, and the still-unsealed pending counters -- a daemon
killed mid-batch resumes with the half-window intact instead of
dropping it.

Storage rides :func:`repro.serialize.save_array_archive` (compressed
NPZ + canonical-JSON header, ``allow_pickle=False`` on load), with the
placement and the config embedded through the same
``ragged_to_arrays`` / ``PlanConfig.to_dict`` forms every other
artifact uses.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import PlanConfig
from ..serialize import (
    load_array_archive,
    ragged_from_arrays,
    ragged_to_arrays,
    save_array_archive,
)

__all__ = [
    "CheckpointError",
    "DaemonCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
]

_FORMAT = "repro-serve-checkpoint"

#: What reading a damaged archive raises: a truncated or empty file, a
#: corrupt member, a wrong header, a missing array or header key.
_UNREADABLE = (zipfile.BadZipFile, zlib.error, EOFError, KeyError, TypeError, ValueError)


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read completely: truncated,
    empty, corrupt, of another format, or missing an array or header
    key.  Nothing is restored from such a file."""


@dataclass(frozen=True)
class DaemonCheckpoint:
    """One daemon's frozen resume state (see the module docstring)."""

    generation: int
    epochs_published: int
    events_ingested: int
    copy_sets: tuple[tuple[int, ...], ...]
    serve_cost: float
    migration_cost: float
    last_migration: float
    base_fr: np.ndarray | None       # drift anchors; None before 1st solve
    base_fw: np.ndarray | None
    pending_fr: np.ndarray           # unsealed batch-window counters
    pending_fw: np.ndarray
    totals_read: np.ndarray          # cumulative per-object event counts
    totals_write: np.ndarray
    config: dict                     # PlanConfig.to_dict() provenance

    @property
    def num_objects(self) -> int:
        return len(self.copy_sets)

    @property
    def num_nodes(self) -> int:
        return int(self.pending_fr.shape[1])

    @property
    def primed(self) -> bool:
        return self.base_fr is not None

    def plan_config(self) -> PlanConfig:
        return PlanConfig.from_dict(self.config)


def save_checkpoint(cp: DaemonCheckpoint, path) -> None:
    """Atomically persist a checkpoint (write-then-rename, like the
    bench trial store: a kill mid-write leaves the old file intact)."""
    path = Path(path)
    nodes, offsets = ragged_to_arrays(cp.copy_sets)
    arrays = {
        "placement_nodes": nodes,
        "placement_offsets": offsets,
        "pending_fr": cp.pending_fr,
        "pending_fw": cp.pending_fw,
        "totals_read": cp.totals_read,
        "totals_write": cp.totals_write,
        # bills as float64 arrays: the NPZ round-trip is bit-exact,
        # which the warm-restart bit-identity guarantee leans on
        "bills": np.asarray(
            [cp.serve_cost, cp.migration_cost, cp.last_migration], dtype=float
        ),
    }
    if cp.base_fr is not None:
        arrays["base_fr"] = cp.base_fr
        arrays["base_fw"] = cp.base_fw
    meta = {
        "generation": cp.generation,
        "epochs_published": cp.epochs_published,
        "events_ingested": cp.events_ingested,
        "primed": cp.primed,
        "config": cp.config,
    }
    tmp = path.with_name(path.name + ".tmp.npz")
    save_array_archive(tmp, fmt=_FORMAT, meta=meta, arrays=arrays)
    tmp.replace(path)


def load_checkpoint(path) -> DaemonCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError`, naming the path, for any file it
    cannot read completely; a missing file raises ``FileNotFoundError``.
    """
    try:
        return _read_checkpoint(path)
    except _UNREADABLE as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _read_checkpoint(path) -> DaemonCheckpoint:
    meta, arrays = load_array_archive(path, fmt=_FORMAT)
    primed = bool(meta["primed"])
    bills = np.asarray(arrays["bills"], dtype=float)
    return DaemonCheckpoint(
        generation=int(meta["generation"]),
        epochs_published=int(meta["epochs_published"]),
        events_ingested=int(meta["events_ingested"]),
        copy_sets=ragged_from_arrays(
            arrays["placement_nodes"], arrays["placement_offsets"]
        ),
        serve_cost=float(bills[0]),
        migration_cost=float(bills[1]),
        last_migration=float(bills[2]),
        base_fr=np.asarray(arrays["base_fr"], dtype=float) if primed else None,
        base_fw=np.asarray(arrays["base_fw"], dtype=float) if primed else None,
        pending_fr=np.asarray(arrays["pending_fr"], dtype=float),
        pending_fw=np.asarray(arrays["pending_fw"], dtype=float),
        totals_read=np.asarray(arrays["totals_read"], dtype=np.int64),
        totals_write=np.asarray(arrays["totals_write"], dtype=np.int64),
        config=dict(meta["config"]),
    )
