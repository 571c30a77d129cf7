"""The live serving subsystem: a long-lived placement daemon.

Everything before this package answers *"where should copies live for a
fixed demand snapshot?"*; :class:`PlacementDaemon` keeps that answer
fresh against a live request stream -- ingest batches, detect drift,
replan in the background, publish atomically, checkpoint warm state --
while foreground lookups keep answering from one immutable
:class:`ServingState` generation at a time.  See the
:mod:`repro.serve.daemon` docstring for the loop's contract and
ARCHITECTURE.md for the dataflow.
"""

from .checkpoint import (
    CheckpointError,
    DaemonCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .daemon import PlacementDaemon
from .replay import compare_with_replanner, replay_workload
from .spool import read_spool_file, spool_files, write_spool_file
from .state import LookupResult, ServingState

__all__ = [
    "PlacementDaemon",
    "ServingState",
    "LookupResult",
    "CheckpointError",
    "DaemonCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "replay_workload",
    "compare_with_replanner",
    "read_spool_file",
    "write_spool_file",
    "spool_files",
]
