"""Event-level simulation: executable cost model and dynamic strategies.

* :mod:`events` -- columnar :class:`RequestLog` event streams (vectorized
  expansion of frequencies; iterates as :class:`Request` objects);
* :mod:`paths` -- bounded LRU of per-source predecessor arrays, the
  shared hop-by-hop routing state;
* :mod:`simulator` -- replay a log against a static placement on the real
  graph: vectorized billing by default, hop-by-hop routing (per-link
  load) on request (validates the closed-form accounting, E11);
* :mod:`online` -- a count-based dynamic strategy for the online-vs-static
  comparison (Experiment E12);
* :mod:`replanner` -- epoch-wise static re-solving with explicit
  migration cost, the static/online bridge (Experiment E15), and the
  one epoch step it shares with the serving daemon.
"""

from .events import READ, WRITE, Request, RequestLog, request_log_from_instance
from .online import OnlineCountingStrategy
from .paths import PathCache
from .replanner import (
    EpochOutcome,
    EpochReplanner,
    EpochReport,
    EpochStep,
    ReplanResult,
)
from .simulator import NetworkSimulator, SimulationReport

__all__ = [
    "Request",
    "RequestLog",
    "READ",
    "WRITE",
    "request_log_from_instance",
    "PathCache",
    "NetworkSimulator",
    "SimulationReport",
    "OnlineCountingStrategy",
    "EpochReplanner",
    "EpochStep",
    "EpochOutcome",
    "EpochReport",
    "ReplanResult",
]
