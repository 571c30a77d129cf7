"""File-based batch hand-off for the CLI daemon (no network needed).

A *spool* is a directory of request-batch files a producer drops and
``repro serve run`` ingests in sorted-name order (name them
``00001.jsonl``, ``00002.jsonl``, ... for a deterministic stream).
Two formats, chosen by suffix:

* ``*.jsonl`` / ``*.json`` -- one event per line,
  ``{"kind": "read" | "write", "node": 3, "obj": 7}`` (human-writable);
* ``*.npz`` -- the columnar :class:`~repro.simulate.events.RequestLog`
  arrays (``kind``/``node``/``obj``), for big batches.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..serialize import open_archive
from ..simulate.events import KIND_READ, KIND_WRITE, RequestLog

__all__ = ["read_spool_file", "write_spool_file", "spool_files"]

_KIND_NAMES = {KIND_READ: "read", KIND_WRITE: "write"}
_KIND_CODES = {"read": KIND_READ, "write": KIND_WRITE}
_SUFFIXES = (".jsonl", ".json", ".npz")


def write_spool_file(log: RequestLog, path) -> None:
    """Write one batch in the format the suffix picks."""
    path = Path(path)
    if path.suffix == ".npz":
        np.savez_compressed(
            path,
            meta=np.str_(json.dumps({"format": "repro-spool"})),
            kind=log.kind, node=log.node, obj=log.obj,
        )
        return
    if path.suffix not in (".jsonl", ".json"):
        raise ValueError(
            f"spool files are {', '.join(_SUFFIXES)}; got {path.name}"
        )
    lines = [
        json.dumps(
            {"kind": _KIND_NAMES[int(k)], "node": int(v), "obj": int(o)}
        )
        for k, v, o in zip(log.kind.tolist(), log.node.tolist(), log.obj.tolist())
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def read_spool_file(path) -> RequestLog:
    """Read one batch file back as a columnar log."""
    path = Path(path)
    if path.suffix == ".npz":
        with open_archive(path) as archive:
            meta = json.loads(str(archive["meta"]))
            if meta.get("format") != "repro-spool":
                raise ValueError(f"{path} is not a spooled request batch")
            return RequestLog(
                kind=np.asarray(archive["kind"]),
                node=np.asarray(archive["node"]),
                obj=np.asarray(archive["obj"]),
            )
    if path.suffix not in (".jsonl", ".json"):
        raise ValueError(
            f"spool files are {', '.join(_SUFFIXES)}; got {path.name}"
        )
    kinds: list[int] = []
    nodes: list[int] = []
    objs: list[int] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
            kinds.append(_KIND_CODES[event["kind"]])
            nodes.append(int(event["node"]))
            objs.append(int(event["obj"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}:{lineno}: not a spool event "
                '({"kind": "read"|"write", "node": int, "obj": int}): '
                f"{line[:80]}"
            ) from exc
    return RequestLog(
        kind=np.asarray(kinds, dtype=np.uint8),
        node=np.asarray(nodes, dtype=np.int64),
        obj=np.asarray(objs, dtype=np.int64),
    )


def spool_files(directory) -> list[Path]:
    """Batch files of a spool directory, in sorted-name (ingest) order."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"spool directory {directory} does not exist")
    return sorted(
        p for p in directory.iterdir()
        if p.is_file() and p.suffix in _SUFFIXES
    )
