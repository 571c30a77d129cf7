"""Request logs: explicit event streams realizing an instance's frequencies.

The static model summarizes a billing period by request *frequencies*;
the simulator (and the dynamic strategies) need the actual event stream.
This module provides the columnar :class:`RequestLog` -- a
struct-of-arrays event stream (``kind`` / ``node`` / ``obj`` numpy
arrays) generated *vectorized* from integer ``fr``/``fw`` matrices, so a
10k-object catalog's billing period expands in milliseconds instead of
building millions of Python objects.  The log still iterates as
:class:`Request` events (the online strategy and older callers consume
it unchanged), and :func:`request_log_from_instance` now returns one.

Event order: with ``seed=None`` the log is canonical (object, node,
reads before writes); with a seed it is deterministically shuffled --
bit-identical to permuting the per-event list, so seeded experiment
streams are unchanged.  Frequencies are counts, so any interleaving
realizes the same static cost; the order only matters to *online*
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.instance import DataManagementInstance

__all__ = ["Request", "RequestLog", "READ", "WRITE", "request_log_from_instance"]

READ = "read"
WRITE = "write"

#: Columnar kind codes (``RequestLog.kind`` entries).
KIND_READ = 0
KIND_WRITE = 1


@dataclass(frozen=True)
class Request:
    """One request event: ``kind`` is ``"read"`` or ``"write"``, issued at
    ``node`` for object ``obj``."""

    kind: str
    node: int
    obj: int

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValueError(f"kind must be 'read' or 'write', got {self.kind!r}")


class RequestLog:
    """Columnar event stream: parallel ``kind`` / ``node`` / ``obj`` arrays.

    ``kind[i]`` is :data:`KIND_READ` (0) or :data:`KIND_WRITE` (1);
    ``node[i]`` is the request home and ``obj[i]`` the object of event
    ``i``.  The struct-of-arrays layout is what makes catalog-scale
    replay possible: grouping a million events per (object, kind, node)
    is one ``bincount``, not a Python loop.

    Back compatibility: a log iterates as :class:`Request` events,
    supports ``len``/indexing/slicing, and compares equal by content --
    so every consumer of the old per-event lists keeps working.
    """

    __slots__ = ("kind", "node", "obj")

    def __init__(self, kind, node, obj) -> None:
        kind = np.asarray(kind, dtype=np.uint8)
        node = np.asarray(node, dtype=np.int64)
        obj = np.asarray(obj, dtype=np.int64)
        if not (kind.ndim == node.ndim == obj.ndim == 1):
            raise ValueError("kind/node/obj must be 1-D arrays")
        if not (kind.shape == node.shape == obj.shape):
            raise ValueError(
                f"kind/node/obj must have equal lengths, got "
                f"{kind.shape}/{node.shape}/{obj.shape}"
            )
        if kind.size and int(kind.max()) > KIND_WRITE:
            raise ValueError("kind codes must be 0 (read) or 1 (write)")
        self.kind = kind
        self.node = node
        self.obj = obj

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_frequencies(
        cls,
        read_freq: np.ndarray,
        write_freq: np.ndarray,
        *,
        seed: int | None = None,
    ) -> "RequestLog":
        """Vectorized expansion of integer ``(m, n)`` frequency matrices.

        Equivalent -- event for event, including the seeded shuffle -- to
        expanding per-event ``Request`` objects in canonical order
        (object, node, reads before writes) and permuting the list, but
        built with two ``np.repeat`` calls instead of a Python loop.
        """
        fr = np.atleast_2d(np.asarray(read_freq, dtype=float))
        fw = np.atleast_2d(np.asarray(write_freq, dtype=float))
        if fr.shape != fw.shape:
            raise ValueError("read_freq and write_freq must have equal shapes")
        cls.check_counts(fr, fw)
        m, n = fr.shape
        fr_i = np.rint(fr).astype(np.int64).ravel()
        fw_i = np.rint(fw).astype(np.int64).ravel()
        # canonical order: per (object, node) cell, reads then writes --
        # interleave the read/write counts so one repeat yields the order
        counts = np.empty(2 * m * n, dtype=np.int64)
        counts[0::2] = fr_i
        counts[1::2] = fw_i
        slot = np.repeat(np.arange(2 * m * n, dtype=np.int64), counts)
        kind = (slot & 1).astype(np.uint8)
        cell = slot >> 1
        log = cls(kind, node=cell % n, obj=cell // n)
        if seed is not None:
            return log.shuffled(seed)
        return log

    @staticmethod
    def check_counts(read_freq: np.ndarray, write_freq: np.ndarray) -> None:
        """Raise :class:`ValueError` unless both matrices hold integer
        counts -- what :meth:`from_frequencies` can expand into events."""
        for freq in (read_freq, write_freq):
            if not np.allclose(freq, np.round(freq)):
                raise ValueError(
                    "request frequencies must be integer counts to expand "
                    "into a log"
                )

    @classmethod
    def from_instance(
        cls, instance: DataManagementInstance, *, seed: int | None = None
    ) -> "RequestLog":
        """Expand one instance's billing period into an event stream."""
        return cls.from_frequencies(
            instance.read_freq, instance.write_freq, seed=seed
        )

    @classmethod
    def from_requests(cls, events: Iterable[Request]) -> "RequestLog":
        """Columnarize an explicit sequence of :class:`Request` events."""
        events = list(events)
        kind = np.fromiter(
            (KIND_WRITE if r.kind == WRITE else KIND_READ for r in events),
            dtype=np.uint8, count=len(events),
        )
        node = np.fromiter((r.node for r in events), dtype=np.int64, count=len(events))
        obj = np.fromiter((r.obj for r in events), dtype=np.int64, count=len(events))
        return cls(kind, node, obj)

    @classmethod
    def coerce(cls, log) -> "RequestLog":
        """Accept a :class:`RequestLog` or any iterable of requests."""
        if isinstance(log, cls):
            return log
        return cls.from_requests(log)

    @staticmethod
    def concat(logs: Sequence["RequestLog"]) -> "RequestLog":
        """Concatenate logs in order (e.g. epoch streams into one run).

        ``concat([])`` is a well-typed empty log (``uint8`` kind codes,
        ``int64`` node/object columns -- the same dtypes every non-empty
        log carries), so zero-demand horizons flow through
        :meth:`~repro.workloads.dynamic.DynamicWorkload.full_log` and
        the simulators without special-casing.
        """
        logs = list(logs)
        if not logs:
            return RequestLog(
                np.zeros(0, dtype=np.uint8),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        return RequestLog(
            np.concatenate([lg.kind for lg in logs]),
            np.concatenate([lg.node for lg in logs]),
            np.concatenate([lg.obj for lg in logs]),
        )

    def shuffled(self, seed: int) -> "RequestLog":
        """Deterministically permuted copy (order for online strategies)."""
        perm = np.random.default_rng(seed).permutation(len(self))
        return RequestLog(self.kind[perm], self.node[perm], self.obj[perm])

    # ------------------------------------------------------------------
    # grouping / accounting kernels
    # ------------------------------------------------------------------
    def counts(self, num_objects: int, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Group the log per (object, kind, node) with one ``bincount``.

        Returns ``(reads, writes)`` integer matrices of shape
        ``(num_objects, num_nodes)`` -- the exact inverse of
        :meth:`from_frequencies`, and the input of the vectorized replay.
        """
        self.validate_for(num_objects, num_nodes)
        size = num_objects * num_nodes
        flat = self.obj * num_nodes + self.node
        is_write = self.kind == KIND_WRITE
        reads = np.bincount(flat[~is_write], minlength=size)
        writes = np.bincount(flat[is_write], minlength=size)
        return (
            reads.reshape(num_objects, num_nodes),
            writes.reshape(num_objects, num_nodes),
        )

    def counts_by_object(self, num_objects: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-object event totals: ``(reads, writes)`` length-``num_objects``
        integer vectors, one ``bincount`` per kind.

        The node axis of :meth:`counts` summed out -- what a demand
        counter (the serving daemon's per-object stats) needs, without
        materializing the ``(objects, nodes)`` matrices.
        """
        if len(self) and (
            int(self.obj.min()) < 0 or int(self.obj.max()) >= num_objects
        ):
            bad = int(self.obj.min()) if int(self.obj.min()) < 0 else int(self.obj.max())
            raise ValueError(f"request for unknown object {bad}")
        is_write = self.kind == KIND_WRITE
        reads = np.bincount(self.obj[~is_write], minlength=num_objects)
        writes = np.bincount(self.obj[is_write], minlength=num_objects)
        return reads, writes

    def validate_for(self, num_objects: int, num_nodes: int) -> None:
        """Check every event addresses a known object and node."""
        if len(self) == 0:
            return
        if int(self.obj.min()) < 0 or int(self.obj.max()) >= num_objects:
            bad = int(self.obj.min()) if int(self.obj.min()) < 0 else int(self.obj.max())
            raise ValueError(f"request for unknown object {bad}")
        if int(self.node.min()) < 0 or int(self.node.max()) >= num_nodes:
            bad = int(self.node.min()) if int(self.node.min()) < 0 else int(self.node.max())
            raise ValueError(f"request from unknown node {bad}")

    @property
    def num_reads(self) -> int:
        return int((self.kind == KIND_READ).sum())

    @property
    def num_writes(self) -> int:
        return int((self.kind == KIND_WRITE).sum())

    def iter_events(self) -> Iterator[tuple[bool, int, int]]:
        """Fast iteration as ``(is_write, node, obj)`` tuples -- the
        per-event consumers' loop without building ``Request`` objects."""
        return zip(
            (self.kind == KIND_WRITE).tolist(),
            self.node.tolist(),
            self.obj.tolist(),
        )

    # ------------------------------------------------------------------
    # sequence protocol (back compatibility with per-event lists)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.kind.size)

    def __iter__(self) -> Iterator[Request]:
        for is_write, node, obj in self.iter_events():
            yield Request(WRITE if is_write else READ, node, obj)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return RequestLog(self.kind[item], self.node[item], self.obj[item])
        i = int(item)
        return Request(
            WRITE if self.kind[i] == KIND_WRITE else READ,
            int(self.node[i]),
            int(self.obj[i]),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, RequestLog):
            return (
                np.array_equal(self.kind, other.kind)
                and np.array_equal(self.node, other.node)
                and np.array_equal(self.obj, other.obj)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable arrays; content equality only

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestLog({len(self)} events: {self.num_reads} reads, "
            f"{self.num_writes} writes)"
        )


def request_log_from_instance(
    instance: DataManagementInstance,
    *,
    seed: int | None = None,
) -> RequestLog:
    """Expand frequencies into an explicit event log.

    Frequencies must be integer-valued (the model's semantics; raises
    otherwise).  With ``seed=None`` the log is in canonical order (object,
    node, reads before writes); with a seed it is deterministically
    shuffled -- use this for online-strategy experiments where order
    matters.  Returns a columnar :class:`RequestLog`, which iterates as
    :class:`Request` events.
    """
    return RequestLog.from_instance(instance, seed=seed)
