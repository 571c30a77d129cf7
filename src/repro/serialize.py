"""Persist problem instances and placements to JSON / NPZ.

The API layer's artifacts must survive a process boundary: a catalog
placed today is billed, audited or replayed tomorrow.  This module is
the single implementation of that persistence, shared by
:class:`~repro.api.PlanReport` and the ``plan --save/--load`` CLI:

* :func:`save_instance` / :func:`load_instance` round-trip a
  :class:`~repro.core.instance.DataManagementInstance` *including its
  distance backend* -- the dense :class:`~repro.graphs.metric.Metric`
  stores its closure matrix, the :class:`~repro.graphs.backend.LazyMetric`
  stores only its CSR adjacency -- so a reloaded instance answers every
  distance query bit-identically and re-placing it reproduces the exact
  copy sets (property-tested in ``tests/test_serialize.py``).
* :func:`placement_to_arrays` / :func:`placement_from_arrays` flatten the
  ragged copy sets into two integer arrays (concatenated nodes +
  offsets), the NPZ-friendly columnar form.

Formats are chosen by suffix: ``*.npz`` (compact, binary-exact) or
``*.json`` (diff-able; floats round-trip exactly through ``repr``).
"""

from __future__ import annotations

import json
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .core.instance import DataManagementInstance
from .core.placement import Placement
from .graphs.backend import LazyMetric
from .graphs.metric import Metric
from .graphs.partition import Partition

__all__ = [
    "save_instance",
    "load_instance",
    "instance_to_dict",
    "instance_from_dict",
    "partition_to_dict",
    "partition_from_dict",
    "save_partition",
    "load_partition",
    "placement_to_arrays",
    "placement_from_arrays",
    "ragged_to_arrays",
    "ragged_from_arrays",
    "save_array_archive",
    "load_array_archive",
    "open_archive",
    "canonical_payload",
    "canonical_json_dumps",
]

_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# canonical JSON: the byte-deterministic artifact form
# ----------------------------------------------------------------------
def canonical_payload(data):
    """Recursively normalize ``data`` into plain JSON types.

    The canonical form is what :func:`canonical_json_dumps` serializes
    and what :func:`repro.bench.trials.config_hash` digests, so every
    ambiguity a Python value could smuggle into the bytes is resolved
    here: numpy scalars become Python scalars, tuples become lists
    (JSON has no tuple, so a round-trip would otherwise change the
    value), mapping keys are coerced to ``str`` and negative zero
    collapses onto ``0.0``.  Anything without a JSON form (objects,
    sets, byte strings) is a hard ``TypeError`` -- a trial config that
    cannot round-trip must not silently hash by ``repr``.
    """
    if isinstance(data, dict):
        out = {}
        for key, value in data.items():
            skey = key if isinstance(key, str) else str(key)
            if skey in out:
                raise ValueError(f"duplicate canonical key {skey!r}")
            out[skey] = canonical_payload(value)
        return out
    if isinstance(data, (list, tuple)):
        return [canonical_payload(v) for v in data]
    if isinstance(data, np.ndarray):
        return [canonical_payload(v) for v in data.tolist()]
    if isinstance(data, (bool, np.bool_)):
        return bool(data)
    if isinstance(data, (int, np.integer)):
        return int(data)
    if isinstance(data, (float, np.floating)):
        value = float(data)
        return 0.0 if value == 0.0 else value  # -0.0 -> 0.0
    if data is None or isinstance(data, str):
        return data
    raise TypeError(
        f"{type(data).__name__} value {data!r} has no canonical JSON form"
    )


def canonical_json_dumps(data, *, indent: int | None = 2) -> str:
    """Serialize ``data`` as byte-deterministic JSON.

    Keys are sorted, floats use Python's shortest round-trip ``repr``
    (identical on every IEEE-754 platform since 3.1), and the payload is
    normalized through :func:`canonical_payload` first -- so two equal
    values always produce identical bytes, regardless of dict insertion
    order, tuple-vs-list spelling or numpy scalar types.  This is the
    writer behind ``BENCH_*.json`` artifacts and the trial cache, whose
    regression gates diff bytes.
    """
    return json.dumps(canonical_payload(data), indent=indent, sort_keys=True)


def artifact_suffix(path: Path) -> str:
    """The normalized persistence format of ``path`` -- ``".json"`` or
    ``".npz"``.  Anything else is a hard error: ``np.savez`` would
    silently append ``.npz`` on save and the matching load would then
    miss the file, breaking the round-trip contract."""
    suffix = path.suffix.lower()
    if suffix not in (".json", ".npz"):
        raise ValueError(
            f"unsupported artifact suffix {path.suffix!r} on {path}; "
            "use .json or .npz"
        )
    return suffix


# ----------------------------------------------------------------------
# placements <-> columnar arrays
# ----------------------------------------------------------------------
def placement_to_arrays(placement: Placement) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ragged copy sets: ``(concatenated nodes, offsets)``.

    ``offsets`` has length ``m + 1``; object ``i``'s copies are
    ``nodes[offsets[i]:offsets[i + 1]]``.
    """
    sizes = [len(s) for s in placement.copy_sets]
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    nodes = np.fromiter(
        (v for s in placement.copy_sets for v in s), dtype=np.int64,
        count=int(offsets[-1]),
    )
    return nodes, offsets


def placement_from_arrays(nodes: np.ndarray, offsets: np.ndarray) -> Placement:
    nodes = np.asarray(nodes, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    return Placement(
        tuple(
            tuple(int(v) for v in nodes[offsets[i]:offsets[i + 1]])
            for i in range(offsets.size - 1)
        )
    )


# ----------------------------------------------------------------------
# metric payloads
# ----------------------------------------------------------------------
def _metric_payload(metric) -> dict:
    if isinstance(metric, Metric):
        return {"metric_kind": "dense", "dist": metric.dist}
    if isinstance(metric, LazyMetric):
        adj = metric.adjacency
        return {
            "metric_kind": "lazy",
            "adj_data": adj.data,
            "adj_indices": adj.indices,
            "adj_indptr": adj.indptr,
            "adj_n": np.int64(metric.n),
        }
    raise TypeError(
        f"cannot serialize metric of type {type(metric).__name__}; "
        "supported backends: Metric (dense), LazyMetric"
    )


def _metric_from_payload(kind: str, payload: dict):
    if kind == "dense":
        return Metric(np.asarray(payload["dist"], dtype=float), validate=False)
    if kind == "lazy":
        n = int(payload["adj_n"])
        adj = csr_matrix(
            (
                np.asarray(payload["adj_data"], dtype=float),
                np.asarray(payload["adj_indices"], dtype=np.int32),
                np.asarray(payload["adj_indptr"], dtype=np.int32),
            ),
            shape=(n, n),
        )
        return LazyMetric(adj, validate=False)
    raise ValueError(f"unknown metric_kind {kind!r}")


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: DataManagementInstance) -> dict:
    """JSON-ready dict form (nested lists; exact float round-trip)."""
    payload = _metric_payload(instance.metric)
    metric = {
        k: (v.tolist() if isinstance(v, np.ndarray) else int(v))
        for k, v in payload.items()
        if k != "metric_kind"
    }
    return {
        "format": "repro-instance",
        "version": _FORMAT_VERSION,
        "metric_kind": payload["metric_kind"],
        "metric": metric,
        "storage_costs": instance.storage_costs.tolist(),
        "read_freq": instance.read_freq.tolist(),
        "write_freq": instance.write_freq.tolist(),
        "object_names": list(instance.object_names),
        "object_sizes": instance.object_sizes.tolist(),
    }


def instance_from_dict(data: dict) -> DataManagementInstance:
    if data.get("format") != "repro-instance":
        raise ValueError("not a serialized DataManagementInstance")
    metric = _metric_from_payload(data["metric_kind"], data["metric"])
    return DataManagementInstance(
        metric,
        np.asarray(data["storage_costs"], dtype=float),
        np.asarray(data["read_freq"], dtype=float),
        np.asarray(data["write_freq"], dtype=float),
        object_names=tuple(data["object_names"]),
        object_sizes=np.asarray(data["object_sizes"], dtype=float),
    )


def partition_to_dict(partition: Partition) -> dict:
    """JSON-ready dict form of a :class:`~repro.graphs.partition.Partition`."""
    return {
        "format": "repro-partition",
        "version": _FORMAT_VERSION,
        "shards": [list(s) for s in partition.shards],
        "portals": [list(p) for p in partition.portals],
        "quotient": partition.quotient.tolist(),
    }


def partition_from_dict(data: dict) -> Partition:
    if data.get("format") != "repro-partition":
        raise ValueError("not a serialized Partition")
    return Partition(
        shards=tuple(tuple(int(v) for v in s) for s in data["shards"]),
        portals=tuple(tuple(int(v) for v in p) for p in data["portals"]),
        quotient=np.asarray(data["quotient"], dtype=float),
    )


def ragged_to_arrays(groups) -> tuple[np.ndarray, np.ndarray]:
    """Flatten any ragged int-group sequence: ``(concatenated, offsets)``.

    The shared encoding behind :func:`placement_to_arrays`, partition
    archives and the serving daemon's warm-state checkpoints; group
    ``i`` is ``nodes[offsets[i]:offsets[i + 1]]``.
    """
    sizes = [len(g) for g in groups]
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    nodes = np.fromiter(
        (v for g in groups for v in g), dtype=np.int64, count=int(offsets[-1])
    )
    return nodes, offsets


def ragged_from_arrays(nodes, offsets) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`ragged_to_arrays` (tuples of plain ints)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    return tuple(
        tuple(int(v) for v in nodes[offsets[i]:offsets[i + 1]])
        for i in range(offsets.size - 1)
    )


def save_array_archive(path, *, fmt: str, meta: dict, arrays: dict) -> None:
    """Write ``*.npz`` with a canonical-JSON ``meta`` record (the shared
    archive idiom of partitions, instances, plan reports and the serving
    daemon's warm-state checkpoints).

    ``fmt`` tags the archive so :func:`load_array_archive` can reject a
    file of the wrong kind with a named error instead of a KeyError;
    ``meta`` must be canonical-JSON-able (:func:`canonical_payload`
    semantics, so a non-JSON value is a hard ``TypeError`` at save time,
    not a corrupt archive at load time).
    """
    path = Path(path)
    if artifact_suffix(path) != ".npz":
        raise ValueError(f"array archives are .npz files, got {path.name}")
    if "meta" in arrays:
        raise ValueError("'meta' is reserved for the archive header")
    header = {"format": str(fmt), "version": _FORMAT_VERSION}
    header.update(canonical_payload(meta))
    np.savez_compressed(
        path, meta=np.str_(canonical_json_dumps(header, indent=None)), **arrays
    )


#: What reading a damaged ``*.npz`` raises: a truncated or non-zip file
#: (``BadZipFile``), an empty one (``EOFError``), a corrupt member.
_DAMAGED = (zipfile.BadZipFile, zlib.error, EOFError)


@contextmanager
def open_archive(path):
    """Open an ``*.npz`` archive for reading (``allow_pickle=False``).

    The one way this package reads an archive.  The file is opened here,
    not by ``np.load``, so it is closed even when the archive turns out
    to be unreadable (``np.load`` leaks its own handle when the zip
    directory is damaged).  A damaged archive -- truncated, empty, not
    an archive, or with a corrupt member -- raises ``ValueError`` naming
    the path; a missing file raises ``FileNotFoundError``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except (*_DAMAGED, ValueError) as exc:
            raise _damaged(path, exc) from exc
        with archive:
            try:
                yield archive
            except _DAMAGED as exc:
                raise _damaged(path, exc) from exc


def _damaged(path: Path, exc: Exception) -> ValueError:
    return ValueError(f"cannot read archive {path}: {type(exc).__name__}: {exc}")


def load_array_archive(path, *, fmt: str) -> tuple[dict, dict]:
    """Read an archive written by :func:`save_array_archive`; returns
    ``(meta, arrays)`` with the format/version header checked."""
    path = Path(path)
    with open_archive(path) as archive:
        meta = json.loads(str(archive["meta"]))
        if meta.get("format") != fmt:
            raise ValueError(
                f"{path} holds a {meta.get('format')!r} archive, "
                f"expected {fmt!r}"
            )
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"{path} has format version {meta.get('version')!r}, "
                f"this build reads version {_FORMAT_VERSION}"
            )
        arrays = {k: np.asarray(archive[k]) for k in archive.files if k != "meta"}
    return meta, arrays


def save_partition(partition: Partition, path) -> None:
    """Write a partition to ``*.npz`` or ``*.json`` (by suffix) -- so an
    expensive decomposition of a big network is computed once and reused
    across planning runs."""
    path = Path(path)
    if artifact_suffix(path) == ".json":
        path.write_text(json.dumps(partition_to_dict(partition)) + "\n")
        return
    shard_nodes, shard_offsets = ragged_to_arrays(partition.shards)
    portal_nodes, portal_offsets = ragged_to_arrays(partition.portals)
    meta = {"format": "repro-partition", "version": _FORMAT_VERSION}
    np.savez_compressed(
        path,
        meta=np.str_(json.dumps(meta)),
        shard_nodes=shard_nodes,
        shard_offsets=shard_offsets,
        portal_nodes=portal_nodes,
        portal_offsets=portal_offsets,
        quotient=partition.quotient,
    )


def load_partition(path) -> Partition:
    """Read a partition written by :func:`save_partition`."""
    path = Path(path)
    if artifact_suffix(path) == ".json":
        return partition_from_dict(json.loads(path.read_text()))
    with open_archive(path) as archive:
        meta = json.loads(str(archive["meta"]))
        if meta.get("format") != "repro-partition":
            raise ValueError(f"{path} is not a serialized partition")
        return Partition(
            shards=ragged_from_arrays(
                archive["shard_nodes"], archive["shard_offsets"]
            ),
            portals=ragged_from_arrays(
                archive["portal_nodes"], archive["portal_offsets"]
            ),
            quotient=np.asarray(archive["quotient"], dtype=float),
        )


def save_instance(instance: DataManagementInstance, path) -> None:
    """Write an instance to ``*.npz`` or ``*.json`` (by suffix)."""
    path = Path(path)
    if artifact_suffix(path) == ".json":
        path.write_text(json.dumps(instance_to_dict(instance)) + "\n")
        return
    payload = _metric_payload(instance.metric)
    meta = {
        "format": "repro-instance",
        "version": _FORMAT_VERSION,
        "metric_kind": payload.pop("metric_kind"),
        "object_names": list(instance.object_names),
    }
    np.savez_compressed(
        path,
        meta=np.str_(json.dumps(meta)),
        storage_costs=instance.storage_costs,
        read_freq=instance.read_freq,
        write_freq=instance.write_freq,
        object_sizes=instance.object_sizes,
        **payload,
    )


def load_instance(path) -> DataManagementInstance:
    """Read an instance written by :func:`save_instance`."""
    path = Path(path)
    if artifact_suffix(path) == ".json":
        return instance_from_dict(json.loads(path.read_text()))
    with open_archive(path) as archive:
        meta = json.loads(str(archive["meta"]))
        if meta.get("format") != "repro-instance":
            raise ValueError(f"{path} is not a serialized instance")
        metric = _metric_from_payload(meta["metric_kind"], archive)
        return DataManagementInstance(
            metric,
            archive["storage_costs"],
            archive["read_freq"],
            archive["write_freq"],
            object_names=tuple(meta["object_names"]),
            object_sizes=archive["object_sizes"],
        )
