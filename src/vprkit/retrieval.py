"""Descriptor maps and exact top-K nearest-neighbor lookup (L2)."""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, ImageRecord
from .embedding import EmbeddingModel, _encode_rows
from .errors import (
    EmptyReferences,
    FormatError,
    KTooLarge,
    ModelMismatch,
    NonFiniteValue,
    ShapeError,
)
from .manifest import BinaryReader, atomic_write_bytes

_MAP_MAGIC = b"VPRM"
_MAP_VERSION = 1
_FLAG_NORMALIZED = 1
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_ENCODE_BLOCK = 64


@dataclass
class DescriptorMap:
    """The offline map: reference descriptors, poses, ids, provenance.

    The first search caches the row norms; do not modify the descriptors
    in place after it."""

    descriptors: np.ndarray  # (N, D) float32
    poses: np.ndarray  # (N, 2) float64
    ids: list[str]
    model_fingerprint: bytes  # 32 bytes

    @property
    def size(self) -> int:
        return self.descriptors.shape[0]

    @property
    def descriptor_dim(self) -> int:
        return self.descriptors.shape[1]

    @functools.cached_property
    def _norms(self) -> tuple[np.ndarray, float]:
        """Squared row norms in float64 and the largest row norm, computed
        on first use; raises NonFiniteValue naming the first row with a NaN
        or infinity."""
        sq = np.einsum("ij,ij->i", self.descriptors, self.descriptors, dtype=np.float64)
        finite = np.isfinite(sq)
        if not finite.all():
            raise NonFiniteValue(f"map row {int(np.argmin(finite))} is not finite")
        return sq, float(np.sqrt(sq.max(initial=0.0)))


@dataclass
class RetrievalResult:
    """Ranked references for one query, ascending distance."""

    query_id: str
    ranked: list[tuple[int, float]]  # (reference index, L2 distance)


def _encode(model: EmbeddingModel, records: list[ImageRecord]) -> np.ndarray:
    """(N, D) descriptors of the records' raws, each row ``forward``'s bits,
    encoded _ENCODE_BLOCK rows at a time so that the temporaries stay small
    beside a large map's images."""
    out = np.empty((len(records), model.output_dim))
    for i in range(0, len(records), _ENCODE_BLOCK):
        block = records[i : i + _ENCODE_BLOCK]
        out[i : i + len(block)] = _encode_rows(model, np.stack([rec.raw for rec in block]))
    return out


def build_map(dataset: Dataset, model: EmbeddingModel) -> DescriptorMap:
    """Encode every reference image; rows follow the dataset's id order."""
    if not dataset.references:
        raise EmptyReferences("cannot build a map from zero references")
    return DescriptorMap(
        descriptors=_encode(model, dataset.references).astype(np.float32),
        poses=np.asarray(dataset.reference_poses, dtype=np.float64),
        ids=[rec.id for rec in dataset.references],
        model_fingerprint=model.fingerprint(),
    )


def knn(dmap: DescriptorMap, query: np.ndarray, k: int, query_id: str = "") -> RetrievalResult:
    """Exact k-nearest references under L2 distance.

    Distances are sqrt(sum((r - q)**2)) accumulated in float64 over the
    float32 rows; ties break toward the lower reference index.  The
    result equals scoring every row that way, bit for bit, but only a
    shortlist is scored in float64:

    1. Every row r gets the score |r|^2 - 2 r.q32: a float32 GEMV against
       q32 = float32(q), and |r|^2 in float64, cached per map.  It differs
       from |r - q|^2 - |q|^2 by less than E = 2 (g_D (1 + u) + u) |q|
       max|r| + F.  Here u = 2^-24; g_D = D u / (1 - D u) bounds the
       error of a D-term float32 dot product (Higham, "Accuracy and
       Stability of Numerical Algorithms", 2nd ed., section 3.1); the lone
       u covers rounding q to float32.  F = (2D + 10) 2^-53 (|q| +
       max|r|)^2 + D (1 + |q| + max|r|) 2^-124 covers the float64 norms
       and subtraction, the rounding of the float64 distances in step 2,
       and float32 underflow.
    2. Every row scoring at most the k-th smallest score + 2E gets its
       float64 distance, and ``_rank`` returns the k nearest of those.

    No true neighbour is dropped: if row r is in the top k but scores
    above the k-th smallest score, one of the k lowest-scoring rows, j,
    is not, so d(r) <= d(j) and score(r) <= score(j) + 2E.  Where a
    float32 product could overflow, E is infinite and every row is
    re-ranked.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (dmap.descriptor_dim,):
        raise ShapeError(
            f"query has shape {query.shape}, map dim is {dmap.descriptor_dim}"
        )
    if not np.isfinite(query).all():
        raise NonFiniteValue("query descriptor is not finite")
    n, d = dmap.descriptors.shape
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside [1, {n}]")
    sq, rmax = dmap._norms
    qn = float(np.sqrt(np.einsum("i,i", query, query)))
    if qn * max(rmax, 1.0) > 2.0**120:  # a float32 product could overflow
        err, q32 = np.inf, np.zeros(d, np.float32)
    else:
        g = d * _U32 / (1 - d * _U32)
        err = (
            2 * (g * (1 + _U32) + _U32) * qn * rmax
            + (2 * d + 10) * _U64 * (qn + rmax) ** 2
            + d * (1 + qn + rmax) * 2.0**-124
        )
        q32 = query.astype(np.float32)
    scores = sq - 2 * (dmap.descriptors @ q32)
    kth = np.partition(scores, k - 1)[k - 1]
    cand = np.flatnonzero(scores <= kth + 2 * err)
    idx, dists = _rank(dmap.descriptors, query, cand, k)
    return RetrievalResult(query_id=query_id, ranked=list(zip(idx.tolist(), dists.tolist())))


def _rank(
    rows: np.ndarray, query: np.ndarray, cand: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k rows among ``cand`` nearest the float64 query, nearest first:
    their indices and sqrt(sum((r - q)**2)) distances in float64 (float32
    rows widen exactly), ties toward the lower index.  knn re-ranks its
    shortlist with it and RSF mining picks its hard negatives with it."""
    diffs = rows[cand] - query
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((cand, dists))[:k]
    return cand[order], dists[order]


def retrieve_all(
    dmap: DescriptorMap, dataset: Dataset, model: EmbeddingModel, k: int
) -> list[RetrievalResult]:
    """Encode every query of the dataset and run knn for each; raises
    ModelMismatch unless the map was built by this model."""
    if dmap.model_fingerprint != model.fingerprint():
        raise ModelMismatch(f"map built by model {dmap.model_fingerprint.hex()}, not this one")
    descs = _encode(model, dataset.queries)
    return [knn(dmap, d, k, query_id=rec.id) for rec, d in zip(dataset.queries, descs)]


def save_map(dmap: DescriptorMap, path: str | Path) -> None:
    """Binary layout: magic VPRM, version u16, D u32, N u64, flags u16
    (bit 0, unit-norm rows, is always set), N x D float32 LE, N x 2
    float64 poses, length-prefixed UTF-8 ids, 32-byte model fingerprint.
    Written atomically.  Poses other than (N, 2), or a count of ids other
    than N, is a ShapeError; a row that load_map would refuse, for a
    non-finite descriptor or pose or an id that is not UTF-8, is a
    FormatError naming it.  Each is raised before any byte is written."""
    n, d = dmap.descriptors.shape
    if np.shape(dmap.poses) != (n, 2) or len(dmap.ids) != n:
        raise ShapeError(
            f"a map of {n} rows needs ({n}, 2) poses and {n} ids, "
            f"got {np.shape(dmap.poses)} poses and {len(dmap.ids)} ids"
        )
    descriptors = np.ascontiguousarray(dmap.descriptors, dtype="<f4")
    poses = np.ascontiguousarray(dmap.poses, dtype="<f8")
    _check_rows(descriptors, poses)
    ids = []
    for i, rid in enumerate(dmap.ids):
        try:
            raw = rid.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"id of row {i} is not UTF-8") from None
        if len(raw) > 0xFFFF:
            raise FormatError(f"id of row {i} is {len(raw)} UTF-8 bytes, at most 65535 fit")
        ids.append(struct.pack("<H", len(raw)))
        ids.append(raw)
    if len(dmap.model_fingerprint) != 32:
        raise FormatError("model fingerprint must be 32 bytes")
    atomic_write_bytes(
        Path(path),
        _MAP_MAGIC,
        struct.pack("<HIQH", _MAP_VERSION, d, n, _FLAG_NORMALIZED),
        descriptors,
        poses,
        b"".join(ids),
        dmap.model_fingerprint,
    )


def _check_rows(descriptors: np.ndarray, poses: np.ndarray) -> None:
    """FormatError naming the first row with a non-finite descriptor or
    pose.  The row is looked for only when the whole test fails."""
    if np.isfinite(descriptors).all() and np.isfinite(poses).all():
        return
    finite = np.isfinite(descriptors).all(axis=1) & np.isfinite(poses).all(axis=1)
    raise FormatError(f"row {int(np.argmin(finite))} has a non-finite descriptor or pose")


def load_map(path: str | Path) -> DescriptorMap:
    """Inverse of save_map; bit-exact round trip.  Bytes after the
    fingerprint are a FormatError."""
    r = BinaryReader(Path(path).read_bytes(), _MAP_MAGIC, _MAP_VERSION)
    d, n, _flags = r.unpack("<IQH")
    # Flat until the poses are read: with d = 0, an n beyond the file must
    # be a TruncatedError, not an unrepresentable (n, 0) shape.
    desc = r.array("<f4", n * d)
    poses = r.array("<f8", n, 2)
    desc = desc.reshape(n, d)
    _check_rows(desc, poses)
    ids = []
    for i in range(n):
        (length,) = r.unpack("<H")
        try:
            ids.append(r.take(length).decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"id of row {i} is not valid UTF-8") from None
    fingerprint = r.take(32)
    r.end("fingerprint")
    return DescriptorMap(
        descriptors=desc.copy(),
        poses=poses.copy(),
        ids=ids,
        model_fingerprint=fingerprint,
    )
