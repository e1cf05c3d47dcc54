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
    check_count,
)
from .manifest import BinaryReader, atomic_write_bytes

_MAP_MAGIC = b"VPRM"
_MAP_VERSION = 1
_FLAG_NORMALIZED = 1
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
        """``_row_norms`` of the descriptors, computed on first use; raises
        NonFiniteValue naming the first row with a NaN or infinity."""
        sq, rmax = _row_norms(self.descriptors)
        if not np.isfinite(rmax):
            raise NonFiniteValue(f"map row {int(np.argmin(np.isfinite(sq)))} is not finite")
        return sq, rmax


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
    """Exact k-nearest references under L2 distance, as ``_nearest`` ranks."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (dmap.descriptor_dim,):
        raise ShapeError(
            f"query has shape {query.shape}, map dim is {dmap.descriptor_dim}"
        )
    return _search(dmap, query[None], k, [query_id])[0]


def _search(dmap: DescriptorMap, qs: np.ndarray, k: int, ids: list[str]) -> list[RetrievalResult]:
    """knn of each row of (Q, D) float64 queries; no query, no result."""
    if not ids:
        return []
    if not np.isfinite(qs).all():
        raise NonFiniteValue("query descriptor is not finite")
    if check_count(k, "k", 1, KTooLarge) > dmap.size:
        raise KTooLarge(f"k={k} outside [1, {dmap.size}]")
    _, rows, dists = _nearest(dmap.descriptors, qs, k, norms=dmap._norms)
    ranked = list(zip(rows.tolist(), dists.tolist()))  # k per query
    return [RetrievalResult(qid, ranked[i * k : i * k + k]) for i, qid in enumerate(ids)]


def _row_norms(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared row norms in float64 and the largest row norm."""
    sq = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    return sq, float(np.sqrt(sq.max(initial=0.0)))


def _nearest(
    rows: np.ndarray, queries: np.ndarray, k: int, candidates: np.ndarray | None = None,
    norms: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k >= 1 nearest (N, D) rows to each of Q >= 1 float64 queries, for
    knn, retrieve_all, evaluate_model and RSF mining, as flat (query, row,
    distance) arrays: by query, then distance sqrt(sum((r - q)**2)) in
    float64 (float32 rows widen exactly), then row.  ``candidates``, a
    (Q, N) bool mask, limits each query's rows; ``norms`` are
    ``_row_norms(rows)``.  Bit for bit that scans every candidate, but only
    a shortlist is scored in float64, _ENCODE_BLOCK queries at a time:

    1. One product in the rows' dtype T scores r by |r|^2 + r.T(-2q), |r|^2
       in float64 and +inf off the mask: |r - q|^2 - |q|^2 within E = a |q|
       max|r| + c (|q| + max|r|)^2 + t (1 + |q| + max|r|), |q| the block's
       norm.  a = 2 (g_D (1 + u) + u): u is T's unit roundoff, g_D = D u
       / (1 - D u) bounds a D-term dot product in T (Higham, "Accuracy and
       Stability of Numerical Algorithms", 2nd ed., section 3.1), the lone u
       rounding -2q to T.  c = (2D + 10) 2^-53 covers the float64 norms,
       subtraction and distances; t, 4D times T's smallest normal, underflow.
    2. Candidates not scoring above the k-th smallest score + 2E (or NaN)
       get float64 distances, and one lexsort ranks them.

    No true neighbour is dropped: if row r is in the top k but scores above
    the k-th smallest score, one of the k lowest-scoring rows, j, is not, so
    d(r) <= d(j) and score(r) <= score(j) + 2E.  Where |q| + max|r| is so
    large that a product in T could overflow, E is infinite and every
    candidate is re-ranked.
    """
    n, d = rows.shape
    k = min(k, n)
    sq, rmax = _row_norms(rows) if norms is None else norms
    info = np.finfo(rows.dtype)
    u, tiny = float(info.eps) / 2, float(info.tiny)
    a, c, t = 2 * (d * u / (1 - d * u) * (1 + u) + u), (2 * d + 10) * 2.0**-53, 4 * d * tiny
    found = []
    for start in range(0, len(queries), _ENCODE_BLOCK):
        q = queries[start : start + _ENCODE_BLOCK]
        qn = float(np.vdot(q, q)) ** 0.5  # the block's norm, at least each |q|
        wide = qn + rmax > 2.0 ** (info.maxexp // 2 - 4)  # a product in T could overflow
        err = np.inf if wide else a * qn * rmax + c * (qn + rmax) ** 2 + t * (1 + qn + rmax)
        q_t = np.zeros_like(q, rows.dtype) if wide else (-2 * q).astype(rows.dtype)
        scores = q_t @ rows.T + sq  # (B, N)
        if candidates is not None:
            scores = np.where(candidates[start : start + len(q)], scores, np.inf)
        keep = ~(scores > np.partition(scores, k - 1, axis=1)[:, k - 1 : k] + 2 * err)
        if candidates is not None:
            keep &= candidates[start : start + len(q)]
        qi, ri = np.divmod(np.flatnonzero(keep), n)
        diffs = rows[ri] - q[qi]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        # qi ascends, so each query's rows stay in place: keep the first k.
        top = np.lexsort((ri, dists, qi))[np.arange(len(qi)) - np.searchsorted(qi, qi) < k]
        found.append((qi[top] + start, ri[top], dists[top]))
    return found[0] if len(found) == 1 else tuple(map(np.concatenate, zip(*found)))


def retrieve_all(
    dmap: DescriptorMap, dataset: Dataset, model: EmbeddingModel, k: int
) -> list[RetrievalResult]:
    """Encode every query of the dataset and run knn for each; raises
    ModelMismatch unless the map was built by this model."""
    if dmap.model_fingerprint != model.fingerprint():
        raise ModelMismatch(f"map built by model {dmap.model_fingerprint.hex()}, not this one")
    return _search(dmap, _encode(model, dataset.queries), k, [q.id for q in dataset.queries])


def save_map(dmap: DescriptorMap, path: str | Path) -> None:
    """Binary layout: magic VPRM, version u16, D u32, N u64, flags u16
    (bit 0, unit-norm rows, is always set), N x D float32 LE, N x 2
    float64 poses, length-prefixed UTF-8 ids, 32-byte model fingerprint.
    Written atomically.  Poses other than (N, 2), or a count of ids other
    than N, is a ShapeError; a row that load_map would refuse, for a
    non-finite descriptor or pose or an id that is not a UTF-8 string, is
    a FormatError naming it.  Each is raised before any byte is written."""
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
        if not isinstance(rid, str):
            raise FormatError(f"id of row {i} is {rid!r}, not a string")
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
