"""Descriptor maps and exact top-K nearest-neighbor lookup (L2)."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .embedding import EmbeddingModel, extract_raw, forward
from .errors import (
    EmptyReferences,
    FormatError,
    KTooLarge,
    ModelMismatch,
    ShapeError,
    TruncatedError,
)
from .manifest import atomic_write_bytes

_MAP_MAGIC = b"VPRM"
_MAP_VERSION = 1
_FLAG_NORMALIZED = 1


@dataclass
class DescriptorMap:
    """The offline map: reference descriptors, poses, ids, provenance."""

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


@dataclass
class RetrievalResult:
    """Ranked references for one query, ascending distance."""

    query_id: str
    ranked: list[tuple[int, float]]  # (reference index, L2 distance)


def build_map(dataset: Dataset, model: EmbeddingModel) -> DescriptorMap:
    """Encode every reference image; rows follow the dataset's id order."""
    if not dataset.references:
        raise EmptyReferences("cannot build a map from zero references")
    rows = [forward(model, extract_raw(rec)) for rec in dataset.references]
    return DescriptorMap(
        descriptors=np.asarray(rows, dtype=np.float32),
        poses=np.asarray(dataset.reference_poses, dtype=np.float64),
        ids=[rec.id for rec in dataset.references],
        model_fingerprint=model.fingerprint(),
    )


def knn(dmap: DescriptorMap, query: np.ndarray, k: int, query_id: str = "") -> RetrievalResult:
    """Exact k-nearest references under L2 distance.

    Distances accumulate in float64 even over float32 storage; ties
    break toward the lower reference index.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (dmap.descriptor_dim,):
        raise ShapeError(
            f"query has shape {query.shape}, map dim is {dmap.descriptor_dim}"
        )
    n = dmap.size
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside [1, {n}]")
    diffs = dmap.descriptors.astype(np.float64) - query
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((np.arange(n), dists))[:k]
    return RetrievalResult(
        query_id=query_id,
        ranked=[(int(i), float(dists[i])) for i in order],
    )


def retrieve_all(
    dmap: DescriptorMap, dataset: Dataset, model: EmbeddingModel, k: int
) -> list[RetrievalResult]:
    """Encode every query of the dataset and run knn for each; raises
    ModelMismatch unless the map was built by this model."""
    if dmap.model_fingerprint != model.fingerprint():
        raise ModelMismatch(f"map built by model {dmap.model_fingerprint.hex()}, not this one")
    results = []
    for rec in dataset.queries:
        q = forward(model, extract_raw(rec))
        results.append(knn(dmap, q, k, query_id=rec.id))
    return results


def save_map(dmap: DescriptorMap, path: str | Path) -> None:
    """Binary layout: magic VPRM, version u16, D u32, N u64, flags u16
    (bit 0, unit-norm rows, is always set), N x D float32 LE, N x 2
    float64 poses, length-prefixed UTF-8 ids, 32-byte model fingerprint.
    Written atomically."""
    n, d = dmap.descriptors.shape
    parts = [
        _MAP_MAGIC,
        struct.pack("<HIQH", _MAP_VERSION, d, n, _FLAG_NORMALIZED),
        np.ascontiguousarray(dmap.descriptors, dtype="<f4").tobytes(),
        np.ascontiguousarray(dmap.poses, dtype="<f8").tobytes(),
    ]
    for rid in dmap.ids:
        raw = rid.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    if len(dmap.model_fingerprint) != 32:
        raise FormatError("model fingerprint must be 32 bytes")
    parts.append(dmap.model_fingerprint)
    atomic_write_bytes(Path(path), b"".join(parts))


def load_map(path: str | Path) -> DescriptorMap:
    """Inverse of save_map; bit-exact round trip."""
    data = Path(path).read_bytes()
    if data[:4] != _MAP_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {_MAP_MAGIC!r}")
    try:
        version, d, n, _flags = struct.unpack_from("<HIQH", data, 4)
    except struct.error:
        raise TruncatedError(f"header truncated at byte {len(data)}") from None
    if version != _MAP_VERSION:
        raise FormatError(f"unsupported map file version {version}")
    pos = 4 + 16
    need = pos + 4 * n * d + 16 * n
    if len(data) < need:
        raise TruncatedError(f"expected at least {need} bytes, file has {len(data)}")
    desc = np.frombuffer(data, dtype="<f4", count=n * d, offset=pos).reshape(n, d)
    pos += 4 * n * d
    poses = np.frombuffer(data, dtype="<f8", count=2 * n, offset=pos).reshape(n, 2)
    pos += 16 * n
    ids = []
    for _ in range(n):
        try:
            (length,) = struct.unpack_from("<H", data, pos)
        except struct.error:
            raise TruncatedError(f"id table truncated at byte {len(data)}") from None
        pos += 2
        if len(data) < pos + length:
            raise TruncatedError(f"id table truncated at byte {len(data)}")
        ids.append(data[pos : pos + length].decode("utf-8"))
        pos += length
    if len(data) < pos + 32:
        raise TruncatedError(
            f"expected {pos + 32} bytes incl. fingerprint, file has {len(data)}"
        )
    return DescriptorMap(
        descriptors=desc.copy(),
        poses=poses.copy(),
        ids=ids,
        model_fingerprint=data[pos : pos + 32],
    )
