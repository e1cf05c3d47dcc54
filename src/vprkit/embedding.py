"""The descriptor extractor: frozen handcrafted backbone + trainable head.

The backbone turns any image into a fixed 512-dim feature vector (an
8x8 patch grid with 8 statistics per patch). The head is a small MLP
with tanh hidden activations whose output is L2-normalized; both its
forward pass and the exact analytic gradient of a linear functional of
its output are implemented here, so the whole training objective can be
verified against finite differences.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .colorops import LUMA_WEIGHTS
from .dataset import ImageRecord
from .errors import FormatError, ShapeError, check_count
from .imageops import resize_area
from .manifest import BinaryReader, atomic_write_bytes
from .ppm import check_pixels

RAW_DIM = 512
PATCH_GRID = 8
WORK_SIZE = 64
_HIST_BINS = 4

_MODEL_MAGIC = b"VPRH"
_MODEL_VERSION = 1


def extract_raw(image: ImageRecord) -> np.ndarray:
    """Backbone features: 8x8 patches x {luma mean/std, 2 chroma means,
    4-bin gradient-orientation histogram}, 512 values total.

    Depends only on the pixel content, never on the id or pose. Always
    computes; ``ImageRecord.raw`` keeps the result on the record. Pixels
    that ``ppm.check_pixels`` refuses raise its error naming the record.
    """
    pixels = np.asarray(image.pixels, dtype=np.float64)
    return extract_raw_pixels(check_pixels(pixels, f"image {image.id!r}"))


def extract_raw_pixels(pixels: np.ndarray) -> np.ndarray:
    img = resize_area(np.asarray(pixels, dtype=np.float64), WORK_SIZE, WORK_SIZE)
    # Luma over the (H, C, W) layout that resize's products leave: `@`
    # gives other bits for the same values in another memory layout.
    y = np.ascontiguousarray(img.transpose(0, 2, 1)).transpose(0, 2, 1) @ LUMA_WEIGHTS

    # 3x3 central-difference gradients; borders carry zero gradient.
    gx = np.zeros_like(y)
    gy = np.zeros_like(y)
    gx[:, 1:-1] = (y[:, 2:] - y[:, :-2]) / 2.0
    gy[1:-1, :] = (y[2:, :] - y[:-2, :]) / 2.0
    # Orientation folded to [0, 180), 4 bins of 45 degrees.  The angle lies
    # in [-180, 180], where np.mod(d, 180) is d, plus 180 below zero, and
    # 0 at 180 (arctan2(+0, x < 0) is pi).
    d = np.degrees(np.arctan2(gy, gx))
    ang = np.where(d < 0, d + 180.0, np.where(d == 180.0, 0.0, d))
    bins = np.minimum((ang / 45.0).astype(np.int64), _HIST_BINS - 1)

    ps = WORK_SIZE // PATCH_GRID

    def patches(arr: np.ndarray) -> np.ndarray:
        # (8, 8, ps*ps): row-major patch grid, flattened pixels per patch
        return arr.reshape(PATCH_GRID, ps, PATCH_GRID, ps).transpose(0, 2, 1, 3).reshape(
            PATCH_GRID, PATCH_GRID, ps * ps
        )

    def mean(p: np.ndarray) -> np.ndarray:
        # The pairwise sum and the division of .mean, without its overhead.
        return np.add.reduce(p, axis=-1) / (ps * ps)

    # Temporaries stay at one (64, 64) plane or less: with 128 KB ones,
    # glibc's malloc grew and trimmed the heap on every call, at about 100
    # page faults each.
    yp, mp, bp = patches(y), patches(np.hypot(gx, gy)), patches(bins)
    luma = mean(yp)
    dev = yp - luma[..., None]
    dev *= dev  # .std's own steps: square in place, mean, sqrt
    hist = [np.add.reduce(mp * (bp == b), axis=-1) for b in range(_HIST_BINS)]
    features = np.stack(
        [luma, np.sqrt(mean(dev)), mean(patches(img[..., 0] - y)),
         mean(patches(img[..., 2] - y)), *hist],
        axis=-1,
    )
    return features.reshape(RAW_DIM)


@dataclass
class EmbeddingModel:
    """Trainable projection head: affine layers, tanh between, L2-normalized.

    weights[k] has shape (in_k, out_k); biases[k] has shape (out_k,).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def hidden_dims(self) -> list[int]:
        return [w.shape[1] for w in self.weights[:-1]]

    def fingerprint(self) -> bytes:
        """32-byte content hash of all parameters (shape-sensitive)."""
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(struct.pack("<II", *w.shape))
            h.update(np.ascontiguousarray(w, dtype="<f8"))
            h.update(np.ascontiguousarray(b, dtype="<f8"))
        return h.digest()

    def fingerprint_hex(self) -> str:
        return self.fingerprint().hex()

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_model(
    hidden_dims: list[int] | None = None,
    output_dim: int = 128,
    seed: int = 0,
    input_dim: int = RAW_DIM,
) -> EmbeddingModel:
    """Seeded initialization: uniform weights scaled 1/sqrt(fan_in), zero bias.
    A layer dim that is not an integer of at least 1 is a ShapeError, a
    seed that is not one of at least 0 a VprError."""
    if hidden_dims is None:
        hidden_dims = [256]
    dims = [input_dim, *hidden_dims, output_dim]
    names = ["input_dim", *(f"hidden_dims[{i}]" for i in range(len(hidden_dims))), "output_dim"]
    for name, d in zip(names, dims):
        check_count(d, f"all layer dims must be positive, got {dims}; {name}", 1, ShapeError)
    check_count(seed, "seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x11A7]))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return EmbeddingModel(weights=weights, biases=biases)


def _trace(
    model: EmbeddingModel, raws: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Forward pass over an (N, F) batch, keeping layer inputs for backprop.

    Returns (descriptors, activations per layer input, guarded (N, 1) norms).
    """
    return _layers(model, _batch(model, raws))


def _batch(model: EmbeddingModel, raws: np.ndarray) -> np.ndarray:
    a = np.asarray(raws, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != model.input_dim:
        raise ShapeError(
            f"raw batch has shape {a.shape}, model expects (N, {model.input_dim})"
        )
    return a


def _layers(
    model: EmbeddingModel, a: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """``_trace`` over the last axis of a float64 array of raws."""
    acts = [a]
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if k < last:
            a = np.tanh(a)
        acts.append(a)
    # The bits of np.linalg.norm(a, axis=-1), without its per-call overhead.
    norms = np.sqrt(np.add.reduce(a * a, axis=-1, keepdims=True))
    norms[norms < 1e-12] += 1e-12
    return a / norms, acts, norms


def _encode_rows(model: EmbeddingModel, raws: np.ndarray) -> np.ndarray:
    """``forward`` of each row of an (N, F) batch, bit for bit, in one call.

    As an (N, 1, F) stack, every row goes through the layers as the (1, F)
    matrix of a one-row ``forward`` and takes its GEMV; a 2-D batch takes
    GEMM, whose bits depend on the row count.
    """
    return _layers(model, _batch(model, raws)[:, None, :])[0][:, 0]


def forward(model: EmbeddingModel, raw: np.ndarray) -> np.ndarray:
    """Unit-norm descriptor for one raw feature vector."""
    return _trace(model, np.asarray(raw, dtype=np.float64)[None])[0][0]


def forward_batch(model: EmbeddingModel, raws: np.ndarray) -> np.ndarray:
    """Unit-norm descriptors for an (N, F) matrix of raw features."""
    return _trace(model, raws)[0]


@dataclass
class ParamGradients:
    """Per-layer gradients, shapes mirroring the model parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __iadd__(self, other: "ParamGradients") -> "ParamGradients":
        for w, ow in zip(self.weights, other.weights):
            w += ow
        for b, ob in zip(self.biases, other.biases):
            b += ob
        return self

    def scale(self, factor: float) -> None:
        for w in self.weights:
            w *= factor
        for b in self.biases:
            b *= factor

    def norm(self) -> float:
        """The L2 norm over every weight and bias gradient."""
        return math.sqrt(sum(float(np.vdot(g, g)) for g in (*self.weights, *self.biases)))

    @classmethod
    def zeros_like(cls, model: EmbeddingModel) -> "ParamGradients":
        return cls(
            weights=[np.zeros_like(w) for w in model.weights],
            biases=[np.zeros_like(b) for b in model.biases],
        )


def backward(
    model: EmbeddingModel, raw: np.ndarray, upstream: np.ndarray
) -> ParamGradients:
    """Exact gradient of <upstream, forward(model, raw)> w.r.t. parameters.

    Includes the normalization Jacobian (I - f f^T) / ||z||. Also takes
    an (N, F) batch with (N, D) upstreams and returns the sum over rows.
    """
    raws = np.asarray(raw, dtype=np.float64)
    ups = np.asarray(upstream, dtype=np.float64)
    if raws.ndim == 1:
        raws, ups = raws[None], ups[None]
    trace = _trace(model, raws)
    if ups.shape != trace[0].shape:
        raise ShapeError(
            f"upstream has shape {np.shape(upstream)}, expected "
            f"{model.output_dim} values per raw row"
        )
    return _backward(model, trace, ups)


def _backward(model: EmbeddingModel, trace: tuple, upstream: np.ndarray) -> ParamGradients:
    """``backward`` from the batch's ``_trace`` and its (N, D) float64
    upstreams, so that a training step traces the head once."""
    f, acts, norms = trace
    g = (upstream - f * np.sum(f * upstream, axis=1, keepdims=True)) / norms
    weights, biases = [], []
    for k in range(len(model.weights) - 1, -1, -1):
        weights.append(acts[k].T @ g)
        biases.append(g.sum(axis=0))
        if k > 0:
            g = (g @ model.weights[k].T) * (1.0 - acts[k] ** 2)  # tanh'
    return ParamGradients(weights=weights[::-1], biases=biases[::-1])


def apply_gradients(model: EmbeddingModel, grads: ParamGradients, lr: float) -> None:
    """In-place plain gradient-descent step."""
    for w, gw in zip(model.weights, grads.weights):
        w -= lr * gw
    for b, gb in zip(model.biases, grads.biases):
        b -= lr * gb


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Binary format: magic, version u16, layer count u32, per-layer dims,
    then all parameters as little-endian float64. Written atomically.
    A model whose file load_model would refuse, or whose weights are not
    (in, out) or biases not (out,), is a FormatError raised before any
    byte is written."""
    weights = [np.ascontiguousarray(w, dtype="<f8") for w in model.weights]
    biases = [np.ascontiguousarray(b, dtype="<f8") for b in model.biases]
    # A missing weight or bias is None, of shape ().
    for k, (w, b) in enumerate(itertools.zip_longest(weights, biases)):
        if np.ndim(w) != 2 or np.shape(b) != np.shape(w)[1:]:
            raise FormatError(
                f"layer {k} has a {np.shape(w)} weight and a {np.shape(b)} bias, "
                "not (in, out) and (out,)"
            )
    _check_layers([w.shape for w in weights])
    _check_parameters(weights, biases)
    parts = [_MODEL_MAGIC, struct.pack("<H", _MODEL_VERSION)]
    parts.append(struct.pack("<I", len(weights)))
    for w in weights:
        parts.append(struct.pack("<II", *w.shape))
    for w, b in zip(weights, biases):
        parts += [w, b]
    atomic_write_bytes(Path(path), parts)


def _check_layers(shapes: list[tuple[int, int]]) -> None:
    """FormatError for zero layers, a zero dimension or layers whose dims
    do not chain."""
    if not shapes:
        raise FormatError("model has zero layers")
    for k, (i, o) in enumerate(shapes):
        if i == 0 or o == 0:
            raise FormatError(f"layer {k} has a zero dimension: {i} x {o}")
        if k > 0 and i != shapes[k - 1][1]:
            raise FormatError(
                f"layer {k} takes {i} inputs, layer {k - 1} gives {shapes[k - 1][1]}"
            )


def _check_parameters(weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
    """FormatError naming the first layer with a NaN or infinite parameter."""
    for k, (w, b) in enumerate(zip(weights, biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise FormatError(f"layer {k} has a NaN or infinite weight or bias")


def load_model(path: str | Path) -> EmbeddingModel:
    """Inverse of save_model; bit-exact round trip.  Raises FormatError
    for zero layers, a zero dimension, layers whose dims do not chain,
    bytes after the last parameter, or a NaN or infinite parameter."""
    r = BinaryReader(Path(path).read_bytes(), _MODEL_MAGIC, _MODEL_VERSION)
    (n_layers,) = r.unpack("<I")
    shapes = [r.unpack("<II") for _ in range(n_layers)]
    _check_layers(shapes)
    # One read of every parameter, so a short file names the full size.
    sizes = [n for i, o in shapes for n in (i * o, o)]
    params = np.split(r.array("<f8", sum(sizes)), np.cumsum(sizes)[:-1])
    r.end("last parameter")
    weights = [w.reshape(shape).copy() for w, shape in zip(params[::2], shapes)]
    biases = [b.copy() for b in params[1::2]]
    _check_parameters(weights, biases)
    return EmbeddingModel(weights=weights, biases=biases)
