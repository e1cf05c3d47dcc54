"""Reference-set finetuning: triplet loss, pose-aware mining, training.

The finetuning dataset is built purely from the test-time reference
side: each reference spawns M augmented copies per epoch that act as
queries and inherit the reference's pose. Hard negatives are the
feature-space-closest references beyond a physical distance threshold;
without poses, negatives fall back to seeded random sampling. The same
engine also pretrains on a labeled dataset with real queries.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .augmentation import AugmentationSpec, apply, sample_op
from .dataset import Dataset, ImageRecord, pose_distances, record_poses
from .embedding import EmbeddingModel, _backward, _trace, apply_gradients, forward_batch
from .errors import (
    EmptyReferences,
    InvalidMultiplicity,
    NumericalDivergence,
    ShapeError,
    VprError,
    check_count,
    check_real,
)
from .evaluation import evaluate_model
from .retrieval import _nearest

_EPS = 1e-12


def triplet_loss(
    f_q: np.ndarray, f_p: np.ndarray, f_n: np.ndarray, margin: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Hinge loss max(d(q,p) - d(q,n) + margin, 0) and its gradients, with
    d the Euclidean distance over all elements, summed in row-major order.

    Returns (loss, dL/df_q, dL/df_p, dL/df_n); all gradients are zero on
    the flat side of the hinge.
    """
    f_q, f_p, f_n = (np.asarray(v, dtype=np.float64) for v in (f_q, f_p, f_n))
    if not f_q.shape == f_p.shape == f_n.shape:
        raise ShapeError(
            f"descriptor shapes differ: {f_q.shape}, {f_p.shape}, {f_n.shape}"
        )
    check_real(margin, "margin", positive=True)
    losses, grads = _hinge(np.stack([f_q, f_p, f_n]).reshape(3, 1, -1), margin)
    return (float(losses[0]), *grads.reshape(3, *f_q.shape))


def _hinge(f: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """triplet_loss of each row of a (3, T, D) stack of q, p and n rows: the
    (T,) losses, a nan kept, and the (3, T, D) gradients.  The stacked
    vector-vector matmul takes np.linalg.norm's dot, so the bits match."""
    d = f[0] - f[1:]  # q - p, q - n
    dist = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0]  # (2, T, 1)
    loss = dist[0, :, 0] - dist[1, :, 0] + margin
    u_qp, u_qn = d / (dist + _EPS)
    grads = np.where((loss <= 0)[:, None], 0.0, np.stack([u_qp - u_qn, -u_qp, u_qn]))
    return np.maximum(loss, 0.0), grads


@dataclass
class FinetuneDataset:
    """Per-epoch realizable stream of augmented queries over a reference set.

    Invariants: the references are exactly the test-time reference set,
    kept as a tuple of the records given; every realized query carries its
    source reference's pose, and each epoch yields multiplicity x
    len(references) queries, so a multiplicity below 1 is an
    InvalidMultiplicity.  Streams are equal when they hold the same record
    objects in the same order and equal multiplicity, spec and seed.
    """

    references: Sequence[ImageRecord] = field(compare=False)
    multiplicity: int
    augmentation_spec: AugmentationSpec
    seed: int
    # Each stream keeps its records alive, so equal ids are the same records.
    _record_ids: tuple[int, ...] = field(init=False, repr=False)
    _epochs: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # A process pool and its worker count while train() runs over the
    # stream (_realizing).
    _pool: tuple[ProcessPoolExecutor, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_count(self.multiplicity, "multiplicity", 1, InvalidMultiplicity)
        check_count(self.seed, "seed", 0)
        self.references = tuple(self.references)
        self._record_ids = tuple(map(id, self.references))

    def realize_epoch(self, epoch: int) -> list[tuple[int, ImageRecord]]:
        """Deterministic given (seed, epoch); fresh ops per epoch."""
        return list(self._realize(epoch, range(len(self.references) * self.multiplicity)))

    def _realize(self, epoch: int, copies: range) -> Iterator[tuple[int, ImageRecord]]:
        """The epoch's copies k in ``copies``: copy k is draw k % M of
        reference k // M, seeded by its own [seed, epoch, i, m]."""
        for k in copies:
            i, m = divmod(k, self.multiplicity)
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, epoch, i, m])
            )
            op = sample_op(self.augmentation_spec, rng)
            yield i, apply(self.references[i], op, rng)

    def _raws(self, epoch: int, start: int, stop: int) -> np.ndarray:
        """The (stop - start, RAW_DIM) raws of the epoch's copies start to
        stop - 1.  Each realized image is dropped once its raw is read."""
        return np.stack([query.raw for _, query in self._realize(epoch, range(start, stop))])

    def epoch_raws(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """The epoch's (N*M,) int64 source indices and (N*M, RAW_DIM) query
        raws, both read-only.  The backbone is frozen, so they depend on the
        stream alone, never on the model: each epoch is realized and
        extracted on first use and kept, across the allowed CPUs while
        train() runs over the stream (_realizing).  A spec that enables no
        category draws nothing, so each of its epochs is epoch 0.  A stream
        over zero references has no epoch: EmptyReferences.

        The epoch's copies are split into contiguous slices, one more than
        the pool's workers (none without a pool): the workers do every slice
        but the last, and this process the last.  Each copy's draws depend
        only on its own seed and each raw only on its own pixels, so the
        split moves no bit.  An error is the one the copies' order raises
        inline: the earliest slice's first."""
        if not self.references:
            raise EmptyReferences("a stream over zero references realizes no epoch")
        if not self.augmentation_spec.categories:
            epoch = 0
        if epoch not in self._epochs:
            pool, workers = self._pool or (None, 0)
            sources = np.repeat(np.arange(len(self.references), dtype=np.int64), self.multiplicity)
            bounds = [len(sources) * k // (workers + 1) for k in range(workers + 2)]
            # Only the slice's numbers are sent: the workers hold the stream.
            futures = [pool.submit(_adopted_raws, epoch, *bounds[k : k + 2]) for k in range(workers)]
            try:
                last = self._raws(epoch, bounds[-2], bounds[-1])
            except Exception:
                for future in futures:
                    future.result()
                raise
            raws = np.concatenate([*(future.result() for future in futures), last])
            sources.flags.writeable = raws.flags.writeable = False
            self._epochs[epoch] = sources, raws
        return self._epochs[epoch]


@contextlib.contextmanager
def _realizing(stream: FinetuneDataset) -> Iterator[None]:
    """Realize and extract the stream's new epochs across the allowed CPUs
    for one train() call over it (a ``with`` block).

    A process pool gets one worker per allowed CPU beyond the first, at
    most one per copy beyond the first, and none without the fork start
    method or while another thread runs; where it cannot be made, as
    without POSIX semaphores, this process realizes alone.  The pool forks
    at its first task, so a stream whose epochs are all kept forks nothing,
    and its workers are joined when the block ends.
    """
    copies = len(stream.references) * stream.multiplicity
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, copies) - 1
    pool = None
    # A fork copies only the calling thread: unsafe beside other threads.
    if workers > 0 and "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        # Each worker inherits the stream through the fork: it is never pickled.
        with contextlib.suppress(OSError, NotImplementedError):
            pool = ProcessPoolExecutor(
                workers, multiprocessing.get_context("fork"),
                initializer=_adopt, initargs=(stream,),
            )
    with pool or contextlib.nullcontext():
        stream._pool = None if pool is None else (pool, workers)
        try:
            yield
        finally:
            stream._pool = None


_adopted: FinetuneDataset | None = None  # a pool worker's stream (_adopt)


def _adopt(stream: FinetuneDataset) -> None:
    """A pool worker's initializer: keep the stream; Ctrl-C is the parent's
    to handle."""
    global _adopted
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _adopted = stream


def _adopted_raws(epoch: int, start: int, stop: int) -> np.ndarray:
    """A pool worker's task: ``_raws`` of its stream."""
    return _adopted._raws(epoch, start, stop)


@dataclass
class TrainConfig:
    """Everything the training loop needs, all seedable and explicit.

    The default learning rate suits the small trainable head used here;
    full-backbone finetuning regimes use rates orders of magnitude lower.
    """

    margin: float = 0.1
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 16
    positive_radius: float = 10.0
    negative_radius: float = 25.0
    negatives_per_query: int = 1
    early_stop_patience: int = 5
    aug_multiplicity: int = 2
    poseless: bool = False
    validation_radius: float = 25.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("margin", "learning_rate", "positive_radius", "negative_radius",
                     "validation_radius"):
            check_real(getattr(self, name), name, positive=True)
        if self.negative_radius < self.positive_radius:
            raise VprError("negative_radius must be >= positive_radius")
        for name, low in (("epochs", 0), ("batch_size", 1), ("negatives_per_query", 1),
                          ("early_stop_patience", 1), ("seed", 0)):
            check_count(getattr(self, name), name, low)
        check_count(self.aug_multiplicity, "aug_multiplicity", 1, InvalidMultiplicity)
        if not isinstance(self.poseless, (bool, np.bool_)):
            raise VprError(f"poseless must be a bool, got {self.poseless!r}")


# One epoch's triplets as aligned rows: (T, RAW_DIM) query raws and (T,)
# int64 reference indices of the positives and of the negatives.
Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class TrainLog:
    """Step and epoch records from one training run."""

    step_losses: list[float] = field(default_factory=list)
    epoch_mean_loss: list[float] = field(default_factory=list)
    epoch_val_recall1: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    # Stages of each epoch's seconds: realize, extract and mine; the batch
    # loop; validation.  They add up to at most epoch_seconds.
    epoch_mine_seconds: list[float] = field(default_factory=list)
    epoch_step_seconds: list[float] = field(default_factory=list)
    epoch_validate_seconds: list[float] = field(default_factory=list)
    epoch_skipped_queries: list[int] = field(default_factory=list)
    epoch_triplets: list[int] = field(default_factory=list)
    epoch_active_triplets: list[int] = field(default_factory=list)  # loss > 0
    # Mean over the epoch's steps of the L2 norm of the applied gradient.
    epoch_grad_norm: list[float] = field(default_factory=list)
    selected_epoch: int = -1
    mode: str = ""
    stop_reason: str = ""  # "epochs": all configured epochs ran; "patience": stopped early


def _mine(
    model: EmbeddingModel,
    ref_raws: np.ndarray,
    positives: np.ndarray,
    pose_dists: np.ndarray,
    query_raws: np.ndarray,
    config: TrainConfig,
) -> tuple[Triplets, int]:
    """Pose-aware mining over (positive or -1, (N,) pose distances to the
    references, query raw) rows.

    A row is skipped when it has no positive (-1) or no reference lies
    beyond negative_radius; otherwise its negatives are the
    feature-closest references beyond that radius, as knn ranks them.
    """
    ref_descs = forward_batch(model, ref_raws)
    q_descs = forward_batch(model, query_raws)
    candidates = (pose_dists > config.negative_radius) & (positives >= 0)[:, None]
    picked, negatives, _ = _nearest(ref_descs, q_descs, config.negatives_per_query, candidates)
    return (query_raws[picked], positives[picked], negatives), int((~candidates.any(1)).sum())


def mine_triplets(
    model: EmbeddingModel,
    finetune_ds: FinetuneDataset,
    config: TrainConfig,
    epoch: int,
) -> tuple[Triplets, int]:
    """Mine one triplet per (query, negative) over the epoch's queries,
    realized once per stream (``FinetuneDataset.epoch_raws``).

    Pose-mode: the positive is the source reference and negatives are the
    feature-closest references beyond negative_radius. Poseless mode draws
    the negative uniformly among the other references, so it needs two
    references. Returns the triplets and the number of queries skipped for
    lack of candidates.
    """
    sources, query_raws = finetune_ds.epoch_raws(epoch)
    ref_raws = np.stack([r.raw for r in finetune_ds.references])
    if not config.poseless:
        # Every realized query keeps its source's pose.
        ref_poses = np.asarray(record_poses(finetune_ds.references), dtype=np.float64)
        pose_dists = pose_distances(ref_poses[sources], ref_poses)
        return _mine(model, ref_raws, sources, pose_dists, query_raws, config)
    n_refs = len(finetune_ds.references)
    if n_refs < 2:
        raise VprError(f"poseless mining needs at least two references, got {n_refs}")
    negatives = np.empty_like(sources)
    for qi, src in enumerate(sources.tolist()):
        rng = np.random.default_rng(
            np.random.SeedSequence([finetune_ds.seed, epoch, qi, 0x4E9])
        )
        neg = int(rng.integers(0, n_refs - 1))
        negatives[qi] = neg + (neg >= src)
    return (query_raws, sources, negatives), 0


def _labeled_rows(
    dataset: Dataset, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mining inputs of a labeled dataset, fixed across epochs: per query
    the nearest reference within positive_radius (or -1), the pose
    distances to the references and the query raw. VprError for poseless
    mining or no queries; InconsistentManifest if a query has no pose."""
    if config.poseless:
        raise VprError("poseless mining applies only to reference-set finetuning")
    if not dataset.queries:
        raise VprError("cannot train on a labeled dataset with no queries")
    pose_dists = pose_distances(dataset.query_poses, dataset.reference_poses)
    positives = np.where(
        pose_dists.min(axis=1) <= config.positive_radius,
        np.argmin(pose_dists, axis=1),
        -1,
    )
    return positives, pose_dists, np.stack([q.raw for q in dataset.queries])


def train(
    model: EmbeddingModel,
    data: FinetuneDataset | Dataset,
    config: TrainConfig,
    validation: Dataset | None = None,
) -> tuple[EmbeddingModel, TrainLog]:
    """Triplet-loss gradient descent over the head, with per-epoch
    re-mining and best-validation model selection.

    With a validation dataset, the returned model is the one from the
    epoch with the best validation Recall@1 and training stops early
    after `early_stop_patience` epochs without improvement. Without one,
    the epoch with the lowest mean training loss is returned, the latest
    among ties, and training still stops early: after
    `early_stop_patience` epochs in a row whose mean loss is above the
    lowest so far. A validation dataset with no queries, and data from
    which an epoch mines no triplet, are VprErrors.
    """
    if not data.references:
        raise EmptyReferences("cannot train on zero references")
    if validation is not None and not validation.queries:
        raise VprError("validation dataset has no queries")
    ref_raws = np.stack([r.raw for r in data.references])
    labeled_rows = None if isinstance(data, FinetuneDataset) else _labeled_rows(data, config)
    log = TrainLog(mode="poseless" if config.poseless else "pose", stop_reason="epochs")
    model = model.copy()
    best_model = model.copy()
    best_val = -np.inf
    stale = 0

    # A stream realizes its new epochs across the allowed CPUs.
    realizing = contextlib.nullcontext() if labeled_rows is not None else _realizing(data)
    with realizing:
        for epoch in range(config.epochs):
            tic = time.perf_counter()
            if labeled_rows is None:
                triplets, skipped = mine_triplets(model, data, config, epoch)
            else:
                triplets, skipped = _mine(model, ref_raws, *labeled_rows, config)
            mined = time.perf_counter()
            q_raws, positives, negatives = triplets
            if not len(positives):
                raise VprError(
                    f"epoch {epoch} mined no triplet: {skipped} queries skipped for lack "
                    "of a positive or of a reference beyond negative_radius"
                )
            log.epoch_skipped_queries.append(skipped)
            order = np.random.default_rng(
                np.random.SeedSequence([config.seed, epoch, 0x5F0F])
            ).permutation(len(positives))

            epoch_losses: list[float] = []
            grad_norms: list[float] = []
            active = 0
            stepping = time.perf_counter()
            for start in range(0, len(order), config.batch_size):
                b = order[start : start + config.batch_size]
                n = len(b)
                raws = np.concatenate([q_raws[b], ref_raws[positives[b]], ref_raws[negatives[b]]])
                trace = _trace(model, raws)
                losses, upstream = _hinge(trace[0].reshape(3, n, -1), config.margin)
                if not np.isfinite(losses).all():
                    raise NumericalDivergence(
                        f"non-finite loss at epoch {epoch}, step {len(log.step_losses)}"
                    )
                active += int(np.count_nonzero(losses))
                grads = _backward(model, trace, upstream.reshape(3 * n, -1))
                grads.scale(1.0 / n)
                grad_norms.append(grads.norm())
                apply_gradients(model, grads, config.learning_rate)
                step_loss = float(np.cumsum(losses)[-1]) / n  # summed in order
                log.step_losses.append(step_loss)
                epoch_losses.append(step_loss)

            validating = time.perf_counter()
            log.epoch_triplets.append(len(positives))
            log.epoch_active_triplets.append(active)
            log.epoch_grad_norm.append(float(np.mean(grad_norms)))
            mean_loss = float(np.mean(epoch_losses))
            log.epoch_mean_loss.append(mean_loss)
            if validation is not None:
                report = evaluate_model(
                    model, validation, radius=config.validation_radius, ns=(1,)
                )
                val_score = report.recalls[0]
            else:
                val_score = -mean_loss
            log.epoch_val_recall1.append(val_score if validation is not None else np.nan)
            done = time.perf_counter()
            log.epoch_mine_seconds.append(mined - tic)
            log.epoch_step_seconds.append(validating - stepping)
            log.epoch_validate_seconds.append(done - validating)
            log.epoch_seconds.append(done - tic)

            # >= keeps the latest epoch among ties: a saturated validation set
            # must not freeze training at epoch 0.
            if val_score >= best_val:
                best_val = val_score
                best_model = model.copy()
                log.selected_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.early_stop_patience:
                    log.stop_reason = "patience"
                    break

    return best_model, log


def rsf_finetune(
    model: EmbeddingModel,
    test_dataset: Dataset,
    config: TrainConfig,
    spec: AugmentationSpec,
    validation: Dataset | None = None,
) -> tuple[EmbeddingModel, TrainLog]:
    """Adapt a model to a test environment using only its reference side.

    The test dataset's queries are never read: finetuning sees only its
    references, so test-query hygiene holds by construction.

    The epochs' query raws do not depend on the model, so the last stream
    is kept on the dataset, as each record keeps its ``raw``, and a later
    call whose stream equals it reuses it.  Any other call replaces it.
    """
    stream = FinetuneDataset(test_dataset.references, config.aug_multiplicity, spec, config.seed)
    if vars(test_dataset).get("_rsf_stream") != stream:
        test_dataset._rsf_stream = stream
    return train(model, test_dataset._rsf_stream, config, validation=validation)
