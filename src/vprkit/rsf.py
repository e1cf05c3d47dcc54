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
    check_flag,
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
    kept as a tuple of the records given.  Copy k of each epoch is an
    augmented copy of reference sources[k] = k // M that keeps its pose, so
    an epoch is M x len(references) copies and an M below 1 is an
    InvalidMultiplicity.  Streams are equal when they hold the same record
    objects in the same order and equal multiplicity, spec and seed.
    """

    references: Sequence[ImageRecord] = field(compare=False)
    multiplicity: int
    augmentation_spec: AugmentationSpec
    seed: int
    # Each stream keeps its records alive, so equal ids are the same records.
    _record_ids: tuple[int, ...] = field(init=False, repr=False)
    sources: np.ndarray = field(init=False, repr=False, compare=False)
    _epochs: dict[int, np.ndarray] = field(
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
        self.sources = np.repeat(np.arange(len(self.references), dtype=np.int64), self.multiplicity)
        self.sources.flags.writeable = False

    def _raws(self, epoch: int, start: int, stop: int) -> np.ndarray:
        """The (stop - start, RAW_DIM) raws of the epoch's copies start to
        stop - 1, copy k drawn for reference k // M by its own [seed, epoch,
        k // M, k % M].  Each realized image is dropped once its raw is read."""
        raws = []
        for k in range(start, stop):
            i, m = divmod(k, self.multiplicity)
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, epoch, i, m]))
            raws.append(apply(self.references[i], sample_op(self.augmentation_spec, rng), rng).raw)
        return np.stack(raws)

    def epoch_raws(self, epoch: int) -> np.ndarray:
        """The epoch's (N*M, RAW_DIM) read-only query raws, copy k's in row
        k.  The backbone is frozen, so they depend on the stream alone,
        never on the model: each epoch is realized and extracted on first
        use and kept, across the allowed CPUs while train() runs over the
        stream (_realizing).  A spec that enables no category draws nothing,
        so each of its epochs is epoch 0.  A stream over zero references has
        no epoch: EmptyReferences.

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
            bounds = [len(self.sources) * k // (workers + 1) for k in range(workers + 2)]
            # Only the slice's numbers are sent: the workers hold the stream.
            futures = [pool.submit(_adopted_raws, epoch, *bounds[k : k + 2]) for k in range(workers)]
            try:
                last = self._raws(epoch, bounds[-2], bounds[-1])
            except Exception:
                for future in futures:
                    future.result()
                raise
            raws = np.concatenate([*(future.result() for future in futures), last])
            raws.flags.writeable = False
            self._epochs[epoch] = raws
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


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs, all seedable and explicit.

    The default learning rate suits the small trainable head used here;
    full-backbone finetuning regimes use rates orders of magnitude lower.
    """

    margin: float = 0.1
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 16
    positive_radius: float = 10.0  # read by labeled training alone (_plan)
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
        for name, low in (("epochs", 0), ("batch_size", 1), ("negatives_per_query", 1),
                          ("early_stop_patience", 1), ("seed", 0)):
            check_count(getattr(self, name), name, low)
        check_count(self.aug_multiplicity, "aug_multiplicity", 1, InvalidMultiplicity)
        if check_flag(self.poseless, "poseless") and self.negatives_per_query > 1:
            raise VprError(
                "negatives_per_query must be 1 with poseless: poseless mining draws one "
                f"negative per query, got {self.negatives_per_query}"
            )


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


def _plan(
    data: FinetuneDataset | Dataset, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray | None]:
    """A run's mining plan, from poses alone: each query row's positive (a
    copy's source, or a labeled query's nearest reference within
    positive_radius, else -1) and, unless poseless, the (rows, N) mask of
    its candidate negatives: the references beyond negative_radius of a
    row with a positive.  What cannot be mined is a VprError, or an
    InconsistentManifest naming a pose record_poses refuses."""
    if isinstance(data, FinetuneDataset):
        if config.poseless:
            if len(data.references) < 2:
                raise VprError("poseless mining needs at least two references, "
                               f"got {len(data.references)}")
            return data.sources, None
        # Every realized query keeps its source's pose, so it takes its source's row.
        ref_poses = record_poses(data.references)
        positives, pose_dists = data.sources, pose_distances(ref_poses, ref_poses)[data.sources]
    else:
        if config.poseless:
            raise VprError("poseless mining applies only to reference-set finetuning")
        if config.negative_radius < config.positive_radius:
            raise VprError(f"negative_radius {config.negative_radius} must be >= "
                           f"positive_radius {config.positive_radius}")
        if not data.queries:
            raise VprError("cannot train on a labeled dataset with no queries")
        pose_dists = pose_distances(record_poses(data.queries), record_poses(data.references))
        nearest = pose_dists.argmin(axis=1)
        positives = np.where(pose_dists.min(axis=1) <= config.positive_radius, nearest, -1)
    return positives, (pose_dists > config.negative_radius) & (positives >= 0)[:, None]


def _mine(
    model: EmbeddingModel,
    ref_raws: np.ndarray,
    plan: tuple[np.ndarray, np.ndarray | None],
    query_raws: np.ndarray,
    config: TrainConfig,
    epoch: int,
    stream: FinetuneDataset | None,
) -> tuple[Triplets, int]:
    """One epoch's triplets of the query raws by the plan, and the number
    of rows skipped for want of a candidate.  A row's negatives are its
    feature-closest candidates, as knn ranks them; poseless (a stream's
    plan alone), its one negative is drawn uniformly among the other
    references, seeded by [stream.seed, epoch, row, 0x4E9]."""
    positives, candidates = plan
    if candidates is None:
        negatives = np.empty_like(positives)
        for qi, src in enumerate(positives.tolist()):
            rng = np.random.default_rng(np.random.SeedSequence([stream.seed, epoch, qi, 0x4E9]))
            neg = int(rng.integers(0, len(ref_raws) - 1))
            negatives[qi] = neg + (neg >= src)
        return (query_raws, positives, negatives), 0
    ref_descs = forward_batch(model, ref_raws)
    q_descs = forward_batch(model, query_raws)
    picked, negatives, _ = _nearest(ref_descs, q_descs, config.negatives_per_query, candidates)
    return (query_raws[picked], positives[picked], negatives), int((~candidates.any(1)).sum())


def mine_triplets(
    model: EmbeddingModel,
    finetune_ds: FinetuneDataset,
    config: TrainConfig,
    epoch: int,
) -> tuple[Triplets, int]:
    """One epoch of train()'s mining over a stream: its triplets, one per
    (query, negative), and the number of queries skipped for lack of
    candidates.  The positive is the source reference; the negatives are
    the feature-closest references beyond negative_radius, or poseless one
    drawn uniformly among the other references, of which there must be one.
    """
    if not finetune_ds.references:
        raise EmptyReferences("a stream over zero references realizes no epoch")
    plan = _plan(finetune_ds, config)
    query_raws = finetune_ds.epoch_raws(epoch)
    ref_raws = np.stack([r.raw for r in finetune_ds.references])
    return _mine(model, ref_raws, plan, query_raws, config, epoch, finetune_ds)


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
    lowest so far. A validation dataset with no queries, data that _plan
    refuses, and data of which no query row has a negative candidate, are
    VprErrors raised before any image is extracted; a step's loss sum or
    an epoch's mean loss that is not finite is a NumericalDivergence.
    """
    if not data.references:
        raise EmptyReferences("cannot train on zero references")
    if validation is not None and not validation.queries:
        raise VprError("validation dataset has no queries")
    plan = _plan(data, config)
    if plan[1] is not None and not plan[1].any():
        raise VprError(f"mines no triplet: {len(plan[0])} queries skipped for lack of a "
                       "positive or of a reference beyond negative_radius")
    stream = data if isinstance(data, FinetuneDataset) else None
    query_raws = None if stream is not None else np.stack([q.raw for q in data.queries])
    ref_raws = np.stack([r.raw for r in data.references])
    log = TrainLog(mode="poseless" if config.poseless else "pose", stop_reason="epochs")
    model = model.copy()
    best_model = model.copy()
    best_val = -np.inf
    stale = 0

    # A stream realizes its new epochs across the allowed CPUs.
    with _realizing(stream) if stream is not None else contextlib.nullcontext():
        for epoch in range(config.epochs):
            tic = time.perf_counter()
            if stream is not None:
                query_raws = stream.epoch_raws(epoch)
            triplets, skipped = _mine(model, ref_raws, plan, query_raws, config, epoch, stream)
            mined = time.perf_counter()
            q_raws, positives, negatives = triplets
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
                # Losses are >= 0 or NaN: a finite sum has every loss finite.
                with np.errstate(over="ignore"):
                    step_loss = float(np.cumsum(losses)[-1]) / n  # summed in order
                if not np.isfinite(step_loss):
                    raise NumericalDivergence(
                        f"non-finite loss at epoch {epoch}, step {len(log.step_losses)}"
                    )
                active += int(np.count_nonzero(losses))
                grads = _backward(model, trace, upstream.reshape(3 * n, -1))
                grads.scale(1.0 / n)
                grad_norms.append(grads.norm())
                apply_gradients(model, grads, config.learning_rate)
                log.step_losses.append(step_loss)
                epoch_losses.append(step_loss)

            validating = time.perf_counter()
            log.epoch_triplets.append(len(positives))
            log.epoch_active_triplets.append(active)
            log.epoch_grad_norm.append(float(np.mean(grad_norms)))
            with np.errstate(over="ignore"):
                mean_loss = float(np.mean(epoch_losses))
            if not np.isfinite(mean_loss):
                raise NumericalDivergence(
                    f"non-finite mean loss at epoch {epoch}, step {len(log.step_losses) - 1}"
                )
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
