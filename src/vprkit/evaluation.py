"""Recall@N evaluation, generalization matrices, 2-D projections."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Pose, _checked_poses, csv_line, pose_distances, record_poses
from .errors import (DegenerateSpectrum, MissingGroundTruth, NonFiniteValue, ShapeError,
                     VprError, check_count, check_real)
from .retrieval import DescriptorMap, RetrievalResult, _encode, build_map, knn
from .embedding import EmbeddingModel

DEFAULT_RADIUS_M = 25.0
DEFAULT_NS = (1, 5, 10)


@dataclass
class GroundTruth:
    """Per-query sets of correct reference indices, keyed by query id.

    A query with no reference inside the radius has an empty set; it is
    listed in ``unmatched`` and excluded from recall denominators.
    """

    matches: dict[str, frozenset[int]]

    @property
    def unmatched(self) -> list[str]:
        return [qid for qid, hit in self.matches.items() if not hit]


def ground_truth(
    query_poses: list[Pose] | np.ndarray,
    reference_poses: list[Pose] | np.ndarray,
    radius: float = DEFAULT_RADIUS_M,
    query_ids: list[str] | None = None,
) -> GroundTruth:
    """A query matches reference i iff their pose distance is <= radius.
    Distances are computed one query row at a time, so memory stays O(N)
    however many queries there are. ``query_ids`` name the queries in
    order: a count other than the poses' is a ShapeError, a repeated id
    a VprError.  A row of either side's poses that is not two real numbers
    is a ShapeError, and one that is NaN or infinite a NonFiniteValue,
    each naming the side and the row."""
    check_real(radius, "radius", positive=True)
    qp = _checked_poses(query_poses, "query row {}".format, (ShapeError, NonFiniteValue))
    rp = _checked_poses(reference_poses, "reference row {}".format, (ShapeError, NonFiniteValue))
    if query_ids is None:
        query_ids = [str(i) for i in range(len(qp))]
    if len(query_ids) != len(qp):
        raise ShapeError(f"{len(query_ids)} query ids for {len(qp)} query poses")
    matches = {
        qid: frozenset(np.flatnonzero(pose_distances(qp[qi : qi + 1], rp)[0] <= radius).tolist())
        for qi, qid in enumerate(query_ids)
    }
    if len(matches) < len(query_ids):
        repeated = next(qid for qid, n in Counter(query_ids).items() if n > 1)
        raise VprError(f"query id {repeated!r} is repeated")
    return GroundTruth(matches)


REPORT_HEADER = "model_fingerprint,dataset,N,recall,evaluated,total"


@dataclass
class RecallReport:
    """Recall@N values for one (model, dataset) pair."""

    dataset: str
    model_fingerprint: str
    ns: list[int]
    recalls: list[float]
    total_queries: int
    evaluated_queries: int

    def rows(self) -> list[str]:
        """CSV rows under REPORT_HEADER, one per cutoff. A field holding a
        comma, a quote or a line break is quoted as RFC 4180 says."""
        return [
            csv_line([
                self.model_fingerprint, self.dataset, n, f"{r:.6f}",
                self.evaluated_queries, self.total_queries,
            ])
            for n, r in zip(self.ns, self.recalls)
        ]


def format_recall(value: float) -> str:
    """Render a recall fraction the way result tables do: 0.942 -> '94.2'."""
    return f"{value * 100:.1f}"


def _check_ns(ns: list[int] | tuple[int, ...]) -> list[int] | tuple[int, ...]:
    """``ns`` if it holds at least one cutoff and each is an integer of at
    least 1, as ``--ns`` takes; otherwise a VprError."""
    if not len(ns):
        raise VprError("ns must hold at least one cutoff")
    for n in ns:
        check_count(n, "ns", 1)
    return ns


def recall_at_n(
    results: list[RetrievalResult],
    gt: GroundTruth,
    ns: list[int] | tuple[int, ...] = DEFAULT_NS,
    dataset: str = "",
    model_fingerprint: str = "",
) -> RecallReport:
    """Fraction of the ground truth's matched queries whose top-N holds a
    correct index; a matched query with no result is a miss.  A result
    for an unknown query is MissingGroundTruth, two results for one
    query a VprError, and so is an ``ns`` that ``_check_ns`` refuses."""
    ns = sorted(_check_ns(ns))
    ranked: dict[str, list[tuple[int, float]]] = {}
    for res in results:
        if res.query_id not in gt.matches:
            raise MissingGroundTruth(f"no ground truth for query {res.query_id!r}")
        if res.query_id in ranked:
            raise VprError(f"two results for query {res.query_id!r}")
        ranked[res.query_id] = res.ranked
    hits = np.zeros(len(ns), dtype=np.int64)
    evaluated = 0
    for qid, correct in gt.matches.items():
        if not correct:
            continue
        evaluated += 1
        first_hit = next(
            (rank for rank, (idx, _) in enumerate(ranked.get(qid, ())) if idx in correct),
            None,
        )
        if first_hit is not None:
            hits += [first_hit < n for n in ns]
    recalls = (hits / evaluated).tolist() if evaluated else [0.0] * len(ns)
    return RecallReport(
        dataset=dataset,
        model_fingerprint=model_fingerprint,
        ns=list(ns),
        recalls=recalls,
        total_queries=len(gt.matches),
        evaluated_queries=evaluated,
    )


def evaluate_model(
    model: EmbeddingModel,
    dataset: Dataset,
    radius: float = DEFAULT_RADIUS_M,
    ns: tuple[int, ...] = DEFAULT_NS,
    name: str = "",
) -> RecallReport:
    """Build map, retrieve every query, score Recall@N in one call.

    The queries go to knn directly: retrieve_all's model check would hash
    the model again, and the map was built by this model.  The ground
    truth is computed first, so whatever ``_check_ns``, ``record_poses``
    or ``ground_truth`` refuses is raised before any encoding."""
    _check_ns(ns)
    queries = dataset.queries
    gt = ground_truth(record_poses(queries), record_poses(dataset.references), radius,
                      query_ids=[q.id for q in queries])
    dmap = build_map(dataset, model)
    k = min(max(ns), dmap.size)
    results = [knn(dmap, d, k, query_id=q.id) for q, d in zip(queries, _encode(model, queries))]
    return recall_at_n(
        results, gt, ns, dataset=name, model_fingerprint=dmap.model_fingerprint.hex()
    )


def score_results(
    results: list[RetrievalResult], dataset: Dataset, dmap: DescriptorMap,
    radius: float, ns: tuple[int, ...], name: str,
) -> RecallReport:
    """Recall@N of results against the map: the ground truth matches the
    dataset's query poses and ids to ``dmap.poses``, and the report
    carries the map's model fingerprint."""
    queries = dataset.queries
    gt = ground_truth(record_poses(queries), dmap.poses, radius, query_ids=[q.id for q in queries])
    return recall_at_n(
        results, gt, ns, dataset=name, model_fingerprint=dmap.model_fingerprint.hex()
    )


def generalization_matrix(
    models: list[tuple[str, EmbeddingModel]],
    datasets: list[tuple[str, Dataset]],
    radius: float = DEFAULT_RADIUS_M,
    ns: tuple[int, ...] = DEFAULT_NS,
) -> list[list[RecallReport | Exception]]:
    """Cross-product evaluation; a failing cell records its error and the
    run continues. A bad radius or ``ns`` would fail every cell, so it
    raises."""
    check_real(radius, "radius", positive=True)
    _check_ns(ns)
    matrix: list[list[RecallReport | Exception]] = []
    for _, model in models:
        row: list[RecallReport | Exception] = []
        for dname, dataset in datasets:
            try:
                row.append(evaluate_model(model, dataset, radius, ns, name=dname))
            except VprError as exc:
                row.append(exc)
        matrix.append(row)
    return matrix


def format_matrix(
    models: list[str],
    datasets: list[str],
    matrix: list[list[RecallReport | Exception]],
    n: int = 1,
) -> str:
    """Aligned plain-text table of Recall@n, models as rows; a VprError
    naming ``n`` if a report has no Recall@n."""
    header = ["model \\ dataset", *datasets]
    lines = [header]
    for name, row in zip(models, matrix):
        cells = [name]
        for cell in row:
            if isinstance(cell, Exception):
                cells.append(type(cell).__name__)
            elif n not in cell.ns:
                raise VprError(f"n={n!r} is not among the report's cutoffs {list(cell.ns)}")
            else:
                cells.append(format_recall(cell.recalls[cell.ns.index(n)]))
        lines.append(cells)
    widths = [max(len(r[c]) for r in lines) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in lines
    )


def project_2d(descriptors: np.ndarray) -> np.ndarray:
    """Project rows onto the top-2 principal directions.

    Eigenvectors of the covariance; sign convention is that each
    component's largest-magnitude loading is positive.
    """
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ShapeError(f"need an (N>=3, D) matrix, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    if evals.size < 2 or evals[-2] <= max(float(np.trace(cov)), 1.0) * 1e-12:
        raise DegenerateSpectrum(
            "fewer than 2 principal directions with nonzero variance"
        )
    components = evecs[:, [-1, -2]]
    rows = np.argmax(np.abs(components), axis=0)
    components = components * np.sign(components[rows, [0, 1]])
    return centered @ components
