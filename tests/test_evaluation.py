import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit.dataset import pose_distances
from vprkit.errors import (
    DegenerateSpectrum,
    InconsistentManifest,
    MissingGroundTruth,
    ShapeError,
    VprError,
)
from vprkit.evaluation import format_matrix, format_recall
from vprkit.retrieval import RetrievalResult


def P(x, y=0.0):
    return vk.Pose(x, y)


class TestGroundTruth:
    def test_exact_pose_always_matches(self):
        gt = vk.ground_truth([P(10.0)], [P(0.0), P(10.0)], radius=25.0)
        assert 1 in gt.matches["0"]

    def test_hand_distances(self):
        gt = vk.ground_truth([P(20.0)], [P(0.0), P(30.0), P(60.0)], radius=25.0)
        assert gt.matches["0"] == {0, 1}  # distances 20, 10, 40

    def test_default_radius_is_25(self):
        from vprkit.evaluation import DEFAULT_RADIUS_M

        assert DEFAULT_RADIUS_M == 25.0

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_radius_must_be_finite(self, radius):
        with pytest.raises(VprError, match="radius"):
            vk.ground_truth([P(0.0)], [P(0.0)], radius=radius)

    def test_unmatched_queries_are_flagged(self):
        gt = vk.ground_truth([P(1000.0)], [P(0.0)], radius=25.0)
        assert gt.unmatched == ["0"]

    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c"], []])
    def test_query_ids_other_than_one_per_pose_are_a_shape_error(self, ids):
        """Fewer ids dropped queries silently; more raised a bare IndexError."""
        with pytest.raises(ShapeError, match=f"{len(ids)} query ids for 2 query poses"):
            vk.ground_truth([P(0.0), P(50.0)], [P(0.0)], query_ids=ids)

    def test_repeated_query_id_is_refused_naming_it(self):
        """The later query's empty set overwrote the earlier one's {0}."""
        with pytest.raises(VprError, match="query id 'q' is repeated"):
            vk.ground_truth([P(0.0), P(50.0), P(0.0)], [P(0.0)], query_ids=["q", "q", "r"])

    def test_symmetry_transposes_relation(self):
        rng = np.random.default_rng(0)
        qs = [P(float(x), float(y)) for x, y in rng.uniform(-50, 50, (8, 2))]
        rs = [P(float(x), float(y)) for x, y in rng.uniform(-50, 50, (6, 2))]
        fwd = vk.ground_truth(qs, rs, radius=30.0)
        rev = vk.ground_truth(rs, qs, radius=30.0)
        for qi in range(8):
            for ri in range(6):
                assert (ri in fwd.matches[str(qi)]) == (qi in rev.matches[str(ri)])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_refs=st.integers(0, 12),
        n_queries=st.integers(0, 6),
        radius=st.integers(1, 60),
        as_arrays=st.booleans(),
    )
    def test_per_query_rows_equal_the_matrix_formula(
        self, seed, n_refs, n_queries, radius, as_arrays
    ):
        """Half the references sit exactly at the radius from a query: a
        (3, 4, 5) triangle scaled by radius / 5 on a grid of integers."""
        rng = np.random.default_rng(seed)
        qs = rng.integers(-100, 100, size=(n_queries, 2)).astype(np.float64) * 5
        rs = rng.integers(-100, 100, size=(n_refs, 2)).astype(np.float64) * 5
        if n_queries:
            legs = np.array([[3, 4], [-4, 3], [0, -5], [5, 0]]) * radius
            anchors = qs[rng.integers(n_queries, size=n_refs // 2)]
            rs[: n_refs // 2] = anchors + legs[rng.integers(4, size=n_refs // 2)]
            radius *= 5
        ids = [f"q{i}" for i in range(n_queries)]
        if as_arrays:
            gt = vk.ground_truth(qs, rs, radius, query_ids=ids)
        else:
            gt = vk.ground_truth([P(*q) for q in qs], [P(*r) for r in rs], radius, query_ids=ids)
        dists = pose_distances(qs, rs)
        for qi, qid in enumerate(ids):
            assert gt.matches[qid] == frozenset(np.flatnonzero(dists[qi] <= radius).tolist())
        assert gt.unmatched == [qid for qid in ids if not gt.matches[qid]]


def result(qid, ranked):
    return RetrievalResult(query_id=qid, ranked=ranked)


class TestRecall:
    def test_single_correct_at_rank_one(self):
        gt = vk.GroundTruth(matches={"q": frozenset({0})})
        rep = vk.recall_at_n([result("q", [(0, 0.1), (1, 0.2)])], gt, ns=[1, 5])
        assert rep.recalls == [1.0, 1.0]

    def test_hand_enumeration_three_queries(self):
        gt = vk.GroundTruth(
            matches={"a": frozenset({0}), "b": frozenset({7}), "c": frozenset({9})}
        )
        results = [
            result("a", [(0, 0.1), (1, 0.2), (2, 0.3)]),  # correct at rank 1
            result("b", [(1, 0.1), (2, 0.2), (7, 0.3)]),  # correct at rank 3
            result("c", [(1, 0.1), (2, 0.2), (3, 0.3)]),  # never correct
        ]
        rep = vk.recall_at_n(results, gt, ns=[1, 5])
        np.testing.assert_allclose(rep.recalls, [1 / 3, 2 / 3])

    def test_table_style_formatting(self):
        assert format_recall(0.942) == "94.2"
        assert format_recall(0.977) == "97.7"

    def test_unknown_query_raises(self):
        gt = vk.GroundTruth(matches={"a": frozenset({0})})
        with pytest.raises(MissingGroundTruth):
            vk.recall_at_n([result("zzz", [(0, 0.1)])], gt)

    def test_empty_ground_truth_excluded_from_denominator(self):
        gt = vk.GroundTruth(matches={"a": frozenset({0}), "b": frozenset()})
        rep = vk.recall_at_n(
            [result("a", [(0, 0.1)]), result("b", [(0, 0.1)])], gt, ns=[1]
        )
        assert rep.evaluated_queries == 1
        assert rep.total_queries == 2
        assert rep.recalls == [1.0]

    def test_query_without_a_result_counts_as_a_miss(self):
        """Recall is over the ground truth: results for 1 of 4 queries
        score that query's hit once in 4."""
        gt = vk.ground_truth([P(0, 0)] * 4, [P(0, 0)], query_ids=["a", "b", "c", "d"])
        rep = vk.recall_at_n([result("b", [(0, 0.1)])], gt, ns=[1])
        assert rep.recalls == [0.25]
        assert (rep.evaluated_queries, rep.total_queries) == (4, 4)

    def test_two_results_for_one_query_are_rejected(self):
        gt = vk.GroundTruth(matches={"a": frozenset({0}), "b": frozenset({1})})
        with pytest.raises(VprError, match="'a'"):
            vk.recall_at_n([result("a", [(0, 0.1)]), result("a", [(1, 0.1)])], gt)

    def test_monotone_in_n_and_permutation_invariant(self):
        rng = np.random.default_rng(1)
        n_refs = 50
        results, matches = [], {}
        for qi in range(20):
            order = rng.permutation(n_refs)
            results.append(result(f"q{qi}", [(int(i), float(r)) for r, i in enumerate(order)]))
            matches[f"q{qi}"] = frozenset(rng.integers(0, n_refs, 3).tolist())
        gt = vk.GroundTruth(matches=matches)
        rep = vk.recall_at_n(results, gt, ns=[1, 2, 5, 10, 25])
        assert rep.recalls == sorted(rep.recalls)
        shuffled = [results[i] for i in rng.permutation(len(results))]
        rep2 = vk.recall_at_n(shuffled, gt, ns=[1, 2, 5, 10, 25])
        assert rep.recalls == rep2.recalls

    def test_agrees_with_brute_force_recomputation(self):
        # fresh distance loop + set membership, independent of recall_at_n
        rng = np.random.default_rng(2)
        refs = rng.normal(size=(50, 6))
        queries = rng.normal(size=(20, 6))
        ref_poses = [P(float(x), float(y)) for x, y in rng.uniform(0, 200, (50, 2))]
        q_poses = [P(float(x), float(y)) for x, y in rng.uniform(0, 200, (20, 2))]
        results = []
        for qi in range(20):
            d = np.linalg.norm(refs - queries[qi], axis=1)
            order = np.argsort(d, kind="stable")
            results.append(result(str(qi), [(int(i), float(d[i])) for i in order]))
        gt = vk.ground_truth(q_poses, ref_poses, radius=60.0)
        rep = vk.recall_at_n(results, gt, ns=[1, 5, 10])
        for j, n in enumerate([1, 5, 10]):
            hits = evaluated = 0
            for qi in range(20):
                correct = {
                    ri
                    for ri in range(50)
                    if q_poses[qi].distance(ref_poses[ri]) <= 60.0
                }
                if not correct:
                    continue
                evaluated += 1
                d = [float(np.linalg.norm(refs[ri] - queries[qi])) for ri in range(50)]
                top = sorted(range(50), key=lambda ri: (d[ri], ri))[:n]
                if any(t in correct for t in top):
                    hits += 1
            assert rep.recalls[j] == pytest.approx(hits / evaluated)


def test_evaluate_model_needs_query_poses(tiny_world, small_model):
    queries = [vk.ImageRecord(q.id, q.pixels) for q in tiny_world.queries]
    with pytest.raises(InconsistentManifest, match=repr(queries[0].id)):
        vk.evaluate_model(small_model, vk.Dataset(tiny_world.references, queries))


def test_evaluate_model_hashes_the_model_once_per_use(tiny_world, small_model, monkeypatch):
    """build_map records the fingerprint; the queries go to knn on that
    map without retrieve_all's check, and the report reads the fingerprint
    off the map instead of hashing the model again."""
    calls = []
    fingerprint = vk.EmbeddingModel.fingerprint

    def counting(model):
        calls.append(model)
        return fingerprint(model)

    monkeypatch.setattr(vk.EmbeddingModel, "fingerprint", counting)
    report = vk.evaluate_model(small_model, tiny_world, ns=(1,))
    assert len(calls) == 1
    monkeypatch.undo()
    assert report.model_fingerprint == small_model.fingerprint_hex()


class TestGeneralizationMatrix:
    def test_degenerate_single_cell(self, tiny_world, small_model):
        matrix = vk.generalization_matrix(
            [("m", small_model)], [("w", tiny_world)], ns=(1, 5)
        )
        direct = vk.evaluate_model(small_model, tiny_world, ns=(1, 5), name="w")
        assert matrix[0][0].recalls == direct.recalls

    def test_mismatched_model_records_error_and_continues(self, tiny_world, small_model):
        bad = vk.EmbeddingModel(weights=[np.eye(4)], biases=[np.zeros(4)])
        matrix = vk.generalization_matrix(
            [("bad", bad), ("ok", small_model)], [("w", tiny_world)], ns=(1,)
        )
        assert isinstance(matrix[0][0], ShapeError)
        assert isinstance(matrix[1][0], vk.RecallReport)
        text = format_matrix(["bad", "ok"], ["w"], matrix)
        assert "ShapeError" in text

    def test_a_cutoff_a_report_lacks_is_named(self):
        """It was a bare ``ValueError: 10 is not in list``."""
        report = vk.RecallReport("w", "f", [1, 5], [0.5, 1.0], 2, 2)
        assert format_matrix(["m"], ["w"], [[report]], n=5).endswith("100.0")
        with pytest.raises(VprError, match=re.escape("n=10 is not among the report's cutoffs [1, 5]")):
            format_matrix(["m"], ["w"], [[report]], n=10)


class TestProject2d:
    def test_shape_and_centering(self):
        rng = np.random.default_rng(3)
        coords = vk.project_2d(rng.normal(size=(40, 6)))
        assert coords.shape == (40, 2)
        assert np.all(np.abs(coords.mean(axis=0)) < 1e-9)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 4)) @ np.diag([3.0, 2.0, 0.5, 0.1])
        coords = vk.project_2d(x)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (x.shape[0] - 1)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        var1, var2 = coords.var(axis=0, ddof=1)
        assert var1 >= var2
        np.testing.assert_allclose(var1, evals[order[0]], atol=1e-6)
        np.testing.assert_allclose(var2, evals[order[1]], atol=1e-6)
        for c in range(2):
            expected = centered @ evecs[:, order[c]]
            got = coords[:, c]
            err = min(np.abs(got - expected).max(), np.abs(got + expected).max())
            assert err < 1e-6

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        coords = vk.project_2d(x)
        centered = x - x.mean(axis=0)
        for c in range(2):
            # recover loading by least squares; largest-magnitude entry positive
            v, *_ = np.linalg.lstsq(centered, coords[:, c], rcond=None)
            v /= np.linalg.norm(v)
            assert v[np.argmax(np.abs(v))] > 0

    @pytest.mark.parametrize("shape", [(2, 4), (6,), (3, 2, 2)])
    def test_fewer_than_three_rows_or_no_matrix_is_a_shape_error(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            vk.project_2d(np.arange(np.prod(shape), dtype=float).reshape(shape))

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            vk.project_2d(np.ones((5, 4)))

    def test_rank_one_degenerate(self):
        base = np.outer(np.arange(5.0), np.ones(4))
        with pytest.raises(DegenerateSpectrum):
            vk.project_2d(base)


@pytest.mark.parametrize("ns", [(1, 5), (0,)])
def test_evaluate_model_on_no_queries_evaluates_none(tiny_world, small_model, ns):
    """No query means no search, but an ns of (0,) is refused all the same,
    as --ns refuses it."""
    if ns == (0,):
        with pytest.raises(VprError, match="ns must be at least 1, got 0"):
            vk.evaluate_model(small_model, tiny_world.reference_only(), ns=ns)
        return
    report = vk.evaluate_model(small_model, tiny_world.reference_only(), ns=ns)
    assert report.evaluated_queries == report.total_queries == 0
