import dataclasses
import gc
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit.errors import (
    EmptyReferences,
    InconsistentManifest,
    InvalidMultiplicity,
    NumericalDivergence,
    ShapeError,
    VprError,
)
from vprkit.retrieval import _nearest
from vprkit.rsf import _hinge, _labeled_rows, _mine
import conftest
from conftest import kernel_digest


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def oracle_triplet_loss(f_q, f_p, f_n, margin):
    """The scalar hinge that triplet_loss computed before it became the
    one-row case of the batched hinge."""
    f_q, f_p, f_n = (np.asarray(v, dtype=np.float64) for v in (f_q, f_p, f_n))
    dqp_vec = f_q - f_p
    dqn_vec = f_q - f_n
    d_qp = float(np.linalg.norm(dqp_vec))
    d_qn = float(np.linalg.norm(dqn_vec))
    loss = d_qp - d_qn + margin
    zero = np.zeros_like(f_q)
    if loss <= 0:
        return 0.0, zero, zero.copy(), zero.copy()
    u_qp = dqp_vec / (d_qp + 1e-12)
    u_qn = dqn_vec / (d_qn + 1e-12)
    return loss, u_qp - u_qn, -u_qp, u_qn


def assert_same_hinge(got, want):
    """Loss and the three gradients: same type of loss, same shapes, same bytes."""
    assert type(got[0]) is type(want[0]) is float
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for g, w in zip(got[1:], want[1:]):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def assert_rows_are_the_oracle(f, margin, losses, grads):
    """Each row of a batched hinge equals the oracle on that row alone."""
    assert losses.shape == f.shape[1:2] and grads.shape == f.shape
    for i in range(f.shape[1]):
        row = (float(losses[i]), grads[0, i], grads[1, i], grads[2, i])
        assert_same_hinge(row, oracle_triplet_loss(f[0, i], f[1, i], f[2, i], margin))


class TestTripletLoss:
    def test_hinge_boundary_is_zero(self):
        f_q = unit([1.0, 0.0])
        f_n = unit([np.cos(0.1), np.sin(0.1)])
        m = float(np.linalg.norm(f_q - f_n))
        loss, *_ = vk.triplet_loss(f_q, f_q, f_n, m)
        assert loss == 0.0

    def test_equal_positive_negative_gives_margin(self):
        f_q = unit([1.0, 1.0])
        f_pn = unit([0.0, 1.0])
        loss, *_ = vk.triplet_loss(f_q, f_pn, f_pn, 0.25)
        assert loss == pytest.approx(0.25, abs=1e-15)

    def test_one_dimensional_hand_case(self):
        loss, g_q, g_p, g_n = vk.triplet_loss(
            np.array([0.0]), np.array([2.0]), np.array([1.0]), 0.5
        )
        assert loss == pytest.approx(1.5)
        assert g_q[0] == pytest.approx(0.0)  # (0-2)/2 - (0-1)/1
        assert g_p[0] == pytest.approx(1.0)
        assert g_n[0] == pytest.approx(-1.0)

    def test_zero_branch_has_zero_gradients(self):
        loss, g_q, g_p, g_n = vk.triplet_loss(
            np.array([0.0]), np.array([0.1]), np.array([5.0]), 0.5
        )
        assert loss == 0.0
        assert not g_q.any() and not g_p.any() and not g_n.any()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            vk.triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 0.1)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_margin_must_be_positive_and_finite(self, margin):
        f = unit([1.0, 2.0])
        with pytest.raises(VprError, match="margin must be positive and finite"):
            vk.triplet_loss(f, f, -f, margin)

    def test_formula_oracle_thousand_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(1, 8))
            f_q, f_p, f_n = rng.normal(size=(3, d))
            m = float(rng.uniform(0.01, 1.0))
            loss, *_ = vk.triplet_loss(f_q, f_p, f_n, m)
            direct = max(
                np.linalg.norm(f_q - f_p) - np.linalg.norm(f_q - f_n) + m, 0.0
            )
            assert abs(loss - direct) < 1e-12
            assert loss >= 0.0
            if np.linalg.norm(f_q - f_p) + m <= np.linalg.norm(f_q - f_n):
                assert loss == 0.0

    def test_full_composition_gradient_vs_finite_differences(self):
        # image -> head -> triplet loss, checked away from the hinge kink
        rng = np.random.default_rng(3)
        model = vk.init_model(hidden_dims=[5], output_dim=4, seed=2, input_dim=6)
        raws = rng.normal(size=(3, 6))
        margin = 0.5

        def objective():
            f_q = vk.forward(model, raws[0])
            f_p = vk.forward(model, raws[1])
            f_n = vk.forward(model, raws[2])
            return vk.triplet_loss(f_q, f_p, f_n, margin)[0]

        loss0 = objective()
        assert loss0 > 0.05
        f_q = vk.forward(model, raws[0])
        f_p = vk.forward(model, raws[1])
        f_n = vk.forward(model, raws[2])
        _, g_q, g_p, g_n = vk.triplet_loss(f_q, f_p, f_n, margin)
        total = vk.ParamGradients.zeros_like(model)
        total += vk.backward(model, raws[0], g_q)
        total += vk.backward(model, raws[1], g_p)
        total += vk.backward(model, raws[2], g_n)
        h = 1e-5
        worst = 0.0
        for k in range(len(model.weights)):
            for i in range(model.weights[k].shape[0]):
                for j in range(model.weights[k].shape[1]):
                    model.weights[k][i, j] += h
                    fp = objective()
                    model.weights[k][i, j] -= 2 * h
                    fm = objective()
                    model.weights[k][i, j] += h
                    num = (fp - fm) / (2 * h)
                    ana = total.weights[k][i, j]
                    worst = max(worst, abs(num - ana) / max(1e-8, abs(num), abs(ana)))
        assert worst < 1e-4


# Rows of a (3, T, D) hinge stack: free draws, and rows that pin a case.
ROW_KINDS = ("free", "q=p", "q=n", "all equal", "boundary")


@st.composite
def hinge_stacks(draw):
    """A (3, T, D) stack of q, p and n rows and a margin.  Unit-norm rows
    are what the head emits; raw rows mix scales.  A "boundary" row is a
    copy of row 0 with q = p and the margin set to |q - n| on that row,
    so its loss is exactly zero; other rows land on both sides of it."""
    t, d = draw(st.integers(1, 40)), draw(st.integers(1, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-3, 4, size=(3, t, 1))
    f = rng.normal(size=(3, t, d)) * scales
    if draw(st.booleans()):
        f /= np.linalg.norm(f, axis=-1, keepdims=True)
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=t, max_size=t))
    boundary = draw(st.booleans())
    if boundary:
        f[1, 0] = f[0, 0]
    for i, kind in enumerate(kinds):
        if kind == "q=p":
            f[1, i] = f[0, i]
        elif kind == "q=n":
            f[2, i] = f[0, i]
        elif kind == "all equal":
            f[1:, i] = f[0, i]
        elif kind == "boundary" and boundary:
            f[:, i] = f[:, 0]
    if boundary and float(np.linalg.norm(f[0, 0] - f[2, 0])) > 0:
        margin = float(np.linalg.norm(f[0, 0] - f[2, 0]))
    else:
        margin = draw(st.floats(1e-6, 10.0))
    return f, margin


class TestBatchedHinge:
    @settings(max_examples=300, deadline=None)
    @given(stack=hinge_stacks())
    def test_rows_equal_the_scalar_oracle_bit_for_bit(self, stack):
        f, margin = stack
        losses, grads = _hinge(f, margin)
        assert_rows_are_the_oracle(f, margin, losses, grads)
        for i in range(f.shape[1]):
            assert_same_hinge(
                vk.triplet_loss(f[0, i], f[1, i], f[2, i], margin),
                oracle_triplet_loss(f[0, i], f[1, i], f[2, i], margin),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(
            st.just(()),
            st.tuples(st.integers(1, 256)),
            st.tuples(st.integers(1, 16), st.integers(1, 16)),
        ),
        seed=st.integers(0, 2**32 - 1),
        same=st.sampled_from(["none", "q=p", "q=n"]),
        margin=st.floats(1e-6, 10.0),
    )
    def test_triplet_loss_of_any_shape_equals_the_oracle(self, shape, seed, same, margin):
        f_q, f_p, f_n = np.random.default_rng(seed).normal(size=(3, *shape))
        if same == "q=p":
            f_p = f_q.copy()
        elif same == "q=n":
            f_n = f_q.copy()
        assert_same_hinge(
            vk.triplet_loss(f_q, f_p, f_n, margin), oracle_triplet_loss(f_q, f_p, f_n, margin)
        )

    def test_the_boundary_is_an_exact_zero_and_nan_stays_nan(self):
        f = np.stack([unit([1.0, 0.0]), unit([1.0, 0.0]), unit([0.0, 1.0])])[:, None, :]
        f = np.concatenate([f, np.full_like(f, np.nan)], axis=1)
        losses, grads = _hinge(f, float(np.linalg.norm(f[0, 0] - f[2, 0])))
        assert losses[0] == 0.0 and not grads[:, 0].any()
        assert np.isnan(losses[1]) and np.isnan(grads[:, 1]).all()


@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0),
        ("batch_size", -1),
        ("negatives_per_query", 0),
        ("negatives_per_query", -1),
        ("margin", float("nan")),
        ("margin", float("inf")),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("positive_radius", float("nan")),
        ("positive_radius", -5.0),
        ("validation_radius", -1.0),
        ("validation_radius", 0.0),
        ("negative_radius", float("inf")),
        ("negative_radius", 5.0),  # below positive_radius
        ("validation_radius", float("nan")),
        ("epochs", -1),
        ("seed", -1),
        ("early_stop_patience", 0),
        ("early_stop_patience", -1),
        ("aug_multiplicity", 0),
        ("aug_multiplicity", -1),
    ],
)
def test_bad_train_config_is_a_vpr_error_naming_the_field(field, value):
    with pytest.raises(VprError, match=field):
        vk.TrainConfig(**{field: value})


@pytest.fixture(scope="module")
def stream(tiny_world_module):
    spec = vk.AugmentationSpec.from_string("appearance")
    return vk.FinetuneDataset(tiny_world_module.references, 3, spec, seed=8)


def _tiny_world():
    return vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=5,
            spacing=30.0,
            reference_style=vk.StyleParams(texture_family="blocks"),
            query_style=vk.StyleParams(texture_family="blocks"),
            queries_per_place=1,
            image_size=32,
            seed=4,
        )
    )


@pytest.fixture(scope="module")
def tiny_world_module():
    return _tiny_world()


class TestFinetuneStream:
    def test_cardinality_per_epoch(self, stream):
        for multiplicity in (1, 2, 4):
            s = dataclasses.replace(stream, multiplicity=multiplicity)
            assert len(s.realize_epoch(0)) == multiplicity * len(s.references)

    def test_queries_inherit_source_pose(self, stream):
        for src, query in stream.realize_epoch(2):
            assert query.pose == stream.references[src].pose

    def test_epochs_differ_but_replay_is_identical(self, stream):
        e0a = stream.realize_epoch(0)
        e0b = stream.realize_epoch(0)
        e1 = stream.realize_epoch(1)
        for (_, qa), (_, qb) in zip(e0a, e0b):
            np.testing.assert_array_equal(qa.pixels, qb.pixels)
        assert any(
            not np.array_equal(qa.pixels, q1.pixels)
            for (_, qa), (_, q1) in zip(e0a, e1)
        )

    def test_invalid_multiplicity(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(InvalidMultiplicity):
            vk.rsf_finetune(
                model, tiny_world_module, vk.TrainConfig(aug_multiplicity=0),
                vk.AugmentationSpec(),
            )

    def test_invalid_multiplicity_of_a_stream_built_directly(self, tiny_world_module):
        with pytest.raises(InvalidMultiplicity):
            vk.FinetuneDataset(tiny_world_module.references, 0, vk.AugmentationSpec(), seed=1)


class TestMining:
    def test_hard_negative_prefers_feature_space_closest(self):
        # references at x = 0, 10, 40, 100; query pose x=0; radius 25
        # candidates are x=40 and x=100; feature distances 0.9 and 0.4
        q_desc = np.array([1.0, 0.0])
        ref_descs = np.array(
            [[1.0, 0.0], [0.9, 0.1], [0.6, 0.67], [0.92, 0.05]]
        )
        assert np.linalg.norm(ref_descs[2] - q_desc) > np.linalg.norm(
            ref_descs[3] - q_desc
        )
        candidates = np.array([[False, False, True, True]])
        assert _nearest(ref_descs, q_desc[None], 1, candidates)[1].tolist() == [3]

    def test_mining_matches_brute_force_scan(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[16], output_dim=8, seed=6)
        config = vk.TrainConfig(negative_radius=25.0, seed=3)
        stream = vk.FinetuneDataset(
            tiny_world_module.references, 2, vk.AugmentationSpec(), seed=3
        )
        (q_raws, positives, negatives), skipped = vk.mine_triplets(
            model, stream, config, epoch=0
        )
        assert skipped == 0
        ref_descs = vk.forward_batch(
            model, np.stack([vk.extract_raw(r) for r in stream.references])
        )
        realized = stream.realize_epoch(0)
        assert len(positives) == len(negatives) == len(q_raws) == len(realized)
        for qi, (src, query) in enumerate(realized):
            assert positives[qi] == src
            np.testing.assert_array_equal(q_raws[qi], vk.extract_raw(query))
            q_desc = vk.forward(model, vk.extract_raw(query))
            best = None
            for ri, rp in enumerate(r.pose for r in stream.references):
                if query.pose.distance(rp) <= config.negative_radius:
                    continue
                d = float(np.linalg.norm(ref_descs[ri] - q_desc))
                if best is None or d < best[0]:
                    best = (d, ri)
            assert negatives[qi] == best[1]

    def test_singleton_candidate_is_always_mined(self):
        rng = np.random.default_rng(9)
        refs = [
            vk.ImageRecord(f"r{i}", rng.random((16, 16, 3)), vk.Pose(i * 5.0, 0.0))
            for i in range(3)
        ]
        refs.append(vk.ImageRecord("r3", rng.random((16, 16, 3)), vk.Pose(500.0, 0.0)))
        stream = vk.FinetuneDataset(refs, 1, vk.AugmentationSpec(), seed=0)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(negative_radius=25.0)
        (_, positives, negatives), skipped = vk.mine_triplets(model, stream, config, epoch=0)
        # queries sourced from r0..r2 can only use r3; r3's query uses any of r0..r2
        for positive, negative in zip(positives, negatives):
            if positive != 3:
                assert negative == 3

    def test_poseless_mode_reproducible_and_never_source(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(poseless=True, seed=5)
        stream = vk.FinetuneDataset(
            tiny_world_module.references, 4, vk.AugmentationSpec(), seed=5
        )
        runs = []
        for _ in range(2):
            negs = []
            for epoch in range(10):
                (_, positives, negatives), _ = vk.mine_triplets(model, stream, config, epoch)
                for positive, negative in zip(positives, negatives):
                    assert negative != positive
                    negs.append(negative)
            runs.append(negs)
        assert runs[0] == runs[1]

    def test_world_smaller_than_radius_skips_queries(self):
        rng = np.random.default_rng(2)
        refs = [
            vk.ImageRecord(f"r{i}", rng.random((16, 16, 3)), vk.Pose(i * 1.0, 0.0))
            for i in range(4)
        ]
        stream = vk.FinetuneDataset(refs, 1, vk.AugmentationSpec(), seed=0)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        (q_raws, positives, negatives), skipped = vk.mine_triplets(
            model, stream, vk.TrainConfig(negative_radius=25.0), epoch=0
        )
        assert q_raws.shape == (0, vk.embedding.RAW_DIM)
        assert len(positives) == len(negatives) == 0
        assert skipped == 4


class TestLabeledMining:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(12)
        config = vk.TrainConfig(
            positive_radius=10.0, negative_radius=25.0, negatives_per_query=2
        )
        total_skipped = total_mined = 0
        for trial in range(20):
            n_refs = int(rng.integers(3, 10))
            refs = [
                vk.ImageRecord(
                    f"r{i}", rng.random((16, 16, 3)),
                    vk.Pose(*rng.uniform(0, 60, size=2).tolist()),
                )
                for i in range(n_refs)
            ]
            queries = [
                vk.ImageRecord(
                    f"q{i}", rng.random((16, 16, 3)),
                    vk.Pose(*rng.uniform(-10, 70, size=2).tolist()),
                )
                for i in range(8)
            ]
            ds = vk.Dataset(references=refs, queries=queries)
            model = vk.init_model(hidden_dims=[8], output_dim=6, seed=trial)
            ref_raws = np.stack([vk.extract_raw(r) for r in refs])
            (q_raws, positives, negatives), skipped = _mine(
                model, ref_raws, *_labeled_rows(ds, config), config
            )

            ref_descs = vk.forward_batch(model, ref_raws)
            expected, expected_skipped = [], 0
            for qi, query in enumerate(queries):
                pose_d = [query.pose.distance(r.pose) for r in refs]
                positive = min(range(n_refs), key=lambda ri: (pose_d[ri], ri))
                far = [ri for ri in range(n_refs) if pose_d[ri] > config.negative_radius]
                if pose_d[positive] > config.positive_radius or not far:
                    expected_skipped += 1
                    continue
                q_desc = vk.forward(model, vk.extract_raw(query))
                far.sort(key=lambda ri: (float(np.linalg.norm(ref_descs[ri] - q_desc)), ri))
                expected += [(positive, neg, qi) for neg in far[: config.negatives_per_query]]
            assert list(zip(positives.tolist(), negatives.tolist())) == [e[:2] for e in expected]
            assert len(q_raws) == len(expected)
            for q_raw, (_, _, qi) in zip(q_raws, expected):
                np.testing.assert_array_equal(q_raw, vk.extract_raw(queries[qi]))
            assert skipped == expected_skipped
            total_skipped += skipped
            total_mined += len(positives)
        assert total_skipped > 0 and total_mined > 0  # both branches exercised

    def test_queries_without_poses_are_rejected(self, tiny_world_module):
        ds = vk.Dataset(
            references=tiny_world_module.references,
            queries=[
                vk.ImageRecord(q.id, q.pixels, pose=None) for q in tiny_world_module.queries
            ],
        )
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(InconsistentManifest):
            vk.train(model, ds, vk.TrainConfig(epochs=1))


class TestTrain:
    @pytest.mark.parametrize(
        "data",
        [vk.Dataset([]), vk.FinetuneDataset([], 1, vk.AugmentationSpec(), seed=0)],
        ids=["labeled", "stream"],
    )
    def test_empty_references_are_rejected(self, data):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(EmptyReferences):
            vk.train(model, data, vk.TrainConfig(epochs=1))

    @pytest.mark.parametrize("poseless", [False, True])
    def test_mining_an_empty_stream_is_empty_references(self, poseless):
        stream = vk.FinetuneDataset([], 1, vk.AugmentationSpec(), seed=0)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(EmptyReferences):
            vk.mine_triplets(model, stream, vk.TrainConfig(poseless=poseless), epoch=0)
        with pytest.raises(EmptyReferences):
            stream.epoch_raws(0)

    def test_poseless_labeled_dataset_is_rejected(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(VprError, match="poseless mining applies only to reference-set"):
            vk.train(model, tiny_world_module, vk.TrainConfig(epochs=1, poseless=True))

    def test_labeled_dataset_without_queries_is_rejected(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(VprError, match="labeled dataset with no queries"):
            vk.train(model, tiny_world_module.reference_only(), vk.TrainConfig(epochs=1))

    def test_epoch_that_mines_no_triplet_is_rejected(self):
        rng = np.random.default_rng(2)
        refs = [
            vk.ImageRecord(f"r{i}", rng.random((16, 16, 3)), vk.Pose(i * 1.0, 0.0))
            for i in range(4)
        ]
        stream = vk.FinetuneDataset(refs, 1, vk.AugmentationSpec(), seed=0)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        with pytest.raises(VprError, match="epoch 0 mined no triplet: 4 queries skipped"):
            vk.train(model, stream, vk.TrainConfig(epochs=2))

    def test_poseless_mining_needs_two_references(self, tiny_world_module):
        stream = vk.FinetuneDataset(
            tiny_world_module.references[:1], 2, vk.AugmentationSpec(), seed=0
        )
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(poseless=True)
        with pytest.raises(VprError, match="at least two references, got 1"):
            vk.mine_triplets(model, stream, config, epoch=0)

    def test_validation_without_queries_is_rejected(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        stream = vk.FinetuneDataset(
            tiny_world_module.references, 1, vk.AugmentationSpec(), seed=0
        )
        with pytest.raises(VprError, match="no queries"):
            vk.train(
                model, stream, vk.TrainConfig(epochs=1),
                validation=tiny_world_module.reference_only(),
            )

    def test_zero_epochs_is_identity(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        stream = vk.FinetuneDataset(
            tiny_world_module.references, 1, vk.AugmentationSpec(), seed=0
        )
        out, log = vk.train(model, stream, vk.TrainConfig(epochs=0))
        assert out.fingerprint() == model.fingerprint()
        assert log.step_losses == []

    def test_log_structure(self, tiny_world_module):
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        stream = vk.FinetuneDataset(
            tiny_world_module.references, 2, vk.AugmentationSpec(), seed=0
        )
        config = vk.TrainConfig(epochs=3, batch_size=4, early_stop_patience=99)
        _, log = vk.train(model, stream, config, validation=tiny_world_module)
        n_triplets = 2 * len(stream.references)
        steps_per_epoch = -(-n_triplets // 4)
        assert len(log.step_losses) == 3 * steps_per_epoch
        assert len(log.epoch_val_recall1) == 3
        assert len(log.epoch_mean_loss) == 3
        assert len(log.epoch_seconds) == 3
        assert log.mode == "pose"

    def test_descent_on_fixed_mined_set(self, tiny_world_module):
        model = vk.init_model(seed=1)
        stream = vk.FinetuneDataset(
            tiny_world_module.references,
            3,
            vk.AugmentationSpec.from_string("appearance"),
            seed=0,
        )
        config = vk.TrainConfig(
            epochs=6, learning_rate=1e-2, margin=0.4, batch_size=8,
            early_stop_patience=99,
        )
        _, log = vk.train(model, stream, config)
        assert log.epoch_mean_loss[-1] < log.epoch_mean_loss[0]

    def test_each_image_is_extracted_at_most_once(self, monkeypatch):
        """Across two train() runs with validation, one evaluate_model and
        a 3-model generalization_matrix, each reference and validation
        image is extracted at most once, and every result equals the same
        calls made on fresh copies of the records (empty caches)."""

        def world(seed, family):
            return vk.generate_synthetic(
                vk.SynthWorldSpec(
                    place_count=6,
                    spacing=30.0,
                    reference_style=vk.StyleParams(texture_family="blocks"),
                    query_style=vk.StyleParams(
                        texture_family=family, brightness_offset=-0.2, noise_sigma=0.05
                    ),
                    queries_per_place=2,
                    image_size=32,
                    seed=seed,
                )
            )

        def fresh(ds):
            def copy(recs):
                return [vk.ImageRecord(r.id, r.pixels.copy(), r.pose) for r in recs]

            return vk.Dataset(copy(ds.references), copy(ds.queries))

        def calls(target, validation, prepare):
            model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
            models, out = [("init", model)], []
            for epochs in (1, 4):
                stream = vk.FinetuneDataset(
                    prepare(target).references, 2, vk.AugmentationSpec(), seed=0
                )
                config = vk.TrainConfig(
                    epochs=epochs, learning_rate=0.05, batch_size=4, early_stop_patience=99
                )
                trained, log = vk.train(model, stream, config, validation=prepare(validation))
                models.append((f"e{epochs}", trained))
                params = [p.tobytes() for p in trained.weights + trained.biases]
                out.append((params, log.epoch_val_recall1, log.selected_epoch))
            out.append(vk.evaluate_model(models[-1][1], prepare(target)).recalls)
            matrix = vk.generalization_matrix(
                models, [("val", prepare(validation)), ("target", prepare(target))]
            )
            out.append([[cell.recalls for cell in row] for row in matrix])
            return out

        target, validation = world(9, "blocks"), world(4, "stripes")
        images = [*target.references, *target.queries, *validation.references, *validation.queries]
        counts = Extractions(monkeypatch, images)
        reused = calls(target, validation, lambda ds: ds)
        assert [counts.of(rec) for rec in images] == [1] * len(images)
        assert reused == calls(target, validation, fresh)

    def test_determinism_bit_identical_parameters(self, tiny_world_module):
        config = vk.TrainConfig(epochs=2, learning_rate=1e-2, margin=0.4, seed=7)
        spec = vk.AugmentationSpec.from_string("appearance,viewpoint")
        outs = []
        for _ in range(2):
            model = vk.init_model(seed=1)
            out, _ = vk.rsf_finetune(model, tiny_world_module, config, spec)
            outs.append(out)
        assert outs[0].fingerprint() == outs[1].fingerprint()


class CountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.accesses = 0

    def __getitem__(self, idx):
        self.accesses += 1
        return super().__getitem__(idx)

    def __iter__(self):
        self.accesses += 1
        return super().__iter__()


class TestHygiene:
    def test_rsf_never_reads_test_queries(self, tiny_world_module):
        counting = CountingList(tiny_world_module.queries)
        ds = vk.Dataset(references=tiny_world_module.references, queries=counting)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(epochs=2, seed=0)
        spec = vk.AugmentationSpec.from_string("appearance")
        vk.rsf_finetune(model, ds, config, spec)
        assert counting.accesses == 0



@pytest.fixture(scope="module")
def labeled_split():
    world = vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=6,
            spacing=30.0,
            reference_style=vk.StyleParams(texture_family="blocks"),
            query_style=vk.StyleParams(texture_family="stripes", brightness_offset=-0.2),
            queries_per_place=3,
            image_size=32,
            seed=2,
        )
    )
    return vk.split_validation(world, 0.3, seed=5)


def _rsf_run(**overrides):
    def run(tiny_world, _split):
        config = vk.TrainConfig(
            epochs=3, learning_rate=1e-2, margin=0.4, batch_size=4,
            early_stop_patience=99, seed=7, **overrides,
        )
        spec = vk.AugmentationSpec.from_string("appearance,viewpoint")
        model = vk.init_model(hidden_dims=[16], output_dim=8, seed=1)
        return vk.rsf_finetune(model, tiny_world, config, spec)

    return run


def _labeled_run(validate, batch_size):
    # 13 training queries x 3 negatives = 39 triplets: batches of 4 and 5 are ragged.
    def run(_tiny_world, split):
        train_split, val_split = split
        config = vk.TrainConfig(
            epochs=3, learning_rate=1e-2, margin=0.4, batch_size=batch_size,
            negatives_per_query=3, early_stop_patience=99, seed=9,
        )
        model = vk.init_model(hidden_dims=[16], output_dim=8, seed=2)
        return vk.train(model, train_split, config, validation=val_split if validate else None)

    return run


# (run, {BLAS kernel: (sha256 of the trained parameters as
# EmbeddingModel.fingerprint, sha256 of the float64 step losses)}).  The
# SkylakeX digests were recorded when each triplet was still a Python
# object; mining into aligned index arrays must not move a bit.
TRAINING_BITS = {
    "pose-rsf": (
        _rsf_run(),
        {
            "SkylakeX": (
                "e3d244564d90d1c734590d3091f1c43a2358849466934648f42e7957da615a4e",
                "2de4a3918708f00ba31b7a09907f3a9b9becbddab40c9bb58b63c0e9110c6350",
            ),
            "Haswell": (
                "3daed96f9783922ec88c039ca79d48d61538b8fbe3d33fe784f155568c6818ce",
                "ca21b9d15da102fc41e4003f61480015759ae87ad1e9c4140cdee546ca136c67",
            ),
        },
    ),
    "poseless-rsf": (
        _rsf_run(poseless=True),
        {
            "SkylakeX": (
                "4dc80511a232ec0659d89c5766bb143cd7f025e0cb63de28ddd1df1e100c9a07",
                "c1830237b5cd53a41a53038c30e1323efa4e69c6e8a2d99de39bb47c42fd56e4",
            ),
            "Haswell": (
                "1015372ae0cd823379eda12c889a1f947efeb5b1cbdbd9baa9bbc177b54771f6",
                "591b2343809368eb36da064a22dd6793ac845b588c0e464cc97bdf0783a901ba",
            ),
        },
    ),
    "two-negatives": (
        _rsf_run(negatives_per_query=2),
        {
            "SkylakeX": (
                "7bfa51d36a01373475d832586a7100945f8558dec688a5d2d351f08fbd97d15b",
                "335c35d4f6d924f03b1412286b0e3aa010dde89a48bb76f08c550f5dae18fda4",
            ),
            "Haswell": (
                "9b43ef439b3dac4b93f5af1bbc17cba084062e9f8c91f7e83a38c0d7d7ab56a2",
                "e5ba9cb9b4a6a5b5a8980bfafff02e8436cc954f9dd99c9530297884bc267f8d",
            ),
        },
    ),
    "labeled-validated": (
        _labeled_run(True, 4),
        {
            "SkylakeX": (
                "c53c82ebdb8619b44e0dbf9a6f7a8ff06da7150c1421f0b3875d5f2225c1e29a",
                "fc8ed590b7588ecca72ebb6d29b4fbf05ecb6f36890cc650047e9f344ab1a389",
            ),
            "Haswell": (
                "4ff809cd888ff894485230ff91c15d1fdabdc7335d3bb2a19aa19aa9391e3cf8",
                "aa159e03507f15e1018eaaf5e01d1df044f88255c291d48e9bb86aaf19615216",
            ),
        },
    ),
    "labeled-ragged-batches": (
        _labeled_run(False, 5),
        {
            "SkylakeX": (
                "c3f8f39d7c207822b5f6feddaed7d3edd9fd2aea6ead88704b9c5a93033080ed",
                "1769f18b25b18faa889601d452ad961ab23545f3ce4127762f21a383dcdd93eb",
            ),
            "Haswell": (
                "8876c08e63bc852fd24be72400782ce26ee76bf170ba683490e85dcc0bd7a583",
                "a533b972af4d6048203b9f1a0899ec71978beef90b40f8ed7b06bda52d25b05e",
            ),
        },
    ),
}


def test_a_kernel_with_no_recorded_digest_fails_naming_it(monkeypatch):
    monkeypatch.setattr(conftest, "openblas_corename", lambda: "Prescott")
    with pytest.raises(pytest.fail.Exception, match="OpenBLAS kernel 'Prescott'"):
        kernel_digest(TRAINING_BITS["pose-rsf"][1])


# The tests whose digests are keyed by BLAS kernel, by pytest node id.
KERNEL_KEYED = [
    *(f"tests/test_rsf.py::test_training_bits_match_the_parent[{case}]" for case in TRAINING_BITS),
    "tests/test_rsf.py::test_epoch_grad_norm_is_the_mean_applied_gradient_norm[pose-rsf-4]",
    "tests/test_rsf.py::test_epoch_grad_norm_is_the_mean_applied_gradient_norm"
    "[labeled-ragged-batches-5]",
    "tests/test_rsf.py::TestStreamReuse::"
    "test_poseless_after_the_pose_arm_trains_the_bits_of_poseless_alone",
    "tests/test_embedding.py::TestExtractRaw::test_domain_gap_raws_are_pinned",
]


def test_the_kernel_keyed_digests_hold_under_a_second_kernel():
    """Run from the SkylakeX kernel, the digest tests pass again in a child
    process on the Haswell kernel, so that a change adding a dependence on
    the BLAS kernel fails here at once."""
    kernel = conftest.openblas_corename()
    if kernel != "SkylakeX":
        pytest.skip(f"the second-kernel step runs from SkylakeX; this process loaded {kernel!r}")
    root = Path(__file__).resolve().parent.parent
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *KERNEL_KEYED],
        cwd=root, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, timeout=600,
    )
    assert "OpenBLAS kernel Haswell" in child.stdout, child.stdout[-2000:]
    assert child.returncode == 0, child.stdout[-4000:]
    assert f"{len(KERNEL_KEYED)} passed" in child.stdout


@pytest.mark.parametrize("case", TRAINING_BITS)
def test_training_bits_match_the_parent(case, tiny_world_module, labeled_split):
    run, digests = TRAINING_BITS[case]
    params_sha, losses_sha = kernel_digest(digests)
    model, log = run(tiny_world_module, labeled_split)
    losses = np.asarray(log.step_losses, dtype=np.float64).tobytes()
    assert model.fingerprint_hex() == params_sha
    assert hashlib.sha256(losses).hexdigest() == losses_sha


@pytest.mark.parametrize("case", TRAINING_BITS)
def test_log_counts_every_triplet_and_every_active_one(
    case, tiny_world_module, labeled_split, monkeypatch
):
    """Per epoch, TrainLog's triplet and active-triplet (loss > 0) counts
    equal the rows of the hinge's calls and their positive losses, and
    every row is the scalar oracle's hinge, bit for bit."""
    losses = []
    hinge = vk.rsf._hinge

    def recording(f, margin):
        out = hinge(f, margin)
        assert_rows_are_the_oracle(f, margin, *out)
        losses.extend(out[0].tolist())
        return out

    monkeypatch.setattr(vk.rsf, "_hinge", recording)
    _, log = TRAINING_BITS[case][0](tiny_world_module, labeled_split)
    assert sum(log.epoch_triplets) == len(losses)
    assert len(log.epoch_triplets) == len(log.epoch_active_triplets) == len(log.epoch_seconds)
    ends = np.cumsum(log.epoch_triplets)
    for start, end, active in zip(ends - log.epoch_triplets, ends, log.epoch_active_triplets):
        assert type(active) is int
        assert active == sum(loss > 0 for loss in losses[start:end])
    assert 0 < sum(log.epoch_active_triplets) < len(losses)


@pytest.mark.parametrize("batch_size", [16, 39])
def test_each_step_loss_sums_its_rows_in_order(batch_size, labeled_split, monkeypatch):
    """The step loss is the left-to-right sum of the hinge's rows over the
    batch size; NumPy's pairwise sum regroups batches of eight or more."""
    calls = []
    hinge = vk.rsf._hinge

    def recording(f, margin):
        out = hinge(f, margin)
        calls.append(out[0].tolist())
        return out

    monkeypatch.setattr(vk.rsf, "_hinge", recording)
    _, log = _labeled_run(False, batch_size)(None, labeled_split)
    want = []
    for losses in calls:
        total = 0.0
        for loss in losses:
            total += loss
        want.append(total / len(losses))
    assert np.asarray(log.step_losses).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_head_weight_is_a_numerical_divergence(value):
    """A nan, or an inf that the normalization turns into nan, reaches the
    first step's loss; training stops there instead of stepping on."""
    model = vk.init_model(hidden_dims=[16], output_dim=8, seed=1)
    model.weights[-1][0, 0] = value
    config = vk.TrainConfig(epochs=3, learning_rate=1e-2, margin=0.4, batch_size=4, seed=7)
    spec = vk.AugmentationSpec.from_string("appearance,viewpoint")
    with np.errstate(invalid="ignore"), pytest.raises(
        NumericalDivergence, match="non-finite loss at epoch 0, step 0$"
    ):
        vk.rsf_finetune(model, _tiny_world(), config, spec)


@pytest.mark.parametrize("case", TRAINING_BITS)
def test_log_times_each_epochs_stages(case, tiny_world_module, labeled_split):
    """Mining, the batch loop and validation: one value per epoch each,
    none negative, adding up to at most the epoch's seconds."""
    _, log = TRAINING_BITS[case][0](tiny_world_module, labeled_split)
    stages = [log.epoch_mine_seconds, log.epoch_step_seconds, log.epoch_validate_seconds]
    assert all(len(stage) == len(log.epoch_seconds) > 0 for stage in stages)
    for epoch, total in enumerate(log.epoch_seconds):
        seconds = [stage[epoch] for stage in stages]
        assert min(seconds) >= 0 and sum(seconds) <= total


@pytest.mark.parametrize(
    "epochs, recalls, reason, ran",
    [
        (4, [0.2, 0.4, 0.4, 0.6], "epochs", 4),
        (0, [], "epochs", 0),
        (9, [0.6, 0.4, 0.2, 0.8], "patience", 3),  # patience 2 fires after epoch 2
        (3, [0.6, 0.4, 0.2], "patience", 3),  # it fires in the last epoch
    ],
)
def test_log_says_why_training_stopped(
    epochs, recalls, reason, ran, tiny_world_module, monkeypatch
):
    scores = iter(recalls)  # epoch e validates at recalls[e]
    monkeypatch.setattr(
        vk.rsf, "evaluate_model",
        lambda *a, **k: vk.RecallReport("", "", [1], [next(scores)], 1, 1),
    )
    stream = vk.FinetuneDataset(tiny_world_module.references, 1, vk.AugmentationSpec(), seed=0)
    config = vk.TrainConfig(epochs=epochs, batch_size=4, early_stop_patience=2)
    model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
    _, log = vk.train(model, stream, config, validation=tiny_world_module)
    assert log.stop_reason == reason
    assert len(log.epoch_seconds) == len(log.epoch_grad_norm) == ran


@pytest.mark.parametrize("case, batch_size", [("pose-rsf", 4), ("labeled-ragged-batches", 5)])
def test_epoch_grad_norm_is_the_mean_applied_gradient_norm(
    case, batch_size, tiny_world_module, labeled_split, monkeypatch
):
    """Per epoch, the mean over its steps of the L2 norm of every weight
    and bias gradient as applied, which the log only reads."""
    norms = []
    step = vk.rsf.apply_gradients

    def recording(model, grads, lr):
        arrays = grads.weights + grads.biases
        norms.append(np.sqrt(sum(np.sum(np.square(g)) for g in arrays)))
        step(model, grads, lr)

    monkeypatch.setattr(vk.rsf, "apply_gradients", recording)
    model, log = TRAINING_BITS[case][0](tiny_world_module, labeled_split)
    assert model.fingerprint_hex() == kernel_digest(TRAINING_BITS[case][1])[0]
    steps = [-(-triplets // batch_size) for triplets in log.epoch_triplets]
    assert sum(steps) == len(norms) == len(log.step_losses)
    ends = np.cumsum(steps)
    want = [np.mean(norms[end - n : end]) for n, end in zip(steps, ends)]
    assert all(type(v) is float and v > 0 for v in log.epoch_grad_norm)
    np.testing.assert_allclose(log.epoch_grad_norm, want, rtol=1e-12)


class Extractions:
    """Counts extract_raw calls, made here or in a forked realization
    worker, in shared memory: one slot per watched record (a fork keeps
    object ids) and a last one for every other record.  len() is the
    number of calls."""

    def __init__(self, monkeypatch, watched=()):
        self.slots = {id(rec): i for i, rec in enumerate(watched)}
        self.counts = multiprocessing.Array("q", len(self.slots) + 1)
        other = len(self.slots)
        real = vk.embedding.extract_raw

        def counting(rec):
            with self.counts.get_lock():
                self.counts[self.slots.get(id(rec), other)] += 1
            return real(rec)

        monkeypatch.setattr(vk.embedding, "extract_raw", counting)

    def __len__(self):
        return sum(self.counts[:])

    def of(self, rec):
        return self.counts[self.slots[id(rec)]]


class TestStreamReuse:
    """rsf_finetune keeps the last stream on the dataset it adapts to and
    reuses it only for the same records, multiplicity, spec and seed."""

    def test_poseless_after_the_pose_arm_trains_the_bits_of_poseless_alone(
        self, monkeypatch
    ):
        params_sha, losses_sha = kernel_digest(TRAINING_BITS["poseless-rsf"][1])
        extracted = Extractions(monkeypatch)
        world = _tiny_world()
        _rsf_run()(world, None)
        before = len(extracted)
        shared, shared_log = _rsf_run(poseless=True)(world, None)
        assert len(extracted) == before  # the pose arm's stream, reused
        alone, alone_log = _rsf_run(poseless=True)(_tiny_world(), None)
        for model, log in ((shared, shared_log), (alone, alone_log)):
            losses = np.asarray(log.step_losses, dtype=np.float64).tobytes()
            assert model.fingerprint_hex() == params_sha
            assert hashlib.sha256(losses).hexdigest() == losses_sha

    def test_only_the_same_stream_is_reused(self, monkeypatch):
        world = _tiny_world()
        n = len(world.references)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        base = vk.TrainConfig(epochs=1, aug_multiplicity=2, seed=3)
        appearance = vk.AugmentationSpec.from_string("appearance")
        viewpoint = vk.AugmentationSpec.from_string("viewpoint")
        extracted = Extractions(monkeypatch)

        def extractions(ds, spec=appearance, **changes):
            start = len(extracted)
            vk.rsf_finetune(model, ds, dataclasses.replace(base, **changes), spec)
            return len(extracted) - start

        assert extractions(world) == n + 2 * n  # references, then one epoch of queries
        assert extractions(world) == 0
        assert extractions(world, poseless=True, learning_rate=0.5) == 0
        assert extractions(world, seed=4) == 2 * n
        assert extractions(world, seed=3) == 2 * n  # only the last stream is kept
        assert extractions(world, viewpoint) == 2 * n
        assert extractions(world, aug_multiplicity=3) == 3 * n
        # Records with equal pixels are other records: extracted anew.
        copies = vk.Dataset([vk.ImageRecord(r.id, r.pixels, r.pose) for r in world.references])
        assert extractions(copies, aug_multiplicity=3) == n + 3 * n
        # Another dataset over the same records has its own stream.
        assert extractions(vk.Dataset(world.references), aug_multiplicity=3) == 3 * n
        extra = vk.ImageRecord("r9", world.references[0].pixels.copy(), vk.Pose(900.0, 0.0))
        world.references.append(extra)
        assert extractions(world, aug_multiplicity=3) == 1 + 3 * (n + 1)
        assert extractions(world, aug_multiplicity=3) == 0

    def test_the_stream_is_freed_with_its_dataset(self):
        world = _tiny_world()
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        vk.rsf_finetune(model, world, vk.TrainConfig(epochs=1), vk.AugmentationSpec())
        stream = weakref.ref(world._rsf_stream)
        del world
        gc.collect()
        assert stream() is None

    @settings(max_examples=20, deadline=None)
    @given(
        multiplicity=st.integers(1, 3),
        label=st.sampled_from(["none", "appearance", "viewpoint", "appearance,viewpoint"]),
        seed=st.integers(0, 2**32 - 1),
        epoch=st.integers(0, 50),
        n_refs=st.integers(1, 5),
    )
    def test_epoch_raws_equal_a_fresh_realization(
        self, tiny_world_module, multiplicity, label, seed, epoch, n_refs
    ):
        refs = tiny_world_module.references[:n_refs]
        spec = vk.AugmentationSpec.from_string(label)
        stream = vk.FinetuneDataset(refs, multiplicity, spec, seed)
        sources, raws = stream.epoch_raws(epoch)
        fresh = vk.FinetuneDataset(
            [vk.ImageRecord(r.id, r.pixels.copy(), r.pose) for r in refs],
            multiplicity, spec, seed,
        ).realize_epoch(epoch)
        assert sources.dtype == np.int64
        assert sources.tolist() == [src for src, _ in fresh]
        assert raws.tobytes() == np.stack([vk.extract_raw(q) for _, q in fresh]).tobytes()
        assert not sources.flags.writeable and not raws.flags.writeable
        memo = stream.epoch_raws(epoch)
        assert memo[0] is sources and memo[1] is raws

    @pytest.mark.parametrize("poseless", [False, True])
    def test_mined_arrays_cannot_write_into_the_memo(self, tiny_world_module, poseless):
        stream = vk.FinetuneDataset(tiny_world_module.references, 2, vk.AugmentationSpec(), 5)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(poseless=poseless, negative_radius=40.0)
        triplets, _ = vk.mine_triplets(model, stream, config, epoch=0)
        memo = [a.copy() for a in stream.epoch_raws(0)]
        for arr in triplets:
            try:
                arr[...] = 0
            except ValueError:  # a read-only view of the memo
                pass
        assert all(a.tobytes() == b.tobytes() for a, b in zip(stream.epoch_raws(0), memo))

    @pytest.mark.parametrize("poseless", [False, True])
    def test_errors_arrive_in_the_same_order(self, poseless):
        """Realizing comes first: a 1x8 warp is a ShapeError before a
        missing pose is an InconsistentManifest, on every call."""
        pixels = np.random.default_rng(0).random((1, 8, 3))
        ds = vk.Dataset([vk.ImageRecord(f"r{i}", pixels, None) for i in range(4)])
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(epochs=1, poseless=poseless)
        for _ in range(2):
            with pytest.raises(ShapeError, match="1x8"):
                vk.rsf_finetune(model, ds, config, vk.AugmentationSpec.from_string("viewpoint"))
        appearance = vk.AugmentationSpec.from_string("appearance")
        if poseless:  # needs no pose; the pose arm after it reuses its epoch
            vk.rsf_finetune(model, ds, config, appearance)
        for _ in range(2):
            with pytest.raises(InconsistentManifest, match="'r0' has no pose"):
                vk.rsf_finetune(model, ds, dataclasses.replace(config, poseless=False), appearance)


class TestStreamEquality:
    """Streams are equal by record identity, multiplicity, spec and seed."""

    def test_equal_streams_hold_the_same_records(self, tiny_world_module):
        refs = tiny_world_module.references
        spec = vk.AugmentationSpec.from_string("appearance")
        stream = vk.FinetuneDataset(refs, 2, spec, 3)
        same_spec = vk.AugmentationSpec.from_string("appearance")
        assert stream == vk.FinetuneDataset(tuple(refs), 2, same_spec, 3)
        stream.epoch_raws(0)  # kept epochs are not compared
        assert stream == vk.FinetuneDataset(list(refs), 2, spec, 3)
        copies = [vk.ImageRecord(r.id, r.pixels.copy(), r.pose) for r in refs]
        others = [
            vk.FinetuneDataset(refs, 3, spec, 3),
            vk.FinetuneDataset(refs, 2, vk.AugmentationSpec(), 3),
            vk.FinetuneDataset(refs, 2, spec, 4),
            vk.FinetuneDataset(refs[::-1], 2, spec, 3),
            vk.FinetuneDataset(refs[:-1], 2, spec, 3),
            vk.FinetuneDataset(refs + refs[:1], 2, spec, 3),
            # Equal pixels, poses and ids are still other records.
            vk.FinetuneDataset(copies, 2, spec, 3),
        ]
        assert all(stream != other for other in others)
        assert stream != None  # noqa: E711

    def test_a_none_stream_realizes_one_epoch(self, monkeypatch):
        world = _tiny_world()
        n = len(world.references)
        extracted = Extractions(monkeypatch)
        for ref in world.references:
            ref.raw
        none = vk.AugmentationSpec.from_string("none")
        stream = vk.FinetuneDataset(world.references, 3, none, 2)
        first = stream.epoch_raws(0)
        assert all(stream.epoch_raws(epoch) is first for epoch in (1, 7, 50))
        assert len(extracted) == n + 3 * n and len(stream._epochs) == 1
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        vk.train(model, stream, vk.TrainConfig(epochs=4, early_stop_patience=99))
        assert len(extracted) == n + 3 * n

    def test_a_none_streams_poseless_negatives_still_follow_the_epoch(self, tiny_world_module):
        stream = vk.FinetuneDataset(
            tiny_world_module.references, 4, vk.AugmentationSpec.from_string("none"), 5
        )
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        config = vk.TrainConfig(poseless=True)
        (_, _, first), _ = vk.mine_triplets(model, stream, config, epoch=0)
        (_, _, second), _ = vk.mine_triplets(model, stream, config, epoch=1)
        assert first.tolist() != second.tolist()


def _cpus(monkeypatch, count):
    """Let this process run on `count` CPUs, as the worker count reads it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _counting_forks(monkeypatch):
    """A list that gains one item per process this one forks."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _with_bad_pixels(world, bad):
    """The world with each reference in `bad` given (H, W, 4) pixels after
    its raw was read: the reference trains, but extracting any of its
    copies is a ShapeError."""
    for i in bad:
        ref = world.references[i]
        ref.raw
        ref.pixels = np.concatenate([ref.pixels, ref.pixels[..., :1]], axis=2)
    return world


class TestWorkers:
    """train() realizes each new epoch of a stream across the allowed CPUs,
    with the bits, errors and counts of the inline path."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_refs=st.integers(1, 4),
        label=st.sampled_from(["none", "appearance", "viewpoint", "appearance,viewpoint"]),
        multiplicity=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        epoch=st.integers(0, 50),
    )
    def test_one_worker_realizes_the_bits_of_zero(self, n_refs, label, multiplicity, seed, epoch):
        world = vk.generate_synthetic(
            vk.SynthWorldSpec(
                place_count=4, spacing=30.0, reference_style=vk.StyleParams(),
                query_style=vk.StyleParams(), queries_per_place=1, image_size=16,
                seed=seed % 1000,
            )
        )
        spec = vk.AugmentationSpec.from_string(label)
        realized = []
        for cpus in (1, 2):
            stream = vk.FinetuneDataset(world.references[:n_refs], multiplicity, spec, seed)
            with pytest.MonkeyPatch.context() as monkeypatch:
                _cpus(monkeypatch, cpus)
                forks = _counting_forks(monkeypatch)
                with vk.rsf._realizing(stream):
                    sources, raws = stream.epoch_raws(epoch)
                    assert len(forks) == min(cpus, len(sources)) - 1
            realized.append((sources.tobytes(), raws.tobytes()))
        assert realized[0] == realized[1]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "bad, label", [([], "appearance,viewpoint"), ([1], "none")], ids=["bits", "middle-error"]
    )
    def test_two_workers_realize_the_bits_and_errors_of_zero(self, monkeypatch, bad, label):
        """Three CPUs fork two workers for five copies, split 1 / 2 / 2 with
        this process last: the raws, or the error of copy 1 in the middle
        slice, are the inline ones, and no worker is left."""
        outcomes = []
        forks = _counting_forks(monkeypatch)
        for cpus in (1, 3):
            _cpus(monkeypatch, cpus)
            world = _with_bad_pixels(_tiny_world(), bad)
            spec = vk.AugmentationSpec.from_string(label)
            stream = vk.FinetuneDataset(world.references, 1, spec, seed=2)
            forks.clear()
            with vk.rsf._realizing(stream):
                try:
                    sources, raws = stream.epoch_raws(0)
                    outcomes.append((sources.tobytes(), raws.tobytes()))
                except ShapeError as exc:
                    outcomes.append((type(exc), str(exc)))
                assert len(forks) == cpus - 1
            assert not multiprocessing.active_children()
        assert outcomes[0] == outcomes[1]
        if bad:
            assert outcomes[0][0] is ShapeError and "image 'r1#" in outcomes[0][1]

    @pytest.mark.parametrize(
        "cpus, copies, forks", [(1, 10, 0), (2, 10, 1), (8, 3, 2), (8, 10, 7), (8, 1, 0)]
    )
    def test_one_worker_per_cpu_beyond_the_first_and_copy_beyond_the_first(
        self, monkeypatch, cpus, copies, forks
    ):
        """Counted without forking: the pool is refused as it is asked for,
        so the raws are this process's alone.  None fork beside another
        thread, or without the fork start method."""
        calls = []

        def refused(workers, *args, **kwargs):
            calls.append(workers)
            raise OSError("counted, not forked")

        monkeypatch.setattr(vk.rsf, "ProcessPoolExecutor", refused)
        _cpus(monkeypatch, cpus)
        stream = vk.FinetuneDataset(_tiny_world().references[:1], copies, vk.AugmentationSpec(), 0)
        with vk.rsf._realizing(stream):
            stream.epoch_raws(0)
            stream.epoch_raws(1)
        assert calls == ([forks] if forks else [])
        calls.clear()
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            fresh = dataclasses.replace(stream)
            with vk.rsf._realizing(fresh):
                fresh.epoch_raws(0)
        finally:
            done.set()
            thread.join()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        fresh = dataclasses.replace(stream)
        with vk.rsf._realizing(fresh):
            fresh.epoch_raws(0)
        assert not calls

    def test_a_reused_stream_forks_nothing_and_no_worker_outlives_train(self, monkeypatch):
        forks = _counting_forks(monkeypatch)
        _cpus(monkeypatch, 2)
        world = _tiny_world()
        _rsf_run()(world, None)
        assert len(forks) == 1 and not multiprocessing.active_children()
        _rsf_run(poseless=True)(world, None)  # every epoch is kept
        assert len(forks) == 1
        assert world._rsf_stream._pool is None

    @pytest.mark.parametrize("bad", [[0], [4], [0, 4]], ids=["worker", "parent", "both"])
    def test_a_workers_error_is_the_inline_error(self, monkeypatch, bad):
        """The earliest copy's error, with its class and message, whichever
        process extracts it; no worker is left."""
        config = vk.TrainConfig(epochs=1, aug_multiplicity=2, seed=3)
        model = vk.init_model(hidden_dims=[8], output_dim=4, seed=1)
        none = vk.AugmentationSpec.from_string("none")
        raised = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            with pytest.raises(ShapeError) as exc:
                vk.rsf_finetune(model, _with_bad_pixels(_tiny_world(), bad), config, none)
            raised.append((type(exc.value), str(exc.value)))
            assert not multiprocessing.active_children()
        assert raised[0] == raised[1]
        assert f"image 'r{bad[0]}#" in raised[0][1] and "(32, 32, 4)" in raised[0][1]

    def test_a_worker_that_dies_breaks_the_call_promptly_and_leaves_no_child(self, monkeypatch):
        parent = os.getpid()
        extract = vk.embedding.extract_raw

        def dying(image):
            if os.getpid() != parent:
                os._exit(1)
            return extract(image)

        monkeypatch.setattr(vk.embedding, "extract_raw", dying)
        _cpus(monkeypatch, 2)
        tic = time.perf_counter()
        with pytest.raises(BrokenProcessPool):
            _rsf_run()(_tiny_world(), None)
        assert time.perf_counter() - tic < 10
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("error", [OSError, NotImplementedError])
    def test_a_pool_that_cannot_be_made_realizes_inline(self, monkeypatch, error):
        """As without POSIX semaphores: the bits of one CPU, and no fork."""

        def unavailable(*args, **kwargs):
            raise error("no process pool here")

        _cpus(monkeypatch, 1)
        inline = _rsf_run()(_tiny_world(), None)[0]
        forks = _counting_forks(monkeypatch)
        monkeypatch.setattr(vk.rsf, "ProcessPoolExecutor", unavailable)
        _cpus(monkeypatch, 2)
        model = _rsf_run()(_tiny_world(), None)[0]
        assert model.fingerprint() == inline.fingerprint() and not forks
