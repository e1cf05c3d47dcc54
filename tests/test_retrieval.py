import struct

import numpy as np
import pytest

import vprkit as vk
from vprkit.errors import (
    EmptyReferences,
    FormatError,
    KTooLarge,
    ModelMismatch,
    ShapeError,
    TruncatedError,
)
from vprkit.retrieval import knn, load_map, save_map


def toy_map(rows, poses=None):
    rows = np.asarray(rows, dtype=np.float32)
    n = rows.shape[0]
    return vk.DescriptorMap(
        descriptors=rows,
        poses=np.zeros((n, 2)) if poses is None else np.asarray(poses, float),
        ids=[f"r{i}" for i in range(n)],
        model_fingerprint=bytes(32),
    )


def brute_force(rows, query, k):
    """Independent double-loop oracle."""
    dists = []
    for i, row in enumerate(rows):
        acc = 0.0
        for a, b in zip(np.asarray(row, np.float64), np.asarray(query, np.float64)):
            acc += (a - b) ** 2
        dists.append((acc**0.5, i))
    dists.sort()
    return [(i, d) for d, i in dists[:k]]


class TestKnn:
    def test_exact_row_is_rank_one(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 4)).astype(np.float32)
        dmap = toy_map(rows)
        res = knn(dmap, rows[3].astype(np.float64), k=2)
        assert res.ranked[0][0] == 3
        assert res.ranked[0][1] == 0.0

    def test_hand_computed_toy_case(self):
        dmap = toy_map([[1, 0], [0, 1], [-1, 0]])
        res = knn(dmap, np.array([0.6, 0.8]), k=3)
        assert [i for i, _ in res.ranked] == [1, 0, 2]
        np.testing.assert_allclose(
            [d for _, d in res.ranked],
            [np.sqrt(0.4), np.sqrt(0.8), np.sqrt(3.2)],
            atol=1e-7,
        )

    def test_tie_break_lower_index(self):
        row = np.array([0.6, 0.8])
        rows = np.stack([[1, 0], [0, 1], row, [1, 0], [0, 1], row])
        res = knn(toy_map(rows), row, k=6)
        assert [i for i, _ in res.ranked[:2]] == [2, 5]

    def test_errors(self):
        dmap = toy_map([[1, 0], [0, 1]])
        with pytest.raises(KTooLarge):
            knn(dmap, np.array([1.0, 0.0]), k=3)
        with pytest.raises(ShapeError):
            knn(dmap, np.array([1.0, 0.0, 0.0]), k=1)

    def test_brute_force_equivalence_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(2, 16))
            k = int(rng.integers(1, n + 1))
            rows = rng.normal(size=(n, d)).astype(np.float32)
            query = rng.normal(size=d)
            res = knn(toy_map(rows), query, k)
            expected = brute_force(rows, query, k)
            assert [i for i, _ in res.ranked] == [i for i, _ in expected]
            np.testing.assert_allclose(
                [d_ for _, d_ in res.ranked], [d_ for _, d_ in expected], atol=1e-6
            )

    def test_unit_norm_distances_bounded(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(30, 8))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        q = rng.normal(size=8)
        q /= np.linalg.norm(q)
        res = knn(toy_map(rows), q, k=30)
        dists = [d for _, d in res.ranked]
        assert all(0 <= d <= 2 + 1e-6 for d in dists)
        assert dists == sorted(dists)


class TestBuildMap:
    def test_rows_match_per_image_forward(self, tiny_world, small_model):
        dmap = vk.build_map(tiny_world, small_model)
        assert dmap.size == len(tiny_world.references)
        for i, rec in enumerate(tiny_world.references):
            f = vk.forward(small_model, vk.extract_raw(rec))
            np.testing.assert_allclose(dmap.descriptors[i], f, atol=1e-6)
        assert dmap.model_fingerprint == small_model.fingerprint()

    def test_empty_references_rejected(self, small_model):
        ds = vk.Dataset(references=[])
        with pytest.raises(EmptyReferences):
            vk.build_map(ds, small_model)

    def test_build_is_deterministic(self, tiny_world, small_model, tmp_path):
        a, b = tmp_path / "a.vprm", tmp_path / "b.vprm"
        save_map(vk.build_map(tiny_world, small_model), a)
        save_map(vk.build_map(tiny_world, small_model), b)
        assert a.read_bytes() == b.read_bytes()


class TestRetrieveAll:
    def test_map_of_another_model_is_rejected(self, tiny_world, small_model):
        dmap = vk.build_map(tiny_world, small_model)
        other = vk.init_model(hidden_dims=[32], output_dim=16, seed=6)
        with pytest.raises(ModelMismatch):
            vk.retrieve_all(dmap, tiny_world, other, k=1)
        results = vk.retrieve_all(dmap, tiny_world, small_model, k=1)
        assert [r.query_id for r in results] == [q.id for q in tiny_world.queries]


class TestMapSerialization:
    def test_round_trip_bit_exact(self, tiny_world, small_model, tmp_path):
        dmap = vk.build_map(tiny_world, small_model)
        path = tmp_path / "m.vprm"
        save_map(dmap, path)
        back = load_map(path)
        np.testing.assert_array_equal(back.descriptors, dmap.descriptors)
        np.testing.assert_array_equal(back.poses, dmap.poses)
        assert back.ids == dmap.ids
        assert back.model_fingerprint == dmap.model_fingerprint
        (flags,) = struct.unpack_from("<H", path.read_bytes(), 18)
        assert flags & 1  # the unit-norm flag bit is always written
        save_map(back, tmp_path / "m2.vprm")
        assert (tmp_path / "m2.vprm").read_bytes() == path.read_bytes()

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "m.vprm"
        save_map(toy_map([[1, 0], [0, 1]]), path)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_map(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.vprm"
        save_map(toy_map([[1, 0], [0, 1]]), path)
        full = path.read_bytes()
        for cut in (8, len(full) - 10):
            path.write_bytes(full[:cut])
            with pytest.raises(TruncatedError):
                load_map(path)
