import functools
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit.errors import (
    EmptyReferences,
    FormatError,
    KTooLarge,
    ModelMismatch,
    NonFiniteValue,
    ShapeError,
    TruncatedError,
    VprError,
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


def single_stage(dmap, query, k):
    """Oracle: the single-stage scan knn replaced, every row scored in
    float64 with the same arithmetic as knn's re-rank."""
    query = np.asarray(query, dtype=np.float64)
    diffs = dmap.descriptors.astype(np.float64) - query
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((np.arange(dmap.size), dists))[:k]
    return [(int(i), float(dists[i])) for i in order]


float32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
float64 = st.floats(allow_nan=False, allow_infinity=False)


@functools.cache
def valid_map_bytes():
    """The file of a 3-row, 4-dimensional map with ids "r0".."r2"."""
    rows = np.arange(12, dtype=np.float32).reshape(3, 4)
    with tempfile.TemporaryDirectory() as tmp:
        save_map(toy_map(rows, poses=np.ones((3, 2))), Path(tmp) / "m.vprm")
        return (Path(tmp) / "m.vprm").read_bytes()


@st.composite
def near_tie_searches(draw):
    """A map of n rows drawn from a few base rows, so rows repeat, then
    moved a few float32 ulps apart; a query at, near or away from a row;
    and k in [1, n]."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 32))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = (rng.normal(size=(draw(st.integers(1, n)), d)) * scale).astype(np.float32)
    rows = base[rng.integers(len(base), size=n)]
    nudged = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    rows = rows + (nudged * rng.integers(-3, 4, size=(n, d)) * np.spacing(rows)).astype(np.float32)
    anchor = rows[rng.integers(n)].astype(np.float64)
    query = draw(st.sampled_from(["row", "near", "away"]))
    if query == "near":
        anchor = anchor + rng.normal(size=d) * scale * 1e-7
    elif query == "away":
        anchor = rng.normal(size=d) * scale
    return toy_map(rows), anchor, draw(st.integers(1, n))


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

    @settings(max_examples=300, deadline=None)
    @given(search=near_tie_searches())
    def test_equals_single_stage_scan_bit_for_bit(self, search):
        dmap, query, k = search
        assert knn(dmap, query, k).ranked == single_stage(dmap, query, k)

    @pytest.mark.parametrize(
        "row_scale, query_scale",
        [(1e-42, 1e-42), (1e-20, 1.0), (1e30, 1e-30), (1e36, 1e36), (1.0, 1e200)],
    )
    def test_extreme_magnitudes_equal_single_stage_scan(self, row_scale, query_scale):
        rng = np.random.default_rng(1)
        dmap = toy_map((rng.normal(size=(50, 8)) * row_scale).astype(np.float32))
        for _ in range(5):
            query = rng.normal(size=8) * query_scale
            assert knn(dmap, query, 5).ranked == single_stage(dmap, query, 5)

    def test_non_finite_query_is_rejected(self):
        dmap = toy_map([[1, 0], [0, 1]])
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteValue):
                knn(dmap, np.array([bad, 0.0]), k=1)

    def test_map_with_a_non_finite_row_is_rejected(self):
        dmap = toy_map([[1, 0], [0, 1], [np.nan, 0], [np.inf, 0]])
        with pytest.raises(NonFiniteValue, match="row 2"):
            knn(dmap, np.array([1.0, 0.0]), k=1)

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

    def test_blocks_of_rows_keep_each_rows_forward_bits(self, small_model):
        """build_map and retrieve_all encode in blocks; a ragged last block
        and several full ones give per-row forward's bytes."""
        rng = np.random.default_rng(8)
        recs = [vk.ImageRecord(f"r{i:03d}", None, vk.Pose(30.0 * i, 0.0)) for i in range(150)]
        for rec in recs:
            rec.raw = rng.normal(size=vk.embedding.RAW_DIM)
        ds = vk.Dataset(recs, recs[:70])
        dmap = vk.build_map(ds, small_model)
        rows = np.array([vk.forward(small_model, rec.raw) for rec in recs], dtype=np.float32)
        assert dmap.descriptors.tobytes() == rows.tobytes()
        got = vk.retrieve_all(dmap, ds, small_model, k=3)
        want = [vk.knn(dmap, vk.forward(small_model, q.raw), 3, query_id=q.id) for q in recs[:70]]
        assert got == want

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

    @pytest.mark.parametrize(
        "field, value",
        [("poses", np.zeros((2, 3))), ("poses", np.zeros(4)), ("poses", np.zeros((3, 2))),
         ("ids", ["r0"]), ("ids", ["r0", "r1", "r2"])],
    )
    def test_poses_or_ids_that_do_not_fit_the_rows_are_rejected_before_writing(
        self, tmp_path, field, value
    ):
        """load_map would read such a file as truncated or with trailing bytes."""
        dmap = toy_map([[1, 0], [0, 1]])
        setattr(dmap, field, value)
        with pytest.raises(ShapeError):
            save_map(dmap, tmp_path / "m.vprm")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_a_fingerprint_that_is_not_32_bytes_is_rejected_before_writing(self, tmp_path, size):
        dmap = toy_map([[1, 0], [0, 1]])
        dmap.model_fingerprint = bytes(size)
        with pytest.raises(FormatError, match="32 bytes"):
            save_map(dmap, tmp_path / "m.vprm")
        assert list(tmp_path.iterdir()) == []

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "m.vprm"
        save_map(toy_map([[1, 0], [0, 1]]), path)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(FormatError):
            load_map(path)

    # Row 1's first value in the file of a 3-row, 2-dimensional map: after
    # the 20-byte header, and after the six float32 descriptor values.
    @pytest.mark.parametrize("fmt, at", [("<f", 20 + 2 * 4), ("<d", 20 + 6 * 4 + 2 * 8)],
                             ids=["descriptors", "poses"])
    def test_non_finite_row_is_rejected(self, tmp_path, fmt, at):
        """The file of a valid map with one value overwritten: save_map
        refuses to write such a file."""
        path = tmp_path / "m.vprm"
        save_map(toy_map([[1, 0], [0, 1], [1, 1]]), path)
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, at, np.nan)
        path.write_bytes(data)
        with pytest.raises(FormatError, match="row 1"):
            load_map(path)

    @pytest.mark.parametrize(
        "field, value",
        [("descriptors", np.nan), ("descriptors", -np.inf), ("poses", np.inf),
         ("descriptors", 1e39), ("ids", "\ud800")],
        ids=["nan", "inf", "pose", "float32-overflow", "surrogate-id"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_a_row_load_map_would_refuse_is_named_before_writing(self, tmp_path, field, value):
        """1e39 is finite in float64 but infinite as the float32 written."""
        dmap = toy_map([[1, 0], [0, 1], [1, 1]])
        dmap.descriptors = dmap.descriptors.astype(np.float64)
        getattr(dmap, field)[1] = value
        with pytest.raises(FormatError, match="row 1"):
            save_map(dmap, tmp_path / "m.vprm")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_utf8_id_is_rejected(self, tmp_path):
        path = tmp_path / "m.vprm"
        dmap = toy_map([[1, 0], [0, 1]])
        dmap.ids = ["a", "b"]
        save_map(dmap, path)
        data = path.read_bytes()
        at = data.rindex(b"b", 0, len(data) - 32)
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        with pytest.raises(FormatError, match="row 1"):
            load_map(path)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(float32, float32, float64, float64), max_size=5),
        ids=st.lists(st.text(max_size=8), min_size=5, max_size=5),
        fingerprint=st.binary(min_size=32, max_size=32),
    )
    def test_valid_maps_round_trip_bit_exactly(self, rows, ids, fingerprint):
        n = len(rows)
        table = np.asarray(rows, np.float64).reshape(n, 4)
        dmap = vk.DescriptorMap(
            descriptors=table[:, :2].astype(np.float32),
            poses=np.ascontiguousarray(table[:, 2:]),
            ids=ids[:n],
            model_fingerprint=fingerprint,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.vprm"
            save_map(dmap, path)
            back = load_map(path)
            assert back.descriptors.tobytes() == dmap.descriptors.tobytes()
            assert back.poses.tobytes() == dmap.poses.tobytes()
            assert (back.ids, back.model_fingerprint) == (dmap.ids, fingerprint)
            save_map(back, Path(tmp) / "again.vprm")
            assert (Path(tmp) / "again.vprm").read_bytes() == path.read_bytes()

    def test_file_bytes_equal_the_joined_parts(self, tiny_world, small_model, tmp_path):
        """save_map writes its parts one by one; the file is the one the
        whole file joined in memory gave."""
        dmap = vk.build_map(tiny_world, small_model)
        dmap.ids[0] = "é" * 3
        n, d = dmap.descriptors.shape
        parts = [
            b"VPRM",
            struct.pack("<HIQH", 1, d, n, 1),
            np.ascontiguousarray(dmap.descriptors, dtype="<f4").tobytes(),
            np.ascontiguousarray(dmap.poses, dtype="<f8").tobytes(),
        ]
        for rid in dmap.ids:
            raw = rid.encode("utf-8")
            parts += [struct.pack("<H", len(raw)), raw]
        parts.append(dmap.model_fingerprint)
        save_map(dmap, tmp_path / "m.vprm")
        assert (tmp_path / "m.vprm").read_bytes() == b"".join(parts)

    # 70,000 characters; 33,000 characters that take 66,000 UTF-8 bytes.
    @pytest.mark.parametrize("long_id", ["x" * 70_000, "é" * 33_000], ids=["ascii", "utf8"])
    def test_overlong_id_is_rejected_before_writing(self, tmp_path, long_id):
        dmap = toy_map([[1, 0], [0, 1]])
        dmap.ids = ["a", long_id]
        with pytest.raises(FormatError, match="row 1"):
            save_map(dmap, tmp_path / "m.vprm")
        assert list(tmp_path.iterdir()) == []

    def test_trailing_bytes_are_rejected(self, tmp_path):
        valid = valid_map_bytes()
        for data in (valid + b"garbage", valid + valid):
            (tmp_path / "m.vprm").write_bytes(data)
            with pytest.raises(FormatError, match="after the fingerprint"):
                load_map(tmp_path / "m.vprm")

    @settings(max_examples=500, deadline=None)
    @given(
        data=st.binary(max_size=200),
        edit=st.none() | st.just("append") | st.tuples(st.integers(0, 160), st.booleans()),
    )
    def test_any_bytes_load_or_raise_a_vpr_error(self, data, edit):
        """Either arbitrary bytes, or a valid map cut short at an offset or
        with up to four bytes of `data` written over it there, or a valid
        map with `data` appended."""
        if edit == "append":
            data = valid_map_bytes() + data
        elif edit is not None:
            at, cut = edit
            valid, patch = valid_map_bytes(), data[:4]
            data = valid[:at] if cut else valid[:at] + patch + valid[at + len(patch) :]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.vprm"
            path.write_bytes(data)
            try:
                dmap = load_map(path)
            except VprError:
                return
        assert edit != "append" or data == valid_map_bytes()
        assert dmap.size == len(dmap.ids) == dmap.poses.shape[0]
        assert np.isfinite(dmap.descriptors).all() and np.isfinite(dmap.poses).all()
        assert len(dmap.model_fingerprint) == 32

    @pytest.mark.parametrize("rows", [5, 2**62, 2**64 - 1])
    def test_row_count_beyond_the_file_is_truncated_at_any_dim(self, tmp_path, rows):
        """With D = 0 the descriptors take no bytes, so the poses must."""
        path = tmp_path / "m.vprm"
        path.write_bytes(b"VPRM" + struct.pack("<HIQH", 1, 0, rows, 1) + bytes(40))
        with pytest.raises(TruncatedError):
            load_map(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.vprm"
        save_map(toy_map([[1, 0], [0, 1]]), path)
        full = path.read_bytes()
        for cut in (8, len(full) - 10):
            path.write_bytes(full[:cut])
            with pytest.raises(TruncatedError):
                load_map(path)
