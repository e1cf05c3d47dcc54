import hashlib
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit.dataset import Pose, _name_max, save_dataset
from vprkit.errors import (DecodeError, InconsistentManifest, InvalidFraction, ManifestMissing,
                           VprError)
from vprkit.ppm import quantize, write_ppm
from vprkit.presets import domain_gap_pair

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(ax=finite, ay=finite, bx=finite, by=finite, cx=finite, cy=finite)
def test_pose_distance_is_a_metric(ax, ay, bx, by, cx, cy):
    a, b, c = Pose(ax, ay), Pose(bx, by), Pose(cx, cy)
    assert a.distance(b) == b.distance(a) >= 0
    assert a.distance(a) == 0
    assert a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6


def _write_side(root, name, entries):
    (root / name).mkdir(parents=True, exist_ok=True)
    lines = ["id,x_m,y_m"]
    rng = np.random.default_rng(1)
    for rid, x, y in entries:
        write_ppm(root / name / f"{rid}.ppm", rng.random((16, 16, 3)))
        lines.append(f"{rid},{x},{y}")
    (root / f"{'reference' if name == 'references' else 'query'}_poses.csv").write_text(
        "\n".join(lines) + "\n"
    )


def test_load_minimal_dataset(tmp_path):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0), ("r1", 10.0, 0.0), ("r2", 20.0, 0.0)])
    ds = vk.load_dataset(tmp_path)
    assert len(ds.references) == 3
    assert ds.queries == []
    assert ds.references[0].id == "r0"


def test_manifest_row_maps_to_pose(tmp_path):
    _write_side(tmp_path, "references", [("r0007", 12.5, -3.0)])
    ds = vk.load_dataset(tmp_path)
    assert ds.references[0].id == "r0007"
    assert ds.reference_poses[0] == Pose(12.5, -3.0)


def test_orphan_pose_row_is_reported(tmp_path):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0), ("r1", 10.0, 0.0), ("r2", 20.0, 0.0)])
    with (tmp_path / "reference_poses.csv").open("a") as fh:
        fh.write("r9,40.0,0.0\n")
    with pytest.raises(InconsistentManifest, match="r9"):
        vk.load_dataset(tmp_path)


def test_orphan_image_is_reported(tmp_path):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0)])
    write_ppm(tmp_path / "references" / "stray.ppm", np.zeros((16, 16, 3)))
    with pytest.raises(InconsistentManifest, match="stray"):
        vk.load_dataset(tmp_path)


def test_header_only_manifest_loads_no_records(tmp_path):
    _write_side(tmp_path, "references", [])
    for latlon in (False, True):
        assert vk.load_dataset(tmp_path, latlon=latlon).references == []


def test_missing_manifest(tmp_path):
    (tmp_path / "references").mkdir()
    with pytest.raises(ManifestMissing):
        vk.load_dataset(tmp_path)


def test_save_load_round_trip(tmp_path, tiny_world):
    save_dataset(tiny_world, tmp_path / "w")
    back = vk.load_dataset(tmp_path / "w")
    assert [r.id for r in back.references] == [r.id for r in tiny_world.references]
    assert [q.id for q in back.queries] == [q.id for q in tiny_world.queries]
    assert back.reference_poses == tiny_world.reference_poses
    assert back.query_poses == tiny_world.query_poses
    # pixels survive up to 8-bit quantization; a second cycle is exact
    save_dataset(back, tmp_path / "w2")
    again = vk.load_dataset(tmp_path / "w2")
    for a, b in zip(back.references, again.references):
        np.testing.assert_array_equal(a.pixels, b.pixels)


def test_latlon_ingestion_gives_metric_frame(tmp_path):
    # two points ~111 m apart in latitude
    (tmp_path / "references").mkdir()
    rng = np.random.default_rng(0)
    for rid in ("a", "b"):
        write_ppm(tmp_path / "references" / f"{rid}.ppm", rng.random((16, 16, 3)))
    (tmp_path / "reference_poses.csv").write_text(
        "id,x_m,y_m\na,52.0000,4.0000\nb,52.0010,4.0000\n"
    )
    ds = vk.load_dataset(tmp_path, latlon=True)
    dist = ds.reference_poses[0].distance(ds.reference_poses[1])
    assert math.isclose(dist, 111.3, rel_tol=0.01)


def test_latlon_queries_share_the_reference_frame(tmp_path):
    refs = [(f"r{i}", 48.0 + 0.0001 * i, 11.0) for i in range(10)]
    _write_side(tmp_path, "references", refs)
    _write_side(tmp_path, "queries", [("q0", 48.0, 11.0)])
    ds = vk.load_dataset(tmp_path, latlon=True)
    assert ds.query_poses[0].distance(ds.reference_poses[0]) == 0.0


def test_latlon_queries_alone_are_projected_around_their_centroid(tmp_path):
    _write_side(tmp_path, "references", [])
    _write_side(tmp_path, "queries", [("q0", 52.0, 4.0), ("q1", 52.001, 4.0)])
    a, b = vk.load_dataset(tmp_path, latlon=True).query_poses
    assert a.x == b.x == 0.0 and math.isclose(a.y, -b.y, rel_tol=1e-9)
    assert math.isclose(b.y - a.y, 111.3, rel_tol=0.01)


def test_split_fraction_zero_and_bounds(tiny_world):
    train, val = vk.split_validation(tiny_world, 0.0, seed=1)
    assert len(val.queries) == 0
    assert len(train.queries) == len(tiny_world.queries)
    with pytest.raises(InvalidFraction):
        vk.split_validation(tiny_world, 1.5, seed=1)


def test_split_counts_and_disjointness():
    rng = np.random.default_rng(7)
    queries = [
        vk.ImageRecord(id=f"q{i:03d}", pixels=rng.random((16, 16, 3)), pose=vk.Pose(i, 0))
        for i in range(100)
    ]
    ds = vk.Dataset(references=[queries[0]], queries=queries)
    train, val = vk.split_validation(ds, 0.2, seed=7)
    assert len(val.queries) == 20 and len(train.queries) == 80
    train_ids = {q.id for q in train.queries}
    val_ids = {q.id for q in val.queries}
    assert not train_ids & val_ids
    assert train_ids | val_ids == {q.id for q in queries}
    # determinism
    train2, val2 = vk.split_validation(ds, 0.2, seed=7)
    assert [q.id for q in val2.queries] == [q.id for q in val.queries]


@pytest.mark.parametrize("x", ["abc", "", "nan", "inf", "-inf", "1e999"])
def test_bad_coordinate_is_reported_with_file_and_line(tmp_path, x):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0), ("r1", x, 0.0)])
    with pytest.raises(InconsistentManifest, match=r"reference_poses\.csv:3"):
        vk.load_dataset(tmp_path)


@pytest.mark.parametrize(
    "text, needle",
    [("", "missing header row"), ("\n\n", "missing header row"),
     ("id,x_m,y_m\nr0,0,0\nr1,0,1\nr0,1,1\n", "duplicate id 'r0'")],
)
def test_a_manifest_without_header_or_with_a_repeated_id_is_named(tmp_path, text, needle):
    (tmp_path / "references").mkdir()
    (tmp_path / "reference_poses.csv").write_text(text)
    with pytest.raises(InconsistentManifest, match=f"reference_poses.csv: {needle}"):
        vk.load_dataset(tmp_path)


@pytest.mark.parametrize("row", ["r1,0", "r1,0,0,0", "r1"])
def test_a_row_without_three_fields_is_named(tmp_path, row):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0)])
    with open(tmp_path / "reference_poses.csv", "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(InconsistentManifest, match=f"reference_poses.csv:3: expected id,x,y got '{row}'"):
        vk.load_dataset(tmp_path)


def test_blank_lines_in_a_manifest_are_skipped(tmp_path):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0), ("r1", 10.0, 0.0)])
    manifest = tmp_path / "reference_poses.csv"
    manifest.write_text(manifest.read_text().replace("\n", "\n\n  \n"))
    ds = vk.load_dataset(tmp_path)
    assert [(r.id, r.pose) for r in ds.references] == [("r0", (0.0, 0.0)), ("r1", (10.0, 0.0))]


def test_latlon_out_of_range_is_reported(tmp_path):
    _write_side(tmp_path, "references", [("r0", 52.0, 4.0), ("r1", 1e300, 4.0)])
    with pytest.raises(InconsistentManifest, match=r"reference_poses\.csv:3"):
        vk.load_dataset(tmp_path, latlon=True)


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.sampled_from(["nan", "-inf", "1e999", "1_000", " 7 ", "0x10", "1e-400"]),
        st.floats().map(repr),
    ),
    column=st.sampled_from([1, 2]),
    latlon=st.booleans(),
)
def test_any_coordinate_text_loads_finite_poses_or_raises(text, column, latlon):
    cells = ["r0", "0.5", "0.5"]
    cells[column] = text
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "references").mkdir()
        write_ppm(root / "references" / "r0.ppm", np.zeros((4, 4, 3)))
        (root / "reference_poses.csv").write_text(
            "id,x_m,y_m\n" + ",".join(cells) + "\n", encoding="utf-8"
        )
        try:
            ds = vk.load_dataset(root, latlon=latlon)
        except VprError:
            return
    assert np.isfinite(np.asarray(ds.reference_poses, np.float64)).all()


coordinate = st.floats(-1e150, 1e150, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(
    ref_xy=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6),
    query_xy=st.lists(st.tuples(coordinate, coordinate), max_size=4),
)
def test_record_poses_reach_files_maps_and_ground_truth_unchanged(small_model, ref_xy, query_xy):
    rng = np.random.default_rng(0)

    def records(prefix, xys):
        return [
            vk.ImageRecord(f"{prefix}{i}", rng.random((16, 16, 3)), Pose(x, y))
            for i, (x, y) in enumerate(xys)
        ]

    def bits(poses):
        return np.asarray(poses, np.float64).tobytes()

    ds = vk.Dataset(records("r", ref_xy), records("q", query_xy))
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, tmp)
        back = vk.load_dataset(tmp)
    assert bits(back.reference_poses) == bits(ds.reference_poses)
    assert bits(back.query_poses) == bits(ds.query_poses)
    dmap = vk.build_map(ds, small_model)
    assert bits(dmap.poses) == bits(ds.reference_poses)
    assert vk.ground_truth(ds.query_poses, dmap.poses) == vk.ground_truth(
        ds.query_poses, ds.reference_poses
    )


@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"])
def test_a_byte_that_is_not_utf8_is_named_on_the_line_the_rows_are_read_on(tmp_path, end):
    """Lines end at "\\r", "\\n" or "\\r\\n", for the row reader and for
    the UTF-8 check: with "\\r" line ends, line 3 was named line 1."""
    (tmp_path / "references").mkdir()
    rows = [b"id,x_m,y_m", b"r0,1,2", b"r1,1\xff,2", b""]
    (tmp_path / "reference_poses.csv").write_bytes(end.join(rows))
    with pytest.raises(InconsistentManifest, match=r"reference_poses\.csv:3: not valid UTF-8"):
        vk.load_dataset(tmp_path)


@pytest.mark.parametrize("side", ["references", "queries"])
def test_saving_a_record_without_a_pose_writes_no_file(tmp_path, side):
    """Every pose on both sides is checked before the first file is written:
    a half-written dataset failed to load with ManifestMissing."""
    rng = np.random.default_rng(0)
    records = [
        vk.ImageRecord(rid, rng.random((8, 8, 3)), pose)
        for rid, pose in (("a", Pose(0.0, 0.0)), ("b", None), ("c", Pose(1.0, 0.0)))
    ]
    posed = [vk.ImageRecord(r.id, r.pixels, Pose(5.0, 5.0)) for r in records]
    ds = vk.Dataset(records, posed) if side == "references" else vk.Dataset(posed, records)
    with pytest.raises(InconsistentManifest, match="record 'b' has no pose"):
        save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "ids, named",
    [(["a", "a"], "a"), (["a\nb"], "a\nb"), ([""], ""), (["sub/x"], "sub/x"),
     (["../../escaped"], "../../escaped"), (["a\rb"], "a\rb"),
     (["\ud800"], "\ud800"), (["a\0b"], "a\0b"), ([7], 7), (["a", 7], 7)],
)
def test_an_id_that_would_not_load_back_is_named_and_writes_no_file(tmp_path, ids, named):
    """Checked on the query side, after references that alone would save,
    so nothing may be written before the check."""
    rng = np.random.default_rng(0)
    refs = [vk.ImageRecord("r0", rng.random((4, 4, 3)), Pose(0.0, 0.0))]
    queries = [vk.ImageRecord(rid, rng.random((4, 4, 3)), Pose(1.0, 0.0)) for rid in ids]
    with pytest.raises(InconsistentManifest, match=re.escape(repr(named))):
        save_dataset(vk.Dataset(refs, queries), tmp_path / "a" / "b" / "ds")
    assert list(tmp_path.rglob("*")) == []


def test_an_id_with_commas_quotes_or_leading_whitespace_loads_back(tmp_path):
    """The manifests are RFC 4180 CSV, so an augmented copy's id, whose op
    tag holds commas, saves and loads back, as do quotes and leading
    whitespace, each with its pose."""
    rng = np.random.default_rng(0)
    base = vk.ImageRecord("r00", rng.random((8, 8, 3)), Pose(3.0, 4.0))
    crop = vk.apply(base, vk.AugmentationOp("crop_resize", (0.781, 0.00898, 0.00362)), rng)
    assert crop.id == "r00#crop_resize(0.781,0.00898,0.00362)"
    ids = [crop.id, "a,b", " a", '"q"', 'x "y" ']
    records = [vk.ImageRecord(rid, rng.random((4, 4, 3)), Pose(0.5 * i, -1.0 / 3))
               for i, rid in enumerate(ids)]
    save_dataset(vk.Dataset(records[:3], records[3:]), tmp_path / "ds")
    back = vk.load_dataset(tmp_path / "ds")
    for saved, loaded in ((records[:3], back.references), (records[3:], back.queries)):
        saved = sorted(saved, key=lambda r: r.id)
        assert [(r.id, r.pose) for r in loaded] == [(r.id, r.pose) for r in saved]


def test_the_manifest_bytes_of_an_ordinary_world_are_pinned(tmp_path):
    """Ids that need no quoting are written as they always were, so the
    dataset hashes, and with them the run ids, stay as they are."""
    save_dataset(domain_gap_pair()[1], tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("reference_poses.csv", "query_poses.csv")}
    assert digests == {
        "reference_poses.csv": "f7a2def3ea36efaf9ecd917fc03c3fa368e785616266dd8462f4da6c732abfda",
        "query_poses.csv": "ef0c44c0c81f508fadd5276b2377af90f3f04542063801f95c9f512754ce2be5",
    }


@pytest.mark.parametrize("kind", ["directory", "dangling link"])
def test_an_image_that_cannot_be_read_is_a_decode_error(tmp_path, kind):
    _write_side(tmp_path, "references", [("r0", 0.0, 0.0), ("r1", 10.0, 0.0)])
    image = tmp_path / "references" / "r1.ppm"
    image.unlink()
    if kind == "directory":
        image.mkdir()
    else:
        image.symlink_to(tmp_path / "gone.ppm")
    with pytest.raises(DecodeError, match=r"r1\.ppm: cannot read"):
        vk.load_dataset(tmp_path)


# Ids that load back, and ids the loader refuses or reads back as another
# or, at 300 bytes, that no file name holds.
record_id = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["a", "a,b", "a\nb", "", "sub/x", "../../escaped", " a", "a ", ".", "..",
                     "\x0ba", "x\x85y", "x\u2028y", "a\rb", "\ud800", "a\0b", "a.ppm", "x" * 300]),
)
# Pixels write_ppm refuses, given to one record: (H, W, 4), empty, NaN, infinite.
bad_pixels = st.sampled_from([
    lambda p: p[..., :1].repeat(4, axis=2), lambda p: p[:0],
    lambda p: np.where(p > 0.5, np.nan, p), lambda p: np.full_like(p, np.inf),
])


@settings(max_examples=150, deadline=None)
@given(
    ref_ids=st.lists(record_id, max_size=4),
    query_ids=st.lists(record_id, max_size=3),
    xy=st.tuples(finite | st.sampled_from([math.nan, -math.inf]), finite),
    numpy_pose=st.booleans(),
    bad=st.none() | st.tuples(st.integers(0, 6), bad_pixels),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_saved_dataset_loads_back_or_nothing_is_written(
    ref_ids, query_ids, xy, numpy_pose, bad, seed
):
    rng = np.random.default_rng(seed)
    coord = np.float64 if numpy_pose else float

    def records(ids):
        return [
            vk.ImageRecord(rid, rng.random((2, 3, 3)), Pose(coord(xy[0] + i), coord(xy[1])))
            for i, rid in enumerate(ids)
        ]

    ds = vk.Dataset(records(ref_ids), records(query_ids))
    if bad is not None and bad[0] < len(ref_ids) + len(query_ids):
        rec = (ds.references + ds.queries)[bad[0]]
        rec.pixels = bad[1](rec.pixels)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "a" / "b" / "ds"
        try:
            save_dataset(ds, root)
        except VprError:
            assert list(Path(tmp).rglob("*")) == []
            return
        back = vk.load_dataset(root)
    for saved, loaded in ((ds.references, back.references), (ds.queries, back.queries)):
        saved = sorted(saved, key=lambda r: r.id)
        assert [r.id for r in loaded] == [r.id for r in saved]
        assert [r.pose for r in loaded] == [r.pose for r in saved]
        for a, b in zip(loaded, saved):
            np.testing.assert_array_equal(a.pixels, quantize(b.pixels) / 255)


def test_the_longest_id_is_the_file_systems_name_limit(tmp_path):
    """Writing r.ppm makes the temporary name .r.ppm.XXXXXXXX, 14 bytes
    longer than the id: an id one byte longer is named, and nothing is
    written."""
    longest = os.pathconf(tmp_path, "PC_NAME_MAX") - 14
    rng = np.random.default_rng(0)
    for n, saves in ((longest, True), (longest + 1, False)):
        rid = "é" * (n // 2) + "x" * (n % 2)  # n UTF-8 bytes
        refs = [vk.ImageRecord("a", rng.random((2, 2, 3)), Pose(0.0, 0.0)),
                vk.ImageRecord(rid, rng.random((2, 2, 3)), Pose(1.0, 0.0))]
        root = tmp_path / str(n)
        if saves:
            save_dataset(vk.Dataset(refs), root)
            assert [r.id for r in vk.load_dataset(root).references] == ["a", rid]
        else:
            with pytest.raises(InconsistentManifest, match=f"{n + 14} bytes"):
                save_dataset(vk.Dataset(refs), root)
            assert not root.exists()


@pytest.mark.parametrize("error", [OSError, ValueError])
def test_the_name_limit_is_255_bytes_where_the_system_cannot_tell(tmp_path, monkeypatch, error):
    def pathconf(path, name):
        raise error(name)

    monkeypatch.setattr(os, "pathconf", pathconf)
    assert _name_max(tmp_path / "not" / "made") == 255
    refs = [vk.ImageRecord("x" * 242, np.zeros((2, 2, 3)), Pose(0.0, 0.0))]
    with pytest.raises(InconsistentManifest, match="256 bytes, and this file system's are at most 255"):
        save_dataset(vk.Dataset(refs), tmp_path / "out")


def test_missing_pose_is_named_by_the_pose_lists(tiny_world):
    queries = [vk.ImageRecord(q.id, q.pixels) for q in tiny_world.queries]
    ds = vk.Dataset(tiny_world.references, queries)
    assert ds.reference_poses == [r.pose for r in tiny_world.references]
    with pytest.raises(InconsistentManifest, match=repr(queries[0].id)):
        ds.query_poses
