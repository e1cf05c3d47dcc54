"""One rule for a count and one for a real number (``errors.check_count``
and ``errors.check_real``), at every library entry that takes one, and one
rule for a pose (``dataset.record_poses``) at every entry that reads one: a
bad number or pose is the entry's VprError naming the field, the record or
the row, never a bare Python error, and NumPy scalars of valid values are
taken as Python's."""

import dataclasses
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit.errors import (
    InconsistentManifest,
    InvalidFraction,
    InvalidMultiplicity,
    InvalidSpec,
    KTooLarge,
    NonFiniteValue,
    ShapeError,
    VprError,
    check_count,
    check_real,
)
from vprkit.presets import domain_gap_pair

STYLE = vk.StyleParams()
WORLD = vk.generate_synthetic(vk.SynthWorldSpec(3, 10.0, STYLE, STYLE, image_size=16, seed=1))
MODEL = vk.init_model(hidden_dims=[4], output_dim=4, seed=2)
DMAP = vk.build_map(WORLD, MODEL)
SPEC = vk.AugmentationSpec.from_string("appearance")
QUERY = np.ones(4) / 2
F = np.zeros(4)


def _spec(**kw):
    return vk.SynthWorldSpec(**{"place_count": 3, "spacing": 10.0, "reference_style": STYLE,
                                "query_style": STYLE, "image_size": 16, **kw})


def _stream(**kw):
    return vk.FinetuneDataset(WORLD.references, **{"multiplicity": 1,
                                                   "augmentation_spec": SPEC, "seed": 0, **kw})


def _split(**kw):
    return vk.split_validation(WORLD, **{"fraction": 0.5, "seed": 0, **kw})


def _layers(**kw):
    return vk.init_model(**{"hidden_dims": [4], "output_dim": 4, **kw})


def _triplet_loss(margin):
    return vk.triplet_loss(F, F, F, margin)


def _ground_truth(radius):
    return vk.ground_truth([], [], radius)


def _matrix(**kw):
    return vk.generalization_matrix([("m", MODEL)], [("w", WORLD)], **kw)


def _hidden(n):
    return _layers(hidden_dims=[n])


def _knn(k):
    return vk.knn(DMAP, QUERY, k)


def _retrieve_all(k):
    return vk.retrieve_all(DMAP, WORLD, MODEL, k)


def _recall(n):
    return vk.recall_at_n([], vk.GroundTruth({}), (n,))


def _evaluate(n):
    return vk.evaluate_model(MODEL, WORLD, ns=(1, n))


def _matrix_ns(n):
    return _matrix(ns=(n,))


# (entry, field as passed, field as the message names it, error, kind, bound):
# a count of at least the bound, or a real that is finite, at least the
# bound, and above zero for POSITIVE.  Each entry is called with one field.
COUNT, REAL, POSITIVE = "count", "real", "positive"
FIELDS = [
    *((vk.TrainConfig, name, name, VprError, POSITIVE, 0)
      for name in ("margin", "learning_rate", "positive_radius", "negative_radius",
                   "validation_radius")),
    *((vk.TrainConfig, name, name, VprError, COUNT, low)
      for name, low in (("epochs", 0), ("batch_size", 1), ("negatives_per_query", 1),
                        ("early_stop_patience", 1), ("seed", 0))),
    (vk.TrainConfig, "aug_multiplicity", "aug_multiplicity", InvalidMultiplicity, COUNT, 1),
    (_stream, "multiplicity", "multiplicity", InvalidMultiplicity, COUNT, 1),
    (_stream, "seed", "seed", VprError, COUNT, 0),
    (vk.StyleParams, "palette_id", "palette_id", InvalidSpec, COUNT, -math.inf),
    *((vk.StyleParams, name, name, InvalidSpec, REAL, -math.inf)
      for name in ("hue_shift", "brightness_offset")),
    (vk.StyleParams, "noise_sigma", "noise_sigma", InvalidSpec, REAL, 0),
    (vk.StyleParams, "contrast_gain", "contrast_gain", InvalidSpec, POSITIVE, 0),
    *((_spec, name, name, InvalidSpec, COUNT, low)
      for name, low in (("place_count", 2), ("queries_per_place", 1), ("image_size", 16),
                        ("seed", 0), ("jitter_px", 0))),
    (_spec, "spacing", "spacing", InvalidSpec, POSITIVE, 0),
    (_triplet_loss, "margin", "margin", VprError, POSITIVE, 0),
    (_ground_truth, "radius", "radius", VprError, POSITIVE, 0),
    (_matrix, "radius", "radius", VprError, POSITIVE, 0),
    (_split, "fraction", "fraction", InvalidFraction, REAL, 0),
    (_split, "seed", "seed", VprError, COUNT, 0),
    (_layers, "seed", "seed", VprError, COUNT, 0),
    (_layers, "output_dim", "output_dim", ShapeError, COUNT, 1),
    (_hidden, "n", "hidden_dims[0]", ShapeError, COUNT, 1),
    (_knn, "k", "k", KTooLarge, COUNT, 1),
    (_retrieve_all, "k", "k", KTooLarge, COUNT, 1),
    (_recall, "n", "ns", VprError, COUNT, 1),
    (_evaluate, "n", "ns", VprError, COUNT, 1),
    (_matrix_ns, "n", "ns", VprError, COUNT, 1),
]
FIELD_IDS = [f"{entry.__name__.lstrip('_')}-{field}" for entry, field, *_ in FIELDS]


def bad_values(kind: str, low) -> st.SearchStrategy:
    """Values the rule refuses: a bool, a str, NaN, ±inf or one below the
    bound; and for a count, any float."""
    refused = [st.booleans(), st.text(max_size=3), st.sampled_from([math.nan, math.inf, -math.inf])]
    if kind == COUNT:
        refused.append(st.floats())
        if low > -math.inf:
            refused.append(st.integers(max_value=low - 1))
    elif kind == POSITIVE:
        refused.append(st.floats(max_value=0.0))
    elif low > -math.inf:
        refused.append(st.floats(max_value=low, exclude_max=True))
    return st.one_of(refused)


def assert_refused(entry, field, named, error, value):
    with pytest.raises(error, match=re.escape(named)):
        entry(**{field: value})


@pytest.mark.parametrize("entry, field, named, error, kind, low", FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_bad_number_is_the_entrys_error_naming_the_field(
    entry, field, named, error, kind, low, data
):
    assert_refused(entry, field, named, error, data.draw(bad_values(kind, low)))


@pytest.mark.parametrize(
    "entry, field, named, error, value",
    [
        (vk.TrainConfig, "epochs", "epochs", VprError, 1.5),
        (vk.TrainConfig, "batch_size", "batch_size", VprError, 2.5),
        (vk.TrainConfig, "seed", "seed", VprError, 2.0),
        (vk.TrainConfig, "negatives_per_query", "negatives_per_query", VprError, 1.5),
        (vk.TrainConfig, "learning_rate", "learning_rate", VprError, "a"),
        (vk.TrainConfig, "aug_multiplicity", "aug_multiplicity", InvalidMultiplicity, 1.5),
        (vk.TrainConfig, "poseless", "poseless", VprError, "no"),
        (vk.StyleParams, "hue_shift", "hue_shift", InvalidSpec, "a"),
        (vk.StyleParams, "palette_id", "palette_id", InvalidSpec, 1.5),
        (_spec, "spacing", "spacing", InvalidSpec, "a"),
        (_spec, "queries_per_place", "queries_per_place", InvalidSpec, 1.5),
        (_spec, "seed", "seed", InvalidSpec, 1.5),
        (_spec, "jitter_px", "jitter_px", InvalidSpec, 1.5),
        (_stream, "seed", "seed", VprError, -1),
        (_split, "fraction", "fraction", InvalidFraction, "a"),
        (_split, "seed", "seed", VprError, -1),
        (_split, "seed", "seed", VprError, 1.5),
        (_layers, "seed", "seed", VprError, -1),
        (_layers, "output_dim", "output_dim", ShapeError, 2.5),
        (_triplet_loss, "margin", "margin", VprError, "a"),
        (_ground_truth, "radius", "radius", VprError, "a"),
        (_knn, "k", "k", KTooLarge, 2.5),
        (_retrieve_all, "k", "k", KTooLarge, 2.5),
    ],
)
def test_each_escape_that_ran_into_a_python_error_is_refused(entry, field, named, error, value):
    """Each of these was accepted, or raised a TypeError, ValueError or
    IndexError from deep inside, before the checks took the type."""
    assert_refused(entry, field, named, error, value)


@pytest.mark.parametrize(
    "entry, field, value",
    [(vk.TrainConfig, "margin", 10**400), (_spec, "spacing", 10**400), (_spec, "spacing", 10**308)],
)
def test_an_integer_past_the_float_range_is_not_finite(entry, field, value):
    """Both were bare errors: TrainConfig took the margin, and the spacing
    raised OverflowError, at 10**308 from the last pose, 2 * 10**308."""
    with pytest.raises(VprError, match="finite"):
        entry(**{field: value})


def test_rsf_finetune_refuses_a_fractional_multiplicity_before_realizing():
    config = vk.TrainConfig(epochs=1)
    # TrainConfig is frozen and checks its fields; go round both to reach
    # FinetuneDataset's own check.
    object.__setattr__(config, "aug_multiplicity", 1.5)
    with pytest.raises(InvalidMultiplicity, match="multiplicity must be an integer, got 1.5"):
        vk.rsf_finetune(MODEL, WORLD, config, SPEC)


def test_evaluate_model_refuses_a_bad_query_pose_before_any_work(monkeypatch):
    """The query poses were read only when scoring: on world B with one NaN
    query pose, every query was encoded and searched before the refusal."""
    world_b = domain_gap_pair()[1]
    queries = list(world_b.queries)
    queries[7] = dataclasses.replace(queries[7], pose=vk.Pose(math.nan, 0.0))
    calls = {"extract_raw": 0, "knn": 0}

    def counted(module, name):
        wrapped = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(vk.embedding, "extract_raw")
    counted(vk.evaluation, "knn")
    with pytest.raises(InconsistentManifest, match=f"^record {queries[7].id!r} has pose "):
        vk.evaluate_model(vk.init_model(seed=1), vk.Dataset(world_b.references, queries))
    assert calls == {"extract_raw": 0, "knn": 0}


def test_a_train_config_field_is_checked_once_and_never_reassigned():
    """A field set after construction skipped every check: epochs = 1.5
    reached train() as a bare TypeError."""
    config = vk.TrainConfig(epochs=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.epochs = 1.5
    with pytest.raises(VprError, match="epochs"):
        dataclasses.replace(config, epochs=1.5)
    assert dataclasses.replace(config, poseless=True).poseless is True


@pytest.mark.parametrize("negatives", [2, 3, np.int64(2)])
def test_poseless_refuses_more_than_one_negative_per_query(negatives):
    """Poseless mining draws one negative per query: with 3 it mined 6
    triplets from 6 queries, where pose mode mines one per (query, negative)."""
    with pytest.raises(VprError, match="negatives_per_query must be 1 with poseless"):
        vk.TrainConfig(poseless=True, negatives_per_query=negatives)
    config = vk.TrainConfig(negatives_per_query=negatives)
    with pytest.raises(VprError, match="negatives_per_query must be 1 with poseless"):
        dataclasses.replace(config, poseless=True)
    assert vk.TrainConfig(poseless=True, negatives_per_query=1).poseless


def _load_dataset(latlon):
    return vk.load_dataset("no-such-dataset", latlon=latlon)


@pytest.mark.parametrize("entry, field", [(vk.TrainConfig, "poseless"), (_load_dataset, "latlon")])
@pytest.mark.parametrize("value", ["no", "", 1, 0, None, np.float64(1.0)])
def test_a_flag_is_a_bool(entry, field, value):
    """One rule for a flag (``errors.check_flag``): latlon="no" read the
    poses as latitude and longitude, because the string is truthy."""
    with pytest.raises(VprError, match=f"{field} must be a bool, got {re.escape(repr(value))}"):
        entry(**{field: value})


def test_a_numpy_bool_flag_is_taken_as_pythons(tmp_path):
    vk.save_dataset(WORLD, tmp_path)
    for flag in (False, True):
        ours = vk.load_dataset(tmp_path, latlon=np.bool_(flag))
        assert ours.reference_poses == vk.load_dataset(tmp_path, latlon=flag).reference_poses


@pytest.mark.parametrize("shape", [(4, 3), (5, 3), (2,), (2, 2, 2)])
@pytest.mark.parametrize("side", ["query", "reference"])
def test_ground_truth_takes_poses_as_two_columns_or_a_shape_error(shape, side):
    """(4, 3) poses were read as six (x, y) pairs; (5, 3) raised ValueError.
    The error names the side and the first row that is not two numbers."""
    poses = {"query": [vk.Pose(0.0, 0.0)], "reference": [vk.Pose(0.0, 0.0)]}
    poses[side] = np.zeros(shape)
    with pytest.raises(ShapeError, match=f"^{side} row 0 has pose "):
        vk.ground_truth(poses["query"], poses["reference"])


class TestNs:
    """One rule for ``ns``, as --ns has: at least one cutoff, each an
    integer of at least 1, refused once and before any encoding."""

    @pytest.mark.parametrize("ns", [(), (1.5,), (0,), (1, 0), (True,)])
    def test_evaluate_model_refuses_before_building_the_map(self, ns):
        """The dataset has no reference, so building the map would raise
        EmptyReferences: the ns error comes first."""
        with pytest.raises(VprError, match="^ns ") as info:
            vk.evaluate_model(MODEL, vk.Dataset([], WORLD.queries), ns=ns)
        assert type(info.value) is VprError

    @pytest.mark.parametrize("ns", [(), (1.5,), (0,)])
    def test_generalization_matrix_raises_instead_of_filling_cells(self, ns):
        with pytest.raises(VprError, match="^ns "):
            _matrix(ns=ns)

    def test_recall_at_n_refuses_no_cutoff(self):
        with pytest.raises(VprError, match="ns must hold at least one cutoff"):
            vk.recall_at_n([], vk.GroundTruth({}), ns=[])

    def test_a_zero_cutoff_on_queries_is_not_a_k_error(self):
        """It was KTooLarge: k=0 outside [1, 3]."""
        with pytest.raises(VprError, match="ns must be at least 1, got 0") as info:
            vk.evaluate_model(MODEL, WORLD, ns=(0,))
        assert not isinstance(info.value, KTooLarge)


class TestRules:
    @pytest.mark.parametrize("value", [0, 7, np.int8(3), np.uint64(2**63), 10**400])
    def test_check_count_returns_an_integer_at_the_bound_or_above(self, value):
        assert check_count(value, "n", 0) is value

    @pytest.mark.parametrize("value", [np.True_, True, 1.0, np.float64(1.0), "1", None, 1j])
    def test_check_count_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(InvalidSpec, match="^n must be an integer, got "):
            check_count(value, "n", 0, InvalidSpec)

    @pytest.mark.parametrize("value", [0.5, -3, np.float32(2.5), np.int64(4), 1e308])
    def test_check_real_returns_a_finite_real(self, value):
        assert check_real(value, "x") is value

    @pytest.mark.parametrize("value", [np.False_, False, "0.5", None, 1j, [1.0]])
    def test_check_real_refuses_what_is_not_a_real(self, value):
        with pytest.raises(VprError, match="^x must be a real number, got "):
            check_real(value, "x")

    @pytest.mark.parametrize("value", [math.nan, np.float64(math.inf), -math.inf, 10**400])
    def test_check_real_refuses_a_real_no_float_holds(self, value):
        with pytest.raises(VprError, match="^x must be finite, got "):
            check_real(value, "x")

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, -1e-300, np.float64(-2)])
    def test_positive_refuses_zero_and_below(self, value):
        with pytest.raises(VprError, match="^x must be positive and finite, got "):
            check_real(value, "x", positive=True)


counts = st.integers(1, 50)
reals = st.floats(1e-3, 1e3)


@given(
    margin=reals, learning_rate=reals, positive_radius=reals, extra=reals,
    validation_radius=reals, epochs=st.integers(0, 50), batch_size=counts,
    negatives_per_query=counts, early_stop_patience=counts, aug_multiplicity=counts,
    seed=st.integers(0, 2**31 - 1), poseless=st.booleans(),
    int_type=st.sampled_from([np.int64, np.int32, np.uint64]),
)
def test_numpy_scalars_of_valid_values_give_an_equal_train_config(
    extra, int_type, poseless, **fields
):
    fields["negative_radius"] = fields["positive_radius"] + extra
    if poseless:  # poseless mining takes one negative per query
        fields["negatives_per_query"] = 1
    python = vk.TrainConfig(**fields, poseless=poseless)
    as_numpy = vk.TrainConfig(
        **{k: (np.float64 if isinstance(v, float) else int_type)(v) for k, v in fields.items()},
        poseless=np.bool_(poseless),
    )
    assert as_numpy == python
    assert dataclasses.asdict(as_numpy) == dataclasses.asdict(python)


@given(
    palette_id=st.integers(-8, 8), hue_shift=st.floats(-360, 360), contrast_gain=reals,
    brightness_offset=st.floats(-1, 1), noise_sigma=st.floats(0, 1),
    place_count=st.integers(2, 10**6), spacing=reals, queries_per_place=counts,
    image_size=st.integers(16, 256), seed=st.integers(0, 2**63 - 1), jitter_px=st.integers(0, 15),
)
def test_numpy_scalars_of_valid_values_give_an_equal_world_spec(
    palette_id, hue_shift, contrast_gain, brightness_offset, noise_sigma, **fields
):
    style = dict(palette_id=palette_id, hue_shift=hue_shift, contrast_gain=contrast_gain,
                 brightness_offset=brightness_offset, noise_sigma=noise_sigma)

    def numpy(values: dict) -> dict:
        return {k: (np.float64 if isinstance(v, float) else np.int64)(v) for k, v in values.items()}

    python = vk.SynthWorldSpec(
        **fields, reference_style=vk.StyleParams(**style), query_style=STYLE
    )
    as_numpy = vk.SynthWorldSpec(
        **numpy(fields), reference_style=vk.StyleParams(**numpy(style)), query_style=STYLE
    )
    assert as_numpy == python
    assert dataclasses.asdict(as_numpy) == dataclasses.asdict(python)


# ------------------------------------------------------------------ poses
# A 3-place world 30 m apart: every query has its place's reference within
# the positive radius and the two others beyond the negative radius.
PLACES = vk.generate_synthetic(
    vk.SynthWorldSpec(3, 30.0, STYLE, STYLE, queries_per_place=1, image_size=16, seed=1)
)


def _posed(records, poses):
    return [vk.ImageRecord(r.id, r.pixels, p) for r, p in zip(records, poses)]


def _world(refs, queries):
    return vk.Dataset(_posed(PLACES.references, refs), _posed(PLACES.queries, queries))


def _as_array(poses):
    try:
        return np.asarray(poses)
    except ValueError:  # rows of unequal lengths
        return np.array(poses, dtype=object)


def _gt_list(refs, queries):
    return vk.ground_truth(queries, refs)


def _gt_array(refs, queries):
    return vk.ground_truth(_as_array(queries), _as_array(refs))


def _build_map(refs, queries):
    return vk.build_map(_world(refs, queries), MODEL).poses.tobytes()


def _evaluate_model(refs, queries):
    report = vk.evaluate_model(MODEL, _world(refs, queries), ns=(1, 2))
    return report.recalls, report.evaluated_queries


def _train(refs, queries):
    model, log = vk.train(MODEL, _world(refs, queries), vk.TrainConfig(epochs=1, batch_size=2))
    return model.fingerprint(), log.step_losses


def _mine_triplets(refs, queries):
    stream = vk.FinetuneDataset(_posed(PLACES.references, refs), 1, SPEC, seed=0)
    (raws, positives, negatives), skipped = vk.mine_triplets(MODEL, stream, vk.TrainConfig(), 0)
    return raws.tobytes(), positives.tolist(), negatives.tolist(), skipped


def _save_dataset(refs, queries):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "ds")
        try:
            vk.save_dataset(_world(refs, queries), root)
        except VprError:
            assert not root.exists(), "a refused dataset left files behind"
            raise
        return sorted((p.name, p.read_bytes()) for p in root.glob("*.csv"))


BOTH, REFERENCES = ("reference", "query"), ("reference",)
# entry: (call on (reference poses, query poses), sides it reads, by record)
POSE_ENTRIES = {
    "ground_truth-list": (_gt_list, BOTH, False),
    "ground_truth-array": (_gt_array, BOTH, False),
    "build_map": (_build_map, REFERENCES, True),
    "evaluate_model": (_evaluate_model, BOTH, True),
    "labeled-train": (_train, BOTH, True),
    "pose-mine_triplets": (_mine_triplets, REFERENCES, True),
    "save_dataset": (_save_dataset, BOTH, True),
}

finite_coords = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0.0, -0.0, np.float64(-0.0), sys.float_info.max, -sys.float_info.max]),
)
non_finite_coords = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(-math.inf)]
)
text_coords = st.sampled_from(["1.5", "x", ""])


def _pose_like(draw, x, y):
    return draw(st.sampled_from([vk.Pose(x, y), (x, y)]))


@st.composite
def good_poses(draw):
    return _pose_like(draw, draw(finite_coords), draw(finite_coords))


@st.composite
def bad_poses(draw):
    """(pose, the error ground_truth raises for it)."""
    kind = draw(st.sampled_from(["non-finite", "text", "none", "one", "three"]))
    if kind in ("non-finite", "text"):
        bad = draw(non_finite_coords if kind == "non-finite" else text_coords)
        xy = (bad, draw(finite_coords))
        pose = _pose_like(draw, *(xy if draw(st.booleans()) else xy[::-1]))
        return pose, NonFiniteValue if kind == "non-finite" else ShapeError
    if kind == "none":
        return None, ShapeError
    return tuple(draw(finite_coords) for _ in range(1 if kind == "one" else 3)), ShapeError


def _outcome(call, refs, queries):
    try:
        return call(refs, queries)
    except VprError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", POSE_ENTRIES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_pose_entry_reads_poses_by_one_rule(entry, data):
    """Each entry reads poses by one rule: a good pose gives the bits of its
    coordinates converted one by one with float(), as each entry converted
    them before the rule; a bad one is the entry's error naming the record,
    or the side and the row, and save_dataset writes nothing."""
    call, sides, by_record = POSE_ENTRIES[entry]
    side = data.draw(st.sampled_from(sides))
    row = data.draw(st.integers(0, 2))
    poses = {"reference": list(PLACES.reference_poses), "query": list(PLACES.query_poses)}
    if data.draw(st.booleans()):
        poses[side][row] = data.draw(good_poses())
        floats = {k: [vk.Pose(float(x), float(y)) for x, y in v] for k, v in poses.items()}
        expected = _outcome(call, floats["reference"], floats["query"])
        assert _outcome(call, poses["reference"], poses["query"]) == expected
        return
    poses[side][row], error = data.draw(bad_poses())
    if by_record:
        records = PLACES.references if side == "reference" else PLACES.queries
        error, named = InconsistentManifest, f"record {records[row].id!r} has "
    elif error is ShapeError and entry == "ground_truth-array":
        named = f"{side} row \\d+ has "  # an array of text or objects has no real row
    else:
        named = f"{side} row {row} has "
    with pytest.raises(error, match=f"^{named}"):
        call(poses["reference"], poses["query"])
