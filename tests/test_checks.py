"""One rule for a count and one for a real number (``errors.check_count``
and ``errors.check_real``), at every library entry that takes one: a bad
number is the entry's VprError naming the field, never a bare Python
error, and NumPy scalars of valid values are taken as Python's."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vprkit as vk
from vprkit.errors import (
    InvalidFraction,
    InvalidMultiplicity,
    InvalidSpec,
    KTooLarge,
    ShapeError,
    VprError,
    check_count,
    check_real,
)

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
    config.aug_multiplicity = 1.5  # TrainConfig is not frozen
    with pytest.raises(InvalidMultiplicity, match="multiplicity must be an integer, got 1.5"):
        vk.rsf_finetune(MODEL, WORLD, config, SPEC)


@pytest.mark.parametrize("shape", [(4, 3), (5, 3), (2,), (2, 2, 2)])
@pytest.mark.parametrize("side", ["query", "reference"])
def test_ground_truth_takes_poses_as_two_columns_or_a_shape_error(shape, side):
    """(4, 3) poses were read as six (x, y) pairs; (5, 3) raised ValueError."""
    poses = {"query": [vk.Pose(0.0, 0.0)], "reference": [vk.Pose(0.0, 0.0)]}
    poses[side] = np.zeros(shape)
    with pytest.raises(ShapeError, match=re.escape(f"{side} poses have shape {shape}")):
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
