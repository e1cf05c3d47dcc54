import hashlib
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vprkit as vk
from vprkit import presets
from vprkit.colorops import LUMA_WEIGHTS
from vprkit.embedding import (
    PATCH_GRID,
    RAW_DIM,
    WORK_SIZE,
    _HIST_BINS,
    _encode_rows,
    _trace,
    backward,
    extract_raw_pixels,
    forward,
    forward_batch,
    load_model,
    save_model,
)
from vprkit.errors import (
    FormatError,
    NonFiniteValue,
    ShapeError,
    TruncatedError,
    VprError,
)
from conftest import kernel_digest
from test_imageops import oracle_resize_area


def make_record(pixels, rid="x"):
    return vk.ImageRecord(id=rid, pixels=pixels, pose=None)


def model_bytes(shapes):
    """A .vprh file with the given (in, out) layer table and parameters
    0, 1, 2, ... in file order."""
    header = b"VPRH" + struct.pack("<HI", 1, len(shapes))
    header += b"".join(struct.pack("<II", i, o) for i, o in shapes)
    count = sum(i * o + o for i, o in shapes)
    return header + np.arange(count, dtype="<f8").tobytes()


def oracle_extract_raw_pixels(pixels: np.ndarray) -> np.ndarray:
    """extract_raw_pixels as it was before its exact fast paths (np.mod,
    .mean, .std), on the resize through the products."""
    img = oracle_resize_area(np.asarray(pixels, dtype=np.float64), WORK_SIZE, WORK_SIZE)
    y = img @ LUMA_WEIGHTS
    c1 = img[..., 0] - y  # R - Y
    c2 = img[..., 2] - y  # B - Y

    # 3x3 central-difference gradients; borders carry zero gradient.
    gx = np.zeros_like(y)
    gy = np.zeros_like(y)
    gx[:, 1:-1] = (y[:, 2:] - y[:, :-2]) / 2.0
    gy[1:-1, :] = (y[2:, :] - y[:-2, :]) / 2.0
    mag = np.hypot(gx, gy)
    # Orientation folded to [0, 180), 4 bins of 45 degrees.
    ang = np.mod(np.degrees(np.arctan2(gy, gx)), 180.0)
    bins = np.minimum((ang / 45.0).astype(np.int64), _HIST_BINS - 1)

    ps = WORK_SIZE // PATCH_GRID

    def patches(arr: np.ndarray) -> np.ndarray:
        # (8, 8, ps*ps): row-major patch grid, flattened pixels per patch
        return arr.reshape(PATCH_GRID, ps, PATCH_GRID, ps).transpose(0, 2, 1, 3).reshape(
            PATCH_GRID, PATCH_GRID, ps * ps
        )

    yp, mp, bp = patches(y), patches(mag), patches(bins)
    features = np.empty((PATCH_GRID, PATCH_GRID, 8))
    features[..., 0] = yp.mean(axis=-1)
    features[..., 1] = yp.std(axis=-1)
    features[..., 2] = patches(c1).mean(axis=-1)
    features[..., 3] = patches(c2).mean(axis=-1)
    for b in range(_HIST_BINS):
        features[..., 4 + b] = np.sum(mp * (bp == b), axis=-1)
    return features.reshape(RAW_DIM)


def drawn_image(seed: int, h: int, w: int, values: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if values == "uniform":
        return rng.random((h, w, 3))
    if values == "k/255":
        return rng.integers(0, 256, (h, w, 3)) / 255.0
    if values == "flat":
        return np.full((h, w, 3), rng.random())
    if values == "signed zeros":
        return rng.choice([0.0, -0.0, 0.25], (h, w, 3))
    if values == "tiny gradients":
        return 0.5 + 1e-14 * rng.standard_normal((h, w, 3))
    if values == "ulp steps":
        # Columns 0, 0, 1, 1, ... (|gx| = 0.5) on rows a few ulps apart:
        # angles so near 0 that some negative d have d + 180 == 180.0.
        cols = (np.arange(w) // 2 % 2).astype(np.float64)
        steps = cols[None, :, None] + rng.integers(-2, 3, (h, 1, 1)) * 2.0**-52
        return np.repeat(steps, 3, axis=2)
    # Equal rows falling to the right: gy = +-0 with gx < 0, where arctan2
    # gives +-pi; some rows are all -0.0.
    img = np.tile(np.linspace(1.0, 0.0, w)[None, :, None], (h, 1, 3))
    img[rng.random(h) < 0.3] = -0.0
    return img


IMAGE_VALUES = [
    "uniform", "k/255", "flat", "signed zeros", "tiny gradients", "ulp steps", "falling rows"
]


class TestExtractRaw:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(1, 130),
        w=st.integers(1, 130),
        values=st.sampled_from(IMAGE_VALUES),
    )
    @example(seed=0, h=64, w=64, values="uniform")
    @example(seed=1, h=64, w=64, values="k/255")
    @example(seed=2, h=64, w=64, values="flat")
    @example(seed=3, h=64, w=64, values="signed zeros")
    @example(seed=4, h=64, w=64, values="tiny gradients")
    @example(seed=5, h=64, w=64, values="ulp steps")
    @example(seed=6, h=64, w=64, values="falling rows")
    def test_equals_the_oracle_bit_for_bit(self, seed, h, w, values):
        pixels = drawn_image(seed, h, w, values)
        want = oracle_extract_raw_pixels(pixels)
        got = extract_raw_pixels(pixels)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_domain_gap_raws_are_pinned(self):
        """The raws of domain_gap_pair()'s 180 images and of one epoch of
        world B's references augmented as in the acceptance pipeline.
        These 64x64 images take the same-size resize, which the small
        worlds of the trained-bits digests do not."""
        world_a, world_b = presets.domain_gap_pair()
        stream = vk.FinetuneDataset(
            world_b.references, 3, vk.AugmentationSpec.from_string("appearance,viewpoint"),
            seed=200,
        )
        records = world_a.references + world_a.queries + world_b.references + world_b.queries
        h = hashlib.sha256()
        for raw in [rec.raw for rec in records] + list(stream.epoch_raws(0)):
            h.update(raw.tobytes())
        assert h.hexdigest() == kernel_digest({
            "SkylakeX": "600b5c81a5d866366e0ed70727f84ab16633e151f682a5a3ad7fa56d60364753",
            "Haswell": "ce1e4e4e39b6ef30bcb9a72c4f8ef44b2dcd9cf40b5b0df0b18a0596f328585b",
        })

    def test_constant_gray_has_zero_std_and_histograms(self):
        raw = extract_raw_pixels(np.full((64, 64, 3), 0.5))
        feats = raw.reshape(8, 8, 8)
        assert np.allclose(feats[..., 1], 0.0)  # luma std
        assert np.allclose(feats[..., 4:], 0.0)  # histogram bins
        assert np.allclose(feats[..., 0], 0.5)  # luma mean

    def test_determinism_and_id_independence(self):
        rng = np.random.default_rng(0)
        pixels = rng.random((40, 52, 3))
        a = vk.extract_raw(make_record(pixels, "a"))
        b = vk.extract_raw(make_record(pixels.copy(), "b"))
        np.testing.assert_array_equal(a, b)

    def test_stripe_orientations_match_pixel_loop_oracle(self):
        # vertical stripes: gradient along x, angle 0 -> bin 0
        # horizontal stripes: gradient along y, angle 90 -> bin 2
        vert = np.zeros((64, 64, 3))
        vert[:, ::4, :] = 1.0
        horz = np.zeros((64, 64, 3))
        horz[::4, :, :] = 1.0

        def oracle_hist(pixels):
            # independent per-pixel gradient tally over the whole image
            y = pixels @ LUMA_WEIGHTS
            hist = np.zeros(4)
            for i in range(64):
                for j in range(64):
                    gx = (y[i, j + 1] - y[i, j - 1]) / 2 if 0 < j < 63 else 0.0
                    gy = (y[i + 1, j] - y[i - 1, j]) / 2 if 0 < i < 63 else 0.0
                    mag = np.hypot(gx, gy)
                    if mag == 0:
                        continue
                    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
                    hist[min(int(ang // 45), 3)] += mag
            return hist

        for pixels in (vert, horz):
            raw = extract_raw_pixels(pixels).reshape(8, 8, 8)
            total = raw[..., 4:].sum(axis=(0, 1))
            np.testing.assert_allclose(total, oracle_hist(pixels), atol=1e-9)
        v_bins = extract_raw_pixels(vert).reshape(8, 8, 8)[..., 4:].sum(axis=(0, 1))
        h_bins = extract_raw_pixels(horz).reshape(8, 8, 8)[..., 4:].sum(axis=(0, 1))
        assert np.argmax(v_bins) == 0
        assert np.argmax(h_bins) == 2

    def test_arbitrary_sizes_resize_by_area(self):
        rng = np.random.default_rng(1)
        raw = extract_raw_pixels(rng.random((47, 90, 3)))
        assert raw.shape == (RAW_DIM,)
        assert np.isfinite(raw).all()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 80), w=st.integers(1, 80))
    def test_record_raw_is_extract_raw_kept_read_only(self, seed, h, w):
        rec = make_record(np.random.default_rng(seed).random((h, w, 3)))
        raw = rec.raw
        assert raw.tobytes() == vk.extract_raw(rec).tobytes()
        assert rec.raw is raw
        with pytest.raises(ValueError):
            raw[0] = 1.0

    @pytest.mark.parametrize("shape", [(64, 64), (64, 64, 4), (0, 64, 3), (64, 0, 3), (3,)])
    def test_non_image_shapes_raise_shape_error_naming_the_record(self, shape):
        rec = make_record(np.full(shape, 0.5), rid="bad_shape")
        with pytest.raises(ShapeError, match="bad_shape"):
            vk.extract_raw(rec)
        with pytest.raises(ShapeError, match="bad_shape"):
            rec.raw

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_raises_naming_the_record(self, value):
        pixels = np.full((64, 64, 3), 0.5)
        pixels[10, 20, 1] = value
        with pytest.raises(NonFiniteValue, match="bad_pixel"):
            vk.extract_raw(make_record(pixels, rid="bad_pixel"))


class TestForward:
    def test_output_is_unit_norm(self, small_model):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = forward(small_model, rng.normal(size=RAW_DIM))
            assert abs(np.linalg.norm(f) - 1.0) < 1e-6

    def test_identity_linear_head_normalizes(self):
        model = vk.EmbeddingModel(weights=[np.eye(4)], biases=[np.zeros(4)])
        v = np.array([3.0, 0.0, 4.0, 0.0])
        np.testing.assert_allclose(forward(model, v), v / 5.0, atol=1e-12)

    def test_two_layer_hand_composition(self):
        w1 = np.array([[1.0, 0.5], [-0.5, 1.0]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, 0.0], [0.5, 1.0]])
        b2 = np.array([0.0, 0.3])
        model = vk.EmbeddingModel(weights=[w1, w2], biases=[b1, b2])
        x = np.array([1.0, 0.0])
        h = np.tanh(x @ w1 + b1)
        z = h @ w2 + b2
        np.testing.assert_allclose(forward(model, x), z / np.linalg.norm(z), atol=1e-12)

    def test_shape_mismatch(self, small_model):
        with pytest.raises(ShapeError):
            forward(small_model, np.zeros(7))

    @pytest.mark.parametrize("shape", [(1, RAW_DIM), (), (2, 3)])
    def test_single_forward_takes_only_one_vector(self, small_model, shape):
        with pytest.raises(ShapeError):
            forward(small_model, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(RAW_DIM,), (3, 7), (2, 3, RAW_DIM)])
    def test_batch_forward_takes_only_a_matrix(self, small_model, shape):
        with pytest.raises(ShapeError):
            forward_batch(small_model, np.zeros(shape))

    @settings(max_examples=60, deadline=None)
    @given(
        head=st.sampled_from([([256], 128), ([64], 32), ([16], 8), ([256, 64], 32)]),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_encode_rows_has_each_rows_forward_bits(self, head, n, seed, layout):
        """One call over the batch gives per-row forward's bytes: GEMM over
        the whole batch would not (its bits depend on the row count)."""
        hidden, out = head
        model = vk.init_model(hidden_dims=hidden, output_dim=out, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        raws = rng.normal(size=(n, RAW_DIM)) * rng.uniform(0.01, 10.0)
        if layout == "F":
            raws = np.asfortranarray(raws)
        elif layout == "strided":
            raws = np.repeat(raws, 2, axis=1)[:, ::2]
        got = _encode_rows(model, raws)
        want = np.array([forward(model, raw) for raw in raws])
        assert got.shape == want.shape == (n, out)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(RAW_DIM,), (3, 7), (2, 1, RAW_DIM)])
    def test_encode_rows_takes_only_a_matrix(self, small_model, shape):
        with pytest.raises(ShapeError):
            _encode_rows(small_model, np.zeros(shape))

    def test_batch_matches_single(self, small_model):
        rng = np.random.default_rng(3)
        raws = rng.normal(size=(5, RAW_DIM))
        batch = forward_batch(small_model, raws)
        for i in range(5):
            np.testing.assert_allclose(batch[i], forward(small_model, raws[i]), atol=1e-12)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self, small_model):
        g = backward(small_model, np.ones(RAW_DIM), np.zeros(16))
        assert all(np.all(w == 0) for w in g.weights)
        assert all(np.all(b == 0) for b in g.biases)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        model = vk.init_model(hidden_dims=[6], output_dim=4, seed=9, input_dim=8)
        raw = rng.normal(size=8)
        up = rng.normal(size=4)
        grads = backward(model, raw, up)
        h = 1e-5
        worst = 0.0
        for k in range(len(model.weights)):
            for i in range(model.weights[k].shape[0]):
                for j in range(model.weights[k].shape[1]):
                    model.weights[k][i, j] += h
                    fp = float(up @ forward(model, raw))
                    model.weights[k][i, j] -= 2 * h
                    fm = float(up @ forward(model, raw))
                    model.weights[k][i, j] += h
                    num = (fp - fm) / (2 * h)
                    ana = grads.weights[k][i, j]
                    worst = max(worst, abs(num - ana) / max(1e-8, abs(num), abs(ana)))
        assert worst < 1e-4

    def test_linear_head_jacobian_hand_product(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 3))
        model = vk.EmbeddingModel(weights=[w.copy()], biases=[np.zeros(3)])
        raw = rng.normal(size=3)
        up = rng.normal(size=3)
        z = raw @ w
        norm = np.linalg.norm(z)
        f = z / norm
        jac = (np.eye(3) - np.outer(f, f)) / norm
        expected = np.outer(raw, jac @ up)
        grads = backward(model, raw, up)
        np.testing.assert_allclose(grads.weights[0], expected, atol=1e-12)

    def test_shape_mismatch(self, small_model):
        with pytest.raises(ShapeError):
            backward(small_model, np.zeros(RAW_DIM), np.zeros(3))

    @pytest.mark.parametrize(
        "raw_shape, up_shape",
        [
            ((7,), (16,)),  # raw of the wrong width
            ((RAW_DIM,), (1, 16)),  # one raw row needs a 1-D upstream
            ((4, RAW_DIM), (16,)),  # a batch needs one upstream row per raw row
            ((4, RAW_DIM), (3, 16)),
            ((4, RAW_DIM), (4, 15)),
        ],
    )
    def test_batch_shape_mismatch(self, small_model, raw_shape, up_shape):
        with pytest.raises(ShapeError):
            backward(small_model, np.zeros(raw_shape), np.zeros(up_shape))

    @staticmethod
    def carried_magnitudes(model, raws, ups):
        """backward's chain run on absolute values, one array per parameter
        in (weights + biases) order.

        Batch and row loop differ by rounding in the forward pass (BLAS
        sums a batch in another order than one row) and in every product,
        sum and division carried down the chain, so the rounding is
        bounded by magnitudes carried from the output down, not by the
        same layer's terms. The forward magnitudes |x| @ |W| + |b| bound
        each layer input and its rounding; the output's seed is scaled by
        how much the last layer cancels (its magnitude over ||z||), since
        normalizing divides that rounding by ||z||; tanh' <= 1.
        """
        f, _, norms = _trace(model, raws)
        mags = [np.abs(raws)]
        for w, b in zip(model.weights, model.biases):
            mags.append(mags[-1] @ np.abs(w) + np.abs(b))
        cancel = np.sqrt(np.sum(mags[-1] ** 2, axis=1, keepdims=True)) / norms
        g = cancel * (np.abs(ups) + np.abs(f) * np.sum(np.abs(f * ups), axis=1, keepdims=True))
        g = g / norms
        weights, biases = [], []
        for k in range(len(model.weights) - 1, -1, -1):
            weights.append(mags[k].T @ g)
            biases.append(g.sum(axis=0))
            g = g @ np.abs(model.weights[k]).T
        return weights[::-1] + biases[::-1]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        hidden=st.lists(st.integers(1, 6), max_size=2),
    )
    # Exceeded the old same-layer bound: 1.02e-12 against 1e-12 on the first
    # weights, 8.3e-12 against 1e-12 on the second bias.
    @example(seed=2246, n=4, hidden=[1, 1])
    def test_batch_is_sum_of_single_rows(self, seed, n, hidden):
        rng = np.random.default_rng(seed)
        model = vk.init_model(hidden_dims=hidden, output_dim=3, seed=seed, input_dim=5)
        raws = rng.normal(size=(n, 5))
        ups = rng.normal(size=(n, 3))
        ups[rng.random(n) < 0.3] = 0.0  # flat-hinge rows carry zero upstream
        batched = backward(model, raws, ups)
        singles = [backward(model, raw, up) for raw, up in zip(raws, ups)]
        total = vk.ParamGradients.zeros_like(model)
        for single in singles:
            total += single
        mags = self.carried_magnitudes(model, raws, ups)
        # n * u per carried magnitude, times 16 for the handful of rounded
        # operations (dot products of at most 7 terms, the norm, the
        # division) each term passes through; the worst ratio seen over
        # 6,000 random draws was 1.5.
        u = np.finfo(np.float64).eps / 2
        for got, want, mag in zip(
            batched.weights + batched.biases, total.weights + total.biases, mags
        ):
            assert got.shape == want.shape
            err, bound = np.abs(got - want), 16 * n * u * mag
            worst = err.argmax()
            assert np.all(err <= bound), (err.flat[worst], bound.flat[worst])


def zeros_model(weight_shapes, bias_shapes):
    return vk.EmbeddingModel(
        [np.zeros(shape) for shape in weight_shapes], [np.zeros(shape) for shape in bias_shapes]
    )


def poisoned(params, layer, value):
    """A valid model with the last value of one parameter set to value."""
    model = vk.init_model([3], output_dim=2, input_dim=4)
    getattr(model, params)[layer].flat[-1] = value
    return model


class TestInitAndSerialization:
    def test_same_seed_same_fingerprint(self):
        a = vk.init_model(seed=42)
        b = vk.init_model(seed=42)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != vk.init_model(seed=43).fingerprint()

    def test_layer_shapes(self):
        linear = vk.init_model(hidden_dims=[], output_dim=128)
        assert [w.shape for w in linear.weights] == [(RAW_DIM, 128)]
        mlp = vk.init_model(hidden_dims=[64], output_dim=128)
        assert [w.shape for w in mlp.weights] == [(RAW_DIM, 64), (64, 128)]
        assert all(np.all(b == 0) for b in mlp.biases)

    @pytest.mark.parametrize(
        "dims", [dict(hidden_dims=[0]), dict(output_dim=0), dict(input_dim=-1), dict(hidden_dims=[4, -2])]
    )
    def test_a_layer_dim_below_one_is_a_shape_error(self, dims):
        with pytest.raises(ShapeError, match="all layer dims must be positive"):
            vk.init_model(**dims)

    def test_save_load_round_trip(self, tmp_path, small_model):
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        back = load_model(path)
        assert back.fingerprint() == small_model.fingerprint()

    def test_corrupted_magic(self, tmp_path, small_model):
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    def test_another_version_is_named(self, tmp_path, small_model):
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unsupported VPRH file version 2"):
            load_model(path)

    def test_truncation_names_byte_counts(self, tmp_path, small_model):
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        full = path.read_bytes()
        path.write_bytes(full[: len(full) // 2])
        with pytest.raises(TruncatedError, match=str(len(full))):
            load_model(path)

    @pytest.mark.parametrize("missing", [1, 8, 1000])
    def test_cut_short_parameters_name_the_full_and_the_file_size(
        self, tmp_path, small_model, missing
    ):
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        full = path.read_bytes()
        path.write_bytes(full[:-missing])
        with pytest.raises(TruncatedError) as exc:
            load_model(path)
        assert f"expected {len(full)} bytes" in str(exc.value)
        assert str(len(full) - missing) in str(exc.value)

    @pytest.mark.parametrize(
        "shapes, why",
        [
            ([], "zero layers"),
            ([(4, 3), (2, 5)], "layer 1 takes 2 inputs"),
            ([(4, 0), (0, 5)], "zero dimension"),
            ([(0, 3)], "zero dimension"),
        ],
    )
    def test_malformed_layer_table_is_rejected(self, tmp_path, shapes, why):
        path = tmp_path / "m.vprh"
        path.write_bytes(model_bytes(shapes))
        with pytest.raises(FormatError, match=why):
            load_model(path)

    def test_trailing_bytes_are_rejected(self, tmp_path, small_model):
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="bytes"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("params, layer", [("weights", 0), ("biases", 1)])
    def test_non_finite_parameter_is_rejected_naming_the_layer(
        self, tmp_path, small_model, value, params, layer
    ):
        """The file of a valid model with the last value of one parameter
        overwritten: save_model refuses to write such a file."""
        path = tmp_path / "m.vprh"
        save_model(small_model, path)
        arrays = [p for w, b in zip(small_model.weights, small_model.biases) for p in (w, b)]
        index = 2 * layer + (params == "biases")
        end = 10 + 8 * len(small_model.weights) + 8 * sum(p.size for p in arrays[: index + 1])
        data = bytearray(path.read_bytes())
        data[end - 8 : end] = struct.pack("<d", value)
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"layer {layer} "):
            load_model(path)

    @pytest.mark.parametrize(
        "model, why",
        [
            (zeros_model([], []), "zero layers"),
            (zeros_model([(4, 3), (2, 5)], [3, 5]), "layer 1 takes 2 inputs"),
            (zeros_model([(4, 0)], [0]), "zero dimension"),
            (zeros_model([(4, 3)], [4]), r"layer 0 has a \(4, 3\) weight and a \(4,\) bias"),
            (zeros_model([(4, 3), (3, 2)], [3]), r"layer 1 has a \(3, 2\) weight and a \(\) bias"),
            (zeros_model([4], [()]), r"layer 0 has a \(4,\) weight"),
            (poisoned("biases", 1, np.nan), "layer 1 has a NaN or infinite"),
            (poisoned("weights", 0, -np.inf), "layer 0 has a NaN or infinite"),
        ],
        ids=["no-layer", "unchained", "zero-dim", "bias-shape", "no-bias", "1-d-weight",
             "nan", "inf"],
    )
    def test_a_model_load_model_would_refuse_is_not_saved(self, tmp_path, model, why):
        with pytest.raises(FormatError, match=why):
            save_model(model, tmp_path / "m.vprh")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=300, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 9), max_size=3),
        dims=st.tuples(st.integers(1, 12), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_init_models_round_trip_bit_exactly(self, hidden, dims, seed):
        model = vk.init_model(hidden, output_dim=dims[1], seed=seed, input_dim=dims[0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.vprh"
            save_model(model, path)
            back = load_model(path)
            save_model(back, Path(tmp) / "again.vprh")
            assert (Path(tmp) / "again.vprh").read_bytes() == path.read_bytes()
        params = zip(back.weights + back.biases, model.weights + model.biases)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in params)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["bytes", "table", "edit"]))
    def test_any_bytes_load_or_raise_a_vpr_error(self, data, kind):
        """Arbitrary bytes; a layer table of small, possibly zero or
        unchained dims with a payload of any length; or a valid model cut
        short, overwritten or extended at an offset."""
        blob = data.draw(st.binary(max_size=64))
        if kind == "table":
            shapes = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
            blob = model_bytes(shapes)[: 10 + 8 * len(shapes)] + blob
        elif kind == "edit":
            valid = model_bytes([(3, 2), (2, 2)])
            at = data.draw(st.integers(0, len(valid)))
            how = data.draw(st.sampled_from(["cut", "overwrite", "append"]))
            if how == "cut":
                blob = valid[:at]
            elif how == "overwrite":
                blob = valid[:at] + blob[:4] + valid[at + len(blob[:4]) :]
            else:
                blob = valid + blob
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.vprh"
            path.write_bytes(blob)
            try:
                model = load_model(path)
            except VprError:
                return
        dims = [model.input_dim] + [w.shape[1] for w in model.weights]
        assert min(dims) > 0
        assert all(np.isfinite(p).all() for p in model.weights + model.biases)
        assert [w.shape for w in model.weights] == list(zip(dims[:-1], dims[1:]))
        assert [b.shape for b in model.biases] == [(d,) for d in dims[1:]]
        with np.errstate(all="ignore"):
            assert forward(model, np.zeros(model.input_dim)).shape == (model.output_dim,)

