import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scalar_reference
from figphm import neuralnet as nn
from figphm.errors import DataError


class TestConv1d:
    def test_hand_computed(self):
        out = nn.conv1d(np.array([[1.0], [2.0], [3.0]]),
                        np.array([[[1.0], [1.0]]]), np.array([0.0]))
        assert out.tolist() == [[3.0], [5.0]]

    def test_zero_kernel_gives_bias(self):
        out = nn.conv1d(np.ones((4, 2)), np.zeros((3, 2, 2)), np.array([7.0, 8.0, 9.0]))
        assert np.array_equal(out, np.tile([7.0, 8.0, 9.0], (3, 1)))

    def test_identity_kernel(self):
        x = np.arange(5, dtype=float).reshape(5, 1)
        out = nn.conv1d(x, np.array([[[1.0]]]), np.zeros(1))
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("shape, width, take", [
        ((7, 3), 2, np.s_[:]),
        ((4, 9, 5), 3, np.s_[:]),
        ((1, 6, 4), 4, np.s_[:]),         # size-1 batch axis
        ((3, 5, 1), 5, np.s_[:]),         # size-1 feature axis, one window
        ((4, 12, 6), 3, np.s_[::2, 1::2, ::3]),  # non-contiguous input
        ((6, 4, 5), 2, np.s_[1:2]),       # a slice with a size-1 axis
    ])
    def test_windows_equal_sliding_window_view(self, shape, width, take):
        x = np.random.default_rng(2).normal(0, 1, shape)[take]
        want = np.lib.stride_tricks.sliding_window_view(
            x, (width, x.shape[-1]), axis=(-2, -1))
        want = want.reshape(x.shape[:-2] + (x.shape[-2] - width + 1, width * x.shape[-1]))
        got = nn._windows(x, width)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_windows_ignore_the_stride_of_a_size_one_axis(self):
        base = np.random.default_rng(3).normal(0, 1, (6, 4))
        x = np.lib.stride_tricks.as_strided(base, shape=(1, 6, 4), strides=(999, 32, 8))
        assert x.flags.c_contiguous
        assert np.array_equal(nn._windows(x, 3), nn._windows(base, 3)[None])

    def test_sequence_shorter_than_kernel(self):
        with pytest.raises(ValueError, match="shorter than kernel"):
            nn.conv1d(np.ones((2, 1)), np.ones((1, 3, 1)), np.zeros(1))

    def test_linearity_in_input(self):
        rng = np.random.default_rng(0)
        kernels = rng.normal(0, 1, (4, 3, 2))
        bias = np.zeros(4)
        x, y = rng.normal(0, 1, (6, 2)), rng.normal(0, 1, (6, 2))
        lhs = nn.conv1d(2.5 * x - 1.25 * y, kernels, bias)
        rhs = 2.5 * nn.conv1d(x, kernels, bias) - 1.25 * nn.conv1d(y, kernels, bias)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (5, 2))
        kernels = rng.normal(0, 1, (3, 2, 2))
        bias = rng.normal(0, 1, 3)
        dout = rng.normal(0, 1, (4, 3))

        def loss(xv, kv, bv):
            return float((nn.conv1d(xv, kv, bv) * dout).sum())

        dx, dk, db = nn.conv1d_backward(dout, x, kernels)
        eps = 1e-6
        for arr, grad in ((x, dx), (kernels, dk), (bias, db)):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss(x, kernels, bias)
                flat[i] = orig - eps
                down = loss(x, kernels, bias)
                flat[i] = orig
                assert gflat[i] == pytest.approx((up - down) / (2 * eps), abs=1e-6)

    def test_input_gradient_equals_a_zero_filled_sum(self):
        """``dx`` starts from the first shift's contribution, not from 0.0
        plus it, and holds the same values; rows of +-0.0 in ``dout`` give
        the zero contributions."""
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (3, 9, 4))
        kernels = rng.normal(0, 1, (5, 3, 4))
        dout = rng.normal(0, 1, (3, 7, 5))
        dout[0, :2] = 0.0
        dout[1, 3:] = -0.0
        dx, _, _ = nn.conv1d_backward(dout, x, kernels)
        contrib = np.matmul(dout.reshape(-1, 5), kernels.reshape(5, -1)).reshape(3, 7, 3, 4)
        want = np.zeros_like(x)
        for i in range(3):
            want[:, i:i + 7] += contrib[:, :, i]
        assert np.array_equal(dx, want)


class TestMaxpool1d:
    def test_hand_computed(self):
        out = nn.maxpool1d(np.array([[3.0], [5.0], [2.0], [4.0]]), 2)
        assert out.ravel().tolist() == [5.0, 4.0]

    def test_tail_dropped(self):
        out = nn.maxpool1d(np.arange(5, dtype=float).reshape(5, 1), 2)
        assert out.ravel().tolist() == [1.0, 3.0]

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than pool"):
            nn.maxpool1d(np.ones((1, 2)), 2)

    @staticmethod
    def _routed(dout, x, pool):
        route = np.empty(x.shape, dtype=bool)
        nn.maxpool1d(x, pool, route=route)
        return nn.maxpool1d_backward(dout, route, pool)

    def test_tie_routes_gradient_to_first(self):
        x = np.ones((4, 1))
        dout = np.array([[1.0], [2.0]])
        dx = self._routed(dout, x, 2)
        assert dx.ravel().tolist() == [1.0, 0.0, 2.0, 0.0]

    def test_gradient_hits_argmax(self):
        x = np.array([[3.0], [5.0], [2.0], [4.0]])
        dx = self._routed(np.array([[1.0], [1.0]]), x, 2)
        assert dx.ravel().tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_route_stops_at_a_zero_activation(self):
        x = np.array([[0.0], [0.0], [2.0], [0.0], [1.0]])
        dx = self._routed(np.array([[1.0], [1.0]]), x, 2)
        assert dx.ravel().tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=16),
           st.integers(min_value=1, max_value=4))
    def test_output_bounded_by_input_max(self, values, pool):
        x = np.array(values).reshape(-1, 1)
        if x.shape[0] < pool:
            return
        out = nn.maxpool1d(x, pool)
        assert out.max() <= x.max() + 1e-12


def _dropout(x, rate, seed):
    return x * nn.make_dropout_mask(x.shape, rate, nn.dropout_scale(rate),
                                    np.random.default_rng(seed))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(6, dtype=float)
        assert np.array_equal(_dropout(x, 0.0, seed=1), x)

    def test_statistics_of_inverted_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 1.5, size=100000)
        out = _dropout(x, 0.5, seed=3)
        surviving = np.count_nonzero(out) / x.size
        assert abs(surviving - 0.5) <= 0.01
        assert abs(out.mean() - x.mean()) <= 0.02 * x.mean()

    def test_deterministic_per_seed(self):
        x = np.ones(100)
        a = _dropout(x, 0.3, seed=5)
        b = _dropout(x, 0.3, seed=5)
        assert np.array_equal(a, b)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            _dropout(np.ones(3), 1.0, seed=0)
        with pytest.raises(ValueError):
            _dropout(np.ones(3), -0.1, seed=0)


class TestDense:
    def test_sigmoid_at_zero(self):
        out = nn.dense(np.zeros(3), np.zeros((1, 3)), np.zeros(1))
        assert out[0] == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            nn.dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))


class TestSigmoid:
    def test_stable_at_extremes(self):
        assert nn.sigmoid(500.0) == pytest.approx(1.0)
        assert nn.sigmoid(-500.0) == pytest.approx(0.0)

    def test_symmetry(self):
        x = np.linspace(-30, 30, 101)
        assert np.abs(nn.sigmoid(x) + nn.sigmoid(-x) - 1.0).max() < 1e-12

    def test_bitwise_the_boolean_mask_form(self):
        """The branch-free sigmoid gives the bytes of the boolean-mask form
        it replaced, at the signed zeros, where exp under- and overflows,
        at the infinities and on normal draws of three spreads."""
        edges = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, np.inf, -np.inf]
        rng = np.random.default_rng(12)
        x = np.concatenate([edges, rng.normal(0.0, 1.0, 40_000),
                            rng.normal(0.0, 30.0, 40_000), rng.normal(0.0, 400.0, 20_000)])
        assert nn.sigmoid(x).tobytes() == scalar_reference.sigmoid_boolean_mask(x).tobytes()
        for value in edges:
            got = nn.sigmoid(value)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == \
                scalar_reference.sigmoid_boolean_mask(np.array([value])).tobytes()


class TestEmbeddingBackward:
    """The lookup's gradient is one ``np.add.at`` over the flattened table;
    it makes the scalar adds of the row form ``np.add.at(grad, ids, dout)``
    in the same order, so the bytes are the row form's."""

    @pytest.mark.parametrize("shape, dim", [((5, 12), 4), ((12,), 3), ((16, 50), 50)],
                             ids=["batch", "single", "paper"])
    def test_flat_scatter_is_the_row_form(self, shape, dim):
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 9, size=shape)          # nine rows: many repeats
        ids.reshape(-1)[:4] = 3
        dout = rng.normal(0.0, 1.0, shape + (dim,))
        dout.reshape(-1)[::7] = -0.0
        start = rng.normal(0.0, 1.0, (9, dim))
        start[5] = -0.0
        want = start.copy()
        np.add.at(want, ids, dout)
        got = start.copy()
        nn.embedding_backward(dout, ids, got)
        assert got.tobytes() == want.tobytes()


class TestBceLoss:
    def test_half_probability(self):
        assert nn.bce_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_near_zero(self):
        assert nn.bce_loss(1.0, 1) <= 1e-6

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_label_symmetry(self, p):
        assert nn.bce_loss(p, 1) == pytest.approx(nn.bce_loss(1.0 - p, 0), abs=1e-9)

    def test_grad_sign(self):
        assert nn.bce_grad(0.3, 1) < 0  # raise p to lower the loss
        assert nn.bce_grad(0.3, 0) > 0


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        param = nn.Parameter(np.array([1.0, -2.0]))
        opt = nn.Adam([param])
        opt.step()
        assert param.value.tolist() == [1.0, -2.0]
        assert opt.step_count == 1

    def test_first_step_magnitude(self):
        # bias correction makes m_hat = g and v_hat = g^2, so
        # |delta| = lr * |g| / (|g| + eps)
        for g in (0.5, -3.0, 1e-3):
            param = nn.Parameter(np.array([2.0]))
            param.grad[:] = g
            opt = nn.Adam([param], lr=1e-3)
            opt.step()
            expected = 1e-3 * abs(g) / (abs(g) + opt.epsilon)
            assert abs(param.value[0] - (2.0 - math.copysign(expected, g))) < 1e-15

    def test_deterministic(self):
        def run():
            param = nn.Parameter(np.array([1.0, 2.0, 3.0]))
            opt = nn.Adam([param], lr=0.01)
            for step in range(5):
                param.grad[:] = [0.1 * (step + 1), -0.2, 0.3]
                opt.step()
            return param.value.copy()
        assert np.array_equal(run(), run())


class _LinearModel:
    """w . x + b with squared loss; gradients are exact."""

    def __init__(self, dim, seed):
        rng = np.random.default_rng(seed)
        self.w = nn.Parameter(rng.normal(0, 1, dim))
        self.b = nn.Parameter(np.zeros(1))

    def parameters(self):
        return [self.w, self.b]

    def loss(self, x, y):
        pred = float(self.w.value @ x + self.b.value[0])
        return (pred - y) ** 2

    def loss_and_grad(self, x, y):
        pred = float(self.w.value @ x + self.b.value[0])
        self.w.grad[:] = 2.0 * (pred - y) * x
        self.b.grad[:] = 2.0 * (pred - y)
        return (pred - y) ** 2


class TestGradientCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(4)
        model = _LinearModel(5, seed=4)
        err = nn.gradient_check(model, rng.normal(0, 1, 5), 0.7, epsilon=1e-4)
        assert err <= 1e-9


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = [nn.Parameter(np.arange(6, dtype=float).reshape(2, 3), name="w"),
                  nn.Parameter(np.array([1.5]), name="b")]
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint({"kind": "demo"}, params, path)
        ckpt = nn.load_checkpoint(path)
        assert ckpt.manifest["version"] == nn.CHECKPOINT_VERSION
        assert ckpt.manifest["kind"] == "demo"
        assert np.array_equal(ckpt.arrays[0], params[0].value)
        assert np.array_equal(ckpt.arrays[1], params[1].value)

    def test_version_rejected(self, tmp_path):
        params = [nn.Parameter(np.zeros(2))]
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint({"version": "other"}, params, path)
        # save overwrites the version; corrupt it manually
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"figphm-ckpt-1", b"figphm-ckpt-9"))
        with pytest.raises(DataError, match="version"):
            nn.load_checkpoint(path)

    def test_load_reads_each_array_once(self, tmp_path):
        """Each array is read straight into its own buffer, so at V=20k, d=50
        the tracemalloc peak stays near the file size (reading through a
        bytes object and copying it held each array twice: 1.98x)."""
        rng = np.random.default_rng(0)
        params = [nn.Parameter(rng.uniform(size=(20002, 50)), name="embedding"),
                  nn.Parameter(rng.uniform(size=(100, 3, 50)), name="conv3_kernels"),
                  nn.Parameter(np.zeros(100), name="conv3_bias")]
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint({"vocab": [f"w{i}" for i in range(20002)]}, params, path)
        tracemalloc.start()
        try:
            ckpt = nn.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * path.stat().st_size
        assert all(np.array_equal(array, p.value) for array, p in zip(ckpt.arrays, params))

    def test_truncated(self, tmp_path):
        params = [nn.Parameter(np.zeros(8))]
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint({}, params, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            nn.load_checkpoint(path)


def _maxpool_backward_reference(dout, x, pool):
    """Per-example argmax routing through put_along_axis."""
    n_windows = x.shape[0] // pool
    view = x[:n_windows * pool].reshape(n_windows, pool, x.shape[1])
    dwindows = np.zeros((n_windows, pool, x.shape[1]))
    np.put_along_axis(dwindows, view.argmax(axis=1)[:, None, :], dout[:, None, :], axis=1)
    dx = np.zeros_like(x)
    dx[:n_windows * pool] = dwindows.reshape(n_windows * pool, x.shape[1])
    return dx


class TestBatchedKernels:
    """A leading batch axis gives the per-example results stacked, and
    gradients summed over the batch."""

    def test_conv1d_batch_equals_examples(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (4, 7, 3))
        kernels, bias = rng.normal(0, 1, (5, 3, 3)), rng.normal(0, 1, 5)
        dout = rng.normal(0, 1, (4, 5, 5))
        out = nn.conv1d(x, kernels, bias)
        assert out.shape == (4, 5, 5)
        dx, dk, db = nn.conv1d_backward(dout, x, kernels)
        singles = [nn.conv1d_backward(dout[b], x[b], kernels) for b in range(4)]
        for b in range(4):
            assert np.abs(out[b] - nn.conv1d(x[b], kernels, bias)).max() < 1e-12
            assert np.abs(dx[b] - singles[b][0]).max() < 1e-12
        assert np.abs(dk - sum(s[1] for s in singles)).max() < 1e-12
        assert np.abs(db - sum(s[2] for s in singles)).max() < 1e-12
        no_dx, dk2, db2 = nn.conv1d_backward(dout, x, kernels, input_grad=False)
        assert no_dx is None
        assert np.array_equal(dk2, dk) and np.array_equal(db2, db)

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_maxpool_backward_matches_reference_with_ties(self, pool):
        rng = np.random.default_rng(pool)
        x = rng.integers(0, 3, size=(3, 8, 4)).astype(float)   # many ties and zeros
        route = np.empty(x.shape, dtype=bool)
        out = nn.maxpool1d(x, pool, route=route)
        dout = rng.normal(0, 1, out.shape)
        dx = nn.maxpool1d_backward(dout, route, pool)
        assert dx.shape == x.shape
        for b in range(3):
            single = np.empty(x[b].shape, dtype=bool)
            assert np.array_equal(out[b], nn.maxpool1d(x[b], pool, route=single))
            assert np.array_equal(single, route[b])
            # the route takes the ReLU's gate: no gradient where x is 0
            want = _maxpool_backward_reference(dout[b], x[b], pool) * (x[b] > 0.0)
            assert np.array_equal(dx[b], want)

    def test_dense_batch_equals_examples(self):
        rng = np.random.default_rng(8)
        x, weights, bias = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (1, 4)), np.ones(1)
        out = nn.dense(x, weights, bias)
        dout = rng.normal(0, 1, (3, 1))
        dx, dw, db = nn.dense_backward(dout, x, weights, out)
        singles = [nn.dense_backward(dout[b], x[b], weights, out[b])
                   for b in range(3)]
        for b in range(3):
            assert np.abs(out[b] - nn.dense(x[b], weights, bias)).max() < 1e-12
            assert np.abs(dx[b] - singles[b][0]).max() < 1e-12
        assert np.abs(dw - sum(s[1] for s in singles)).max() < 1e-12
        assert np.abs(db - sum(s[2] for s in singles)).max() < 1e-12

    def test_bce_elementwise(self):
        p, y = np.array([0.3, 0.9, 1.0]), np.array([1, 0, 1])
        assert nn.bce_loss(p, y).tolist() == [nn.bce_loss(a, b) for a, b in zip(p, y)]
        assert nn.bce_grad(p, y).tolist() == [nn.bce_grad(a, b) for a, b in zip(p, y)]

    def test_column_rates_draw_like_per_block_masks(self):
        rates = np.repeat([0.2, 0.5], [3, 2])
        mask = nn.make_dropout_mask((4, 5), rates, 1.0 / (1.0 - rates), np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for row in mask:
            assert np.array_equal(row[:3], nn.make_dropout_mask(3, 0.2, 1.0 / 0.8, rng))
            assert np.array_equal(row[3:], nn.make_dropout_mask(2, 0.5, 2.0, rng))


def _relu_outputs(rng, shape):
    """ReLU outputs with many ties and zeros, plus -0.0 entries."""
    pre = rng.integers(-2, 3, size=shape) * 0.5
    mixed = rng.random(shape) < 0.3
    pre[mixed] = rng.normal(0.0, 1.0, int(mixed.sum()))
    act = nn.relu(pre)
    act[rng.random(shape) < 0.1] = -0.0
    return act


def _signed_zeros(rng, shape):
    """Normal draws with about a tenth 0.0 and a tenth -0.0."""
    values = rng.normal(0.0, 1.0, shape)
    draw = rng.random(shape)
    values[draw < 0.1] = 0.0
    values[draw > 0.9] = -0.0
    return values


class TestPoolRoute:
    """The route ``maxpool1d`` records in a training forward, and the
    backward that multiplies by it, give the bytes of the old chain
    (``scalar_reference``'s ``maxpool1d_backward`` then ``relu_backward``
    on the activations), whatever the buffers held before."""

    # desk branches (T=16 at widths 3/4/5, a feature row of 28 or 29
    # entries at width 2), the paper shape's width 3 (T=50), a small one
    SHAPES = [(16, 14, 100), (16, 13, 100), (16, 12, 100), (16, 27, 100), (16, 28, 100),
              (16, 48, 100), (3, 7, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_route_backward_equals_pool_then_relu_backward(self, shape, pool):
        rng = np.random.default_rng([pool, *shape])
        act = _relu_outputs(rng, shape)
        route = np.ones(shape, dtype=bool)
        pooled = nn.maxpool1d(act, pool, route=route)
        assert pooled.tobytes() == nn.maxpool1d(act, pool).tobytes()
        dout = _signed_zeros(rng, pooled.shape)
        want = scalar_reference.relu_backward(
            scalar_reference.maxpool1d_backward(dout, act, pool), act)
        got = nn.maxpool1d_backward(dout, route, pool, out=np.full(shape, np.nan))
        assert got.tobytes() == want.tobytes()
        assert nn.maxpool1d_backward(dout, route, pool).tobytes() == want.tobytes()
        # dout as the training pass reads it: a column slice of the hidden layer
        wide = np.full((shape[0], dout[0].size + 9), np.nan)
        columns = wide[:, 4:4 + dout[0].size]
        columns[...] = dout.reshape(shape[0], -1)
        got = nn.maxpool1d_backward(columns.reshape(dout.shape), route, pool)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pool", [1, 2, 3])
    def test_one_example_without_a_batch_axis(self, pool):
        rng = np.random.default_rng(pool)
        act = _relu_outputs(rng, (11, 4))
        route = np.empty(act.shape, dtype=bool)
        dout = _signed_zeros(rng, nn.maxpool1d(act, pool, route=route).shape)
        want = scalar_reference.relu_backward(
            scalar_reference.maxpool1d_backward(dout, act, pool), act)
        assert nn.maxpool1d_backward(dout, route, pool).tobytes() == want.tobytes()


class TestOneUnitHead:
    """The head is one sigmoid unit, so its input gradient is the product
    dout * W, equal in value to the GEMM dout @ W (a saturated sigmoid may
    give -0.0 where the GEMM gave 0.0); the weight and bias gradients keep
    their bytes."""

    # desk PHMD and FeatAug and paper PHMD hidden widths, and a small one
    @pytest.mark.parametrize("batch, width", [(16, 1900), (16, 3300), (16, 7000), (3, 4)])
    def test_input_gradient_equals_the_matmul_form(self, batch, width):
        rng = np.random.default_rng(width)
        x, weights = _signed_zeros(rng, (batch, width)), rng.normal(0, 0.05, (1, width))
        x[:2] *= 1e4                                       # saturate two rows
        out = nn.dense(x, weights, np.zeros(1))
        dout = _signed_zeros(rng, (batch, 1))
        got = nn.dense_backward(dout, x, weights, out, dx=np.full(x.shape, np.nan))
        want = scalar_reference.dense_backward_matmul(dout, x, weights, out)
        assert np.array_equal(got[0], want[0])
        assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]]


class TestOutputBuffers:
    """A kernel writing into caller-owned buffers gives bitwise what it
    returns when it allocates its own, whatever the buffers held before."""

    @staticmethod
    def _garbage(shape, dtype=np.float64):
        buffer = np.empty(shape, dtype)
        buffer.fill(True if dtype is bool else np.nan)
        return buffer

    def test_conv1d_backward_given_the_forward_windows(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (4, 9, 3))
        kernels, bias = rng.normal(0, 1, (5, 3, 3)), rng.normal(0, 1, 5)
        dout = rng.normal(0, 1, (4, 7, 5))
        windows, out = self._garbage((4, 7, 9)), self._garbage((4, 7, 5))
        forward = nn.conv1d(x, kernels, bias, windows=windows, out=out)
        assert forward.tobytes() == nn.conv1d(x, kernels, bias).tobytes()
        want = nn.conv1d_backward(dout, x, kernels)
        got = nn.conv1d_backward(dout, x, kernels, windows=windows)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # the input gradient's GEMM may overwrite the windows it has used
        got = nn.conv1d_backward(dout, x, kernels, windows=windows,
                                 dkernels=self._garbage(kernels.shape), contrib=windows,
                                 dx=self._garbage(x.shape))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("pool", [2, 3])
    def test_pool_and_relu_in_buffers(self, pool):
        rng = np.random.default_rng(pool)
        x = np.maximum(rng.integers(-2, 3, size=(3, 8, 4)).astype(float), 0.0)  # ties
        pooled = self._garbage((3, 8 // pool, 4))
        route, fresh = self._garbage(x.shape, bool), np.zeros(x.shape, dtype=bool)
        assert nn.maxpool1d(x, pool, out=pooled, route=route).tobytes() \
            == nn.maxpool1d(x, pool).tobytes()
        nn.maxpool1d(x, pool, route=fresh)
        assert route.tobytes() == fresh.tobytes()
        dout = rng.normal(0, 1, pooled.shape)
        routed = nn.maxpool1d_backward(dout, route, pool, out=self._garbage(x.shape))
        assert routed.tobytes() == nn.maxpool1d_backward(dout, route, pool).tobytes()
        want = nn.relu_backward(routed, x)
        assert nn.relu_backward(routed, x, out=routed).tobytes() == want.tobytes()
        pre = rng.normal(0, 1, x.shape)
        want = nn.relu(pre)
        assert nn.relu(pre, out=pre).tobytes() == want.tobytes()

    def test_dropout_mask_draws_the_same_stream(self):
        rates = np.repeat([0.2, 0.5], [3, 2])
        plain, buffered = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(2):
            want = nn.make_dropout_mask((4, 5), rates, 1.0 / (1.0 - rates), plain)
            got = nn.make_dropout_mask((4, 5), rates, 1.0 / (1.0 - rates), buffered,
                                       out=self._garbage((4, 5)),
                                       keep=self._garbage((4, 5), bool))
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(nn.make_dropout_mask((2, 5), 0.0, 1.0, plain, out=np.zeros((2, 5))),
                              np.ones((2, 5)))

    def test_dense_backward_input_gradient_in_a_buffer(self):
        rng = np.random.default_rng(8)
        x, weights = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (1, 4))
        out = nn.dense(x, weights, np.ones(1))
        dout = rng.normal(0, 1, (3, 1))
        want = nn.dense_backward(dout, x, weights, out)
        got = nn.dense_backward(dout, x, weights, out, dx=self._garbage(x.shape))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestLazyGradient:
    def test_allocated_zeroed_on_first_read(self):
        param = nn.Parameter(np.ones((3, 2)))
        param.zero_grad()
        assert param._grad is None
        assert param.grad.tobytes() == np.zeros((3, 2)).tobytes()
        param.grad += 1.0
        param.zero_grad()
        assert param.grad.tobytes() == np.zeros((3, 2)).tobytes()
        param.grad = None
        assert param._grad is None


class TestAdamInPlace:
    def test_bitwise_equal_to_textbook_form(self):
        rng = np.random.default_rng(10)
        shapes = [(nn.ADAM_BLOCK + 37,), (3, 5)]         # one spans two blocks
        params = [nn.Parameter(rng.normal(0, 1, s)) for s in shapes]
        values = [p.value.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = nn.Adam(params, lr=0.01)
        beta1, beta2, eps = opt.beta1, opt.beta2, opt.epsilon
        for t in range(1, 4):
            for i, p in enumerate(params):
                p.grad[...] = rng.normal(0, 1, p.value.shape)
                m[i] = beta1 * m[i] + (1.0 - beta1) * p.grad
                v[i] = beta2 * v[i] + (1.0 - beta2) * p.grad ** 2
                m_hat, v_hat = m[i] / (1.0 - beta1 ** t), v[i] / (1.0 - beta2 ** t)
                values[i] = values[i] - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
            value_ids = [id(p.value) for p in params]
            opt.step()
            assert [id(p.value) for p in params] == value_ids
            for i, p in enumerate(params):
                assert np.array_equal(p.value, values[i])
                assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i])


def _adam_row_run():
    """Six Adam steps on a 4000 x 20 embedding-like parameter (larger than
    ADAM_BLOCK) and a small dense one. Rows join the written set at steps 1,
    3 and 5; row 5 is written at every step with a gradient of exactly 0,
    rows 5 and 9 hold -0.0 entries, and rows 7 and 8 (one of them all -0.0)
    are never written. Each step's gradient is written only on that step's
    rows, as ``np.add.at`` writes the embedding gradient. Returns (value, m,
    v) of both parameters after every step."""
    rng = np.random.default_rng(2024)
    table = rng.normal(0.0, 1.0, (4000, 20))
    table[5, :4] = -0.0
    table[7] = -0.0
    table[9, ::2] = -0.0
    emb, other = nn.Parameter(table), nn.Parameter(rng.normal(0.0, 1.0, (3, 5)))
    opt = nn.Adam([emb, other], lr=0.01)
    never = {7, 8}
    joins = {1: np.array([0, 3, 5, 11]), 3: np.arange(20, 60),
             5: np.array([9] + [r for r in range(100, 3700) if r not in never])}
    used = np.zeros(table.shape[0], dtype=bool)
    states = []
    for step in range(1, 7):
        opt.zero_grad()
        fresh = joins.get(step, np.array([], dtype=np.intp))
        old = np.flatnonzero(used)
        written = np.union1d(fresh, old[rng.random(old.size) < 0.5])
        written = np.union1d(written, [5])
        used[written] = True
        emb.grad[written] = rng.normal(0.0, 1.0, (written.size, table.shape[1]))
        emb.grad[5] = 0.0
        other.grad[...] = rng.normal(0.0, 1.0, other.grad.shape)
        opt.step()
        states.append([a.copy() for p, m, v in zip(opt.params, opt.m, opt.v)
                       for a in (p.value, m, v)])
    return states, table


class TestAdamRows:
    """Adam on rows that gradients reach at different steps. DENSE_SHA256 is
    the digest of every state of the run, recorded with the dense-only
    optimizer before row-restricted steps existed. Rows never written stay
    bitwise as they were, -0.0 included."""

    DENSE_SHA256 = "656ae0657a91293befedcbd832b2bf5e6c2ccdb3f40095ae450eddf6b6c63d5b"

    @staticmethod
    def _digest(states):
        digest = hashlib.sha256()
        for state in states:
            for array in state:
                digest.update(array.tobytes())
        return digest.hexdigest()

    def test_dense_run_matches_the_recorded_digest(self):
        states, table = _adam_row_run()
        assert self._digest(states) == self.DENSE_SHA256
        final = states[-1][0]
        for row in (7, 8):
            assert final[row].tobytes() == table[row].tobytes()
        assert np.signbit(final[7]).all()
