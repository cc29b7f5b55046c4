import hashlib
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plstm.tensor import (
    _BLOCK_ELEMS,
    _TILE_ROWS,
    RngStream,
    ShapeError,
    activate,
    activate_grad,
    categorical_cross_entropy,
    dropout_mask,
    grad_check,
    matmul,
)


def matmul_oracle(a, b):
    """Naive triple loop, inner dimension summed left to right."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def matmul_rank1(a, b):
    """One rank-1 update per inner index, in index order: the summation
    `matmul` must reproduce bit for bit on both of its paths."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def _operand(gen, shape, layout, nonfinite=False):
    """Values over many magnitudes with injected 0.0 and -0.0, and with
    nonfinite also inf, -inf and nan, laid out C-ordered, F-ordered or as the
    transposed view of a C array."""
    x = gen.standard_normal(shape) * np.exp2(gen.integers(-20, 21, shape))
    specials = (0.0, -0.0, np.inf, -np.inf, np.nan) if nonfinite else (0.0, -0.0)
    for value in specials:
        x[gen.random(shape) < (0.1 if value == 0.0 else 0.02)] = value
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "T":
        return np.ascontiguousarray(x.T).T
    return x


# (M, K, N): the benchmark's operand shapes, two terms a block with a
# one-term last block, single-row/column outputs, the 1x1 output that must
# keep the loop, loop products of several row tiles with a short last tile,
# and zero-size operands.
MATMUL_CASES = [
    (8, 16, 16), (16, 128, 128), (128, 16, 128), (512, 32, 128), (128, 9, 128),
    (1, 128, 1), (1, 37, 1), (64, 128, 1), (1, 128, 64), (1100, 16, 128), (513, 40, 64),
    (0, 5, 3), (3, 5, 0), (0, 0, 0), (4, 0, 6), (1, 0, 1),
]


class TestMatmulBlocked:
    def _check(self, m, k, n, seed, layouts, nonfinite=False):
        gen = np.random.default_rng(seed)
        a = _operand(gen, (m, k), layouts[0], nonfinite)
        b = _operand(gen, (k, n), layouts[1], nonfinite)
        with np.errstate(all="ignore"):
            got = matmul(a, b)
            want = matmul_rank1(a, b)
        assert got.shape == (m, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layouts", ["CC", "FT", "TF"])
    @pytest.mark.parametrize("m,k,n", MATMUL_CASES)
    def test_fixed_shapes_match_rank1_loop_bitwise(self, m, k, n, layouts):
        self._check(m, k, n, m * 10007 + k * 101 + n, layouts)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
           st.integers(0, 2**32 - 1), st.sampled_from(["CC", "CF", "FT", "TC", "TT"]))
    @settings(max_examples=300, deadline=None)
    def test_random_shapes_match_rank1_loop_bitwise(self, m, k, n, seed, layouts):
        self._check(m, k, n, seed, layouts)

    # inf * 0 and inf - inf make NaNs of the other sign than nan, so the sums
    # also pin which of two NaNs an add keeps. A product of two input NaNs
    # of different sign is left out: numpy's multiply and einsum kernels
    # keep different ones, and IEEE 754 leaves the choice open.
    @pytest.mark.parametrize("layouts", ["CC", "FT"])
    @pytest.mark.parametrize("m,k,n", MATMUL_CASES)
    def test_fixed_shapes_with_non_finite_match_rank1_loop_bitwise(self, m, k, n, layouts):
        self._check(m, k, n, m * 10007 + k * 101 + n + 1, layouts, nonfinite=True)

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
           st.integers(0, 2**32 - 1), st.sampled_from(["CC", "CF", "FT", "TC", "TT"]))
    @settings(max_examples=200, deadline=None)
    def test_random_shapes_with_non_finite_match_rank1_loop_bitwise(self, m, k, n, seed,
                                                                    layouts):
        self._check(m, k, n, seed, layouts, nonfinite=True)

    def test_fixed_shapes_reach_every_path(self):
        blocks = [(_BLOCK_ELEMS // (m * n), m, k) for m, k, n in MATMUL_CASES if m * n > 1]
        assert any(block < 2 for block, _, _ in blocks)  # rank-1 loop
        # the loop over several row tiles, the last one short
        assert any(block < 2 and m > 2 * _TILE_ROWS and m % _TILE_ROWS for block, m, _ in blocks)
        assert any(block == 2 and k % 2 for block, _, k in blocks)  # one-term last block
        assert any(2 < block < k for block, _, k in blocks)  # several wide blocks


def _dispatch_levels():
    """numpy's runtime-dispatch targets that this CPU has, lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _nan_canonical(x):
    return np.where(np.isnan(x), np.nan, x)


# The child runs matmul and, from this file's source, the rank-1 loop on
# the products saved in argv[1]. It prints the hash of matmul's bytes, the
# loop's, matmul's with every NaN made np.nan, and the dispatch levels left on.
_DISPATCH_CHILD = "import numpy as np\n" + "".join(
    inspect.getsource(f) for f in (matmul_rank1, _nan_canonical, _dispatch_levels)) + """
import hashlib, sys
from plstm.tensor import matmul
ops = np.load(sys.argv[1])
pairs = [(ops[f"arr_{i}"], ops[f"arr_{i + 1}"]) for i in range(0, len(ops.files), 2)]
digests = [hashlib.sha256() for _ in range(3)]
with np.errstate(all="ignore"):
    for a, b in pairs:
        got = matmul(a, b)
        digests[0].update(got.tobytes())
        digests[1].update(matmul_rank1(a, b).tobytes())
        digests[2].update(_nan_canonical(got).tobytes())
print(*[d.hexdigest() for d in digests], *_dispatch_levels())
"""


def test_matmul_bytes_do_not_depend_on_cpu_dispatch(tmp_path):
    """The products of MATMUL_CASES, finite and with inf, -inf and nan, are
    run in child processes that turn numpy's SIMD kernels off one dispatch
    level at a time (through NPY_DISABLE_CPU_FEATURES, each child disabling
    one more level from the top). In every child matmul's bytes equal the
    rank-1 loop's in that child, and, once each NaN is made np.nan, the
    rank-1 loop's here. The sign of a NaN is left out across levels because
    numpy's own multiply and add pick a different NaN at the baseline level.
    Only the levels this CPU has can be disabled, so only those are covered.
    """
    levels = _dispatch_levels()
    if not levels:
        pytest.skip("numpy dispatches no SIMD level on this CPU")
    gen = np.random.default_rng(7)
    ops = [_operand(gen, shape, "C", nonfinite)
           for nonfinite in (False, True) for m, k, n in MATMUL_CASES
           for shape in ((m, k), (k, n))]
    np.savez(tmp_path / "ops.npz", *ops)
    want = hashlib.sha256()
    with np.errstate(all="ignore"):
        for a, b in zip(ops[::2], ops[1::2]):
            want.update(_nan_canonical(matmul_rank1(a, b)).tobytes())
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPY_")}
    for i, level in enumerate(levels):
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(levels[i:])
        child = subprocess.run(
            [sys.executable, "-c", _DISPATCH_CHILD, str(tmp_path / "ops.npz")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        got, loop, canonical, *enabled = child.stdout.split()
        assert enabled == levels[:i], f"{level} and above were not disabled"
        assert got == loop, f"matmul differs from the rank-1 loop with {level} and above off"
        assert canonical == want.hexdigest(), f"matmul values change with {level} and above off"


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.5, -2.0], [0.25, 7.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        assert np.array_equal(out, [[17.0], [39.0]])

    def test_matches_triple_loop_exactly(self):
        rng = RngStream(0)
        a = rng.uniform(-2, 2, (7, 3))
        b = rng.uniform(-2, 2, (3, 5))
        assert np.array_equal(matmul(a, b), matmul_oracle(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_distributes_over_addition(self):
        rng = RngStream(1)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        c = rng.uniform(-1, 1, (4, 4))
        lhs = matmul(a, b + c)
        rhs = matmul(a, b) + matmul(a, c)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestActivate:
    def test_fixed_points(self):
        assert activate("sigmoid", np.array([[0.0]]))[0, 0] == 0.5
        assert activate("tanh", np.array([[0.0]]))[0, 0] == 0.0
        assert activate("relu", np.array([[-3.0]]))[0, 0] == 0.0
        assert activate("relu", np.array([[2.0]]))[0, 0] == 2.0

    def test_softmax_symmetry(self):
        assert np.allclose(activate("softmax", np.array([[0.0, 0.0]])), [[0.5, 0.5]])
        assert np.allclose(activate("softmax", np.ones((1, 4))), np.full((1, 4), 0.25))

    def test_softmax_analytic(self):
        out = activate("softmax", np.array([[math.log(2.0), 0.0]]))
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        x = RngStream(2).uniform(-10, 10, (100, 6))
        out = activate("softmax", x)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)
        assert np.all((out > 0) & (out < 1))

    def test_softmax_shift_invariance(self):
        x = RngStream(3).uniform(-5, 5, (8, 4))
        # Subtracting the row max is exactly what softmax does internally,
        # so that particular shift changes nothing bitwise. An arbitrary
        # shift perturbs the logits' own rounding, hence only approximate.
        shifted = x - x.max(axis=1, keepdims=True)
        assert np.array_equal(activate("softmax", x), activate("softmax", shifted))
        close = activate("softmax", x + 123.25)
        assert np.abs(activate("softmax", x) - close).max() < 1e-12

    def test_range_contracts(self):
        # Strict open bounds hold until float64 saturation (|x| ~ 37 for
        # sigmoid, ~ 19 for tanh); past that the outputs clamp to the
        # closed interval, never beyond.
        x = RngStream(4).uniform(-15, 15, (20, 20))
        s = activate("sigmoid", x)
        t = activate("tanh", x)
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))
        big = RngStream(44).uniform(-500, 500, (20, 20))
        assert np.all((activate("sigmoid", big) >= 0) & (activate("sigmoid", big) <= 1))
        assert np.all((activate("tanh", big) >= -1) & (activate("tanh", big) <= 1))
        assert np.all(activate("relu", big) >= 0)


class TestActivateGrad:
    def test_sigmoid_midpoint(self):
        g = activate_grad("sigmoid", np.array([[0.5]]), np.array([[1.0]]))
        assert g[0, 0] == 0.25

    def test_relu_dead_unit(self):
        g = activate_grad("relu", np.array([[0.0]]), np.array([[5.0]]))
        assert g[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["softmax", "sigmoid", "relu", "tanh"])
    def test_matches_finite_differences(self, kind):
        rng = RngStream(5)
        x = rng.uniform(0.1, 2.0, (1, 4))  # positive, clear of relu's kink
        u = rng.uniform(-1, 1, (1, 4))
        y = activate(kind, x)
        analytic = activate_grad(kind, y, u)
        h = 1e-5
        for j in range(4):
            xp = x.copy()
            xp[0, j] += h
            xm = x.copy()
            xm[0, j] -= h
            num = np.sum(u * (activate(kind, xp) - activate(kind, xm))) / (2 * h)
            rel = abs(analytic[0, j] - num) / max(abs(analytic[0, j]), abs(num), 1e-8)
            assert rel < 1e-6


class TestCrossEntropy:
    def test_perfect_prediction(self):
        loss, _ = categorical_cross_entropy(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert 0.0 <= loss <= 1.2e-7

    def test_uniform_prediction(self):
        loss, _ = categorical_cross_entropy(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_out_of_range_head_is_clipped(self):
        # a tanh-style head emitting values outside (0, 1)
        loss, _ = categorical_cross_entropy(np.array([[-0.2, 0.4]]), np.array([[0.0, 1.0]]))
        assert abs(loss - (-math.log(0.4))) < 1e-12

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            categorical_cross_entropy(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))

    def test_gradient_zero_outside_clip(self):
        _, grad = categorical_cross_entropy(np.array([[-0.2, 1.2]]), np.array([[0.0, 1.0]]))
        assert np.array_equal(grad, np.zeros((1, 2)))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = RngStream(6).uniform(-1, 1, (5, 5))
        assert np.array_equal(x * dropout_mask(x.shape, 0.0, RngStream(7)), x)

    def test_inverted_scaling_preserves_mean(self):
        out = dropout_mask((100, 1000), 0.6, RngStream(10))
        assert abs(out.mean() - 1.0) < 0.01

    def test_zero_fraction_near_rate(self):
        out = dropout_mask(40000, 0.4, RngStream(11))
        frac = float(np.mean(out == 0.0))
        sigma = math.sqrt(0.4 * 0.6 / 40000)
        assert abs(frac - 0.4) < 3 * sigma

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            dropout_mask(3, 1.0, RngStream(12))


class TestGradCheck:
    def test_quadratic(self):
        theta = np.array([3.0, -4.0])
        params = {"theta": theta}

        def loss(p):
            return 0.5 * float(np.sum(p["theta"] ** 2))

        report = grad_check(loss, params, {"theta": theta.copy()}, h=1e-5, tol=1e-8)
        assert report["all"][1]
        assert report["theta"][0] <= 1e-9

    def test_sigmoid_neuron_with_cross_entropy(self):
        rng = RngStream(13)
        w = rng.uniform(-1, 1, (1, 3))
        x = rng.uniform(-1, 1, (3, 2))
        target = np.array([[1.0, 0.0]])

        def loss(p):
            y = activate("sigmoid", matmul(p["w"], x))
            return categorical_cross_entropy(y, target)[0]

        y = activate("sigmoid", matmul(w, x))
        _, d_probs = categorical_cross_entropy(y, target)
        d_logits = activate_grad("sigmoid", y, d_probs)
        analytic = {"w": matmul(d_logits, x.T)}
        report = grad_check(loss, {"w": w}, analytic, h=1e-5, tol=1e-6)
        assert report["all"][1]


def test_rng_stream_reproducible():
    a = RngStream(42, 7).uniform(0, 1, 100)
    b = RngStream(42, 7).uniform(0, 1, 100)
    c = RngStream(42, 8).uniform(0, 1, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
