"""Dense numerical kernel: matrix product, activations with derivatives,
inverted dropout, categorical cross-entropy, and a finite-difference
gradient checker.

Everything operates on float64 numpy arrays. The matrix product accumulates
the inner dimension left to right so results are bitwise reproducible and
match a scalar triple-loop evaluation exactly. Each rank-1 term a[:, k] b[k]
is built by an `np.einsum` whose subscripts sum no index ("i,j->ij", or
"kgi,kgj->kgij" for a block of terms): every output element receives exactly
one product, written into a zeroed output. A fused multiply-add with a +0
addend rounds once, like a plain multiply, so each term is the rounded
product; at most a -0 product comes out as +0, which cannot change a running
sum that starts at +0. A subscript that sums an index ("ik,kj->ij"), or any
`optimize=` setting, would let einsum or BLAS reorder the sums, so neither
is used. While the output is small the terms of a cache-sized block of inner
indices form one (k, M, N) array, the running sum is added into the first
term, and one numpy reduction over the outer axis adds the terms in index
order. The running sum is the first operand of every add, as in the
one-index-at-a-time loop, so each output element gets that loop's sum, down
to which of two NaNs survives an add. That loop is kept where a
block would hold fewer than two terms, and for a 1x1 output, whose reduction
numpy would sum pairwise. On the loop path a product of more than
_TILE_ROWS rows runs the whole inner loop on one tile of rows at a time, so
the term and running sum stay in cache; a row's sum does not depend on the
tile it is in. `matmul_stacked` makes a stack of such products, one per
branch, each bitwise its own 2-D product: while the stack is small, one
no-sum einsum ("kgi,kgj->kgij") builds a block's terms of every product and
one reduction adds them, so a stack costs about the numpy calls of one
product.
"""

from __future__ import annotations

import numpy as np

CCE_EPS = 1e-7

# float64 elements in one block of matmul's rank-1 terms: 256 KB, so a block
# stays in L2 cache while it is reduced.
_BLOCK_ELEMS = 1 << 15

# output rows in one tile of matmul's one-term loop: a product with more rows
# runs the whole inner loop on each tile in turn, so the (rows, N) term and
# running sum it adds stay in cache.
_TILE_ROWS = 512

# the most output elements, G*M*N, that matmul_stacked makes as one stack: a
# block then holds at least two terms of every product.
STACKED_ELEMS = _BLOCK_ELEMS // 2


class ShapeError(ValueError):
    pass


class RngStream:
    """Seeded PCG64 stream; identical keys give identical sequences anywhere.

    The key is a tuple of non-negative integers fed to numpy's SeedSequence,
    so substreams are cheap to derive and collision-resistant.
    """

    def __init__(self, *key: int):
        self.gen = np.random.default_rng([int(k) for k in key])  # PCG64 over a SeedSequence

    def uniform(self, low, high, shape):
        return self.gen.uniform(low, high, size=shape)

    def random(self, shape):
        return self.gen.random(size=shape)

    def permutation(self, n):
        return self.gen.permutation(n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order.

    Accumulates rank-1 terms over the inner dimension in index order, which
    is the same floating-point order as the naive triple loop. Each term is
    an outer product from `np.einsum` with no summed index, so it holds the
    correctly rounded products and nothing else (see the module docstring);
    never give it a summed index or `optimize=`. Up to _BLOCK_ELEMS // (M*N)
    terms are built at once as a C-contiguous array (`_add_blocks`); the
    running sum is added into its first term and `np.add.reduce` over axis
    0 adds the rest one term after another, since the kept M*N axis is the
    inner loop. The running sum is the first operand of every add, as in the
    loop. Two cases keep the one-term loop, which reuses one (rows, N)
    buffer for the term: M*N > _BLOCK_ELEMS // 2, where a block would hold
    fewer than two terms and the reduction is slower, and M*N == 1, where
    the reduced axis is the only one and numpy sums it pairwise, in a
    different order. The loop runs over tiles of up to _TILE_ROWS output
    rows, one after another, each through every inner index.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)  # a transposed b reads its rows strided
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    (m, inner), n = a.shape, b.shape[1]
    out = np.zeros((m, n))
    at = np.ascontiguousarray(a.T)
    block = _BLOCK_ELEMS // (m * n) if m * n > 1 else 0
    if block < 2:
        term = np.empty((min(m, _TILE_ROWS), n))
        for r0 in range(0, m, _TILE_ROWS):
            tile = out[r0 : r0 + _TILE_ROWS]
            tile_term = term[: len(tile)]
            for k in range(inner):
                np.einsum("i,j->ij", at[k, r0 : r0 + _TILE_ROWS], b[k], out=tile_term)
                tile += tile_term
        return out
    _add_blocks(at[:, None], b[:, None], out[None])
    return out


def _add_blocks(at, bt, out):
    """Add into out (G, M, N) the rank-1 terms of every inner index k in
    order, at[k, g] times bt[k, g] for each g, a block of _BLOCK_ELEMS //
    out.size indices at a time: one no-sum einsum writes a block's terms
    into one reused buffer, the running sum is added into the first term,
    and `np.add.reduce` over axis 0 adds the rest one after another."""
    block = _BLOCK_ELEMS // out.size
    buffer = np.empty((min(block, len(at)), *out.shape))
    for k0 in range(0, len(at), block):
        terms = buffer[: min(block, len(at) - k0)]
        np.einsum("kgi,kgj->kgij", at[k0 : k0 + block], bt[k0 : k0 + block], out=terms)
        np.add(out, terms[0], out=terms[0])
        np.add.reduce(terms, axis=0, out=out)
    return out


def matmul_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A stack of matrix products: out[g] equals matmul(a[g], b[g]) bit for bit.

    a is (G, M, K) and b (G, K, N). While G*M*N <= STACKED_ELEMS, one
    `_add_blocks` makes all G products, a block of inner indices for every
    product at a time, as in `matmul`'s blocks, so G products cost the numpy
    calls of about one. A larger stack runs `matmul` per product into a
    preallocated output (a stack of one returns its product as it is), as
    do 1x1 products, whose stacked reduction can keep the other of two NaNs.
    b's transpose (K, G, N) is read as it lies when it is C-contiguous, else
    copied once.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"matmul_stacked expects (G, M, K) x (G, K, N), got {a.shape} and "
                         f"{b.shape}")
    g, m, n = a.shape[0], a.shape[1], b.shape[2]
    if m * n < 2 or not 0 < g * m * n <= STACKED_ELEMS:
        if g == 1:  # the one product as it is, without a copy
            return matmul(a[0], b[0])[None]
        out = np.empty((g, m, n))
        for k in range(g):
            out[k] = matmul(a[k], b[k])
        return out
    at = np.ascontiguousarray(a.transpose(2, 0, 1))  # (K, G, M)
    bt = np.ascontiguousarray(b.transpose(1, 0, 2))  # (K, G, N)
    return _add_blocks(at, bt, np.zeros((g, m, n)))


def activate(kind: str, x: np.ndarray) -> np.ndarray:
    """Apply an activation; softmax is row-wise with max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if kind == "tanh":
        return np.tanh(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "softmax":
        z = x - np.max(x, axis=-1, keepdims=True)
        e = np.exp(z)
        return e / np.sum(e, axis=-1, keepdims=True)
    raise ValueError(f"unknown activation {kind!r}")


def activate_grad(kind: str, y: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Backprop through an activation given its forward output y.

    relu uses y > 0, so the subgradient at exactly 0 is 0. softmax is the
    full row-wise Jacobian-vector product y * (u - <u, y>).
    """
    y = np.asarray(y, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if y.shape != upstream.shape:
        raise ShapeError(f"shape mismatch: {y.shape} vs {upstream.shape}")
    if kind == "sigmoid":
        return upstream * y * (1.0 - y)
    if kind == "tanh":
        return upstream * (1.0 - y * y)
    if kind == "relu":
        return upstream * (y > 0.0)
    if kind == "softmax":
        dot = np.sum(upstream * y, axis=-1, keepdims=True)
        return y * (upstream - dot)
    raise ValueError(f"unknown activation {kind!r}")


def categorical_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """Mean negative log-likelihood of the true class, with clipping.

    True-class values are clipped into [eps, 1-eps] before the log, so heads
    that emit values outside (0, 1) (relu, tanh) still produce a finite
    loss. The gradient is taken w.r.t. `probs` and is zero wherever the clip
    is active. Returns (loss, grad).
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape or probs.ndim != 2:
        raise ShapeError(f"shape mismatch: {probs.shape} vs {targets.shape}")
    if not np.all((targets == 0.0) | (targets == 1.0)) or not np.all(
        np.sum(targets, axis=1) == 1.0
    ):
        raise ValueError("targets must be one-hot rows")
    n = probs.shape[0]
    p_true = np.sum(probs * targets, axis=1)
    clipped = np.clip(p_true, CCE_EPS, 1.0 - CCE_EPS)
    loss = -np.mean(np.log(clipped))
    active = (p_true > CCE_EPS) & (p_true < 1.0 - CCE_EPS)
    d_true = np.where(active, -1.0 / (n * clipped), 0.0)
    grad = targets * d_true[:, None]
    return loss, grad


def dropout_mask(shape, rate: float, rng: RngStream) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate out of range: {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def grad_check(loss_fn, params: dict, analytic: dict, h: float = 1e-5, tol: float = 1e-4):
    """Compare analytic gradients against central finite differences.

    loss_fn takes the params dict and returns a scalar; it must be
    deterministic. Returns {block: (max_rel_err, passed)} plus an "all"
    entry with the overall verdict.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    report = {}
    worst = 0.0
    for name, theta in params.items():
        a = np.asarray(analytic[name], dtype=np.float64)
        max_err = 0.0
        flat = theta.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            num = (up - down) / (2.0 * h)
            err = abs(a_flat[i] - num) / max(abs(a_flat[i]), abs(num), 1e-8)
            max_err = max(max_err, err)
        report[name] = (max_err, max_err <= tol)
        worst = max(worst, max_err)
    report["all"] = (worst, worst <= tol)
    return report
