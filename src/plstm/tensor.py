"""Dense numerical kernel: matrix product, activations with derivatives,
inverted dropout, categorical cross-entropy, and a finite-difference
gradient checker.

Everything operates on float64 numpy arrays. One kernel, `matmul_stacked`,
makes every matrix product, a stack of them at a time; `matmul` is its stack
of one. The summation contract: each output element sums the inner dimension
left to right, so results are bitwise reproducible and match a scalar
triple-loop evaluation exactly. Each rank-1 term a[:, k] b[k] is built by an
`np.einsum` whose subscripts sum no index ("i,j->ij", or "kgi,kgj->kgij" for
a block of terms): every output element receives exactly one product,
written into a zeroed output. A fused multiply-add with a +0 addend rounds
once, like a plain multiply, so each term is the rounded product; at most a
-0 product comes out as +0, which cannot change a running sum that starts at
+0. A subscript that sums an index ("ik,kj->ij"), or any `optimize=`
setting, would let einsum or BLAS reorder the sums, so neither is used, and
no other numpy product (`@`, `np.dot` and the like) is either.

Two paths keep that contract, and `one_stack` picks between them. While the
stack's output is small, the terms of a block of inner indices of every
product form one (k, G, M, N) array of at most _BLOCK_ELEMS elements (1 MB,
so a block stays in L2 cache), and one numpy reduction over the outer axis
adds the terms in index order, so a stack costs about the numpy calls of one
product; a stack `one_stack` admits gets at least 8 terms a block, and a K
that fits one block is one einsum and one reduction. The first block's
reduction starts from an explicit +0, as the one-index-at-a-time loop's
running sum does; each later block adds the running sum into its first
term. The running sum is the first operand of every add, as in that loop,
so each output element gets that loop's sum, down to a -0 term. Which of
two NaNs an add keeps is numpy's choice by the element's place in the
array, so a product alone keeps the loop's NaN, and a product in a stack of
several one of the same value. Every other stack runs that loop, one
product at a time: where the output is over STACKED_ELEMS, and for a 1x1
output, whose reduction numpy would sum pairwise. A product of more than
_TILE_ROWS rows runs the whole inner loop on one tile of rows at a time, so
the term and running sum stay in cache; a row's sum does not depend on the
tile it is in.
"""

from __future__ import annotations

import numpy as np

CCE_EPS = 1e-7

# float64 elements in one block of rank-1 terms: 1 MB, so a block stays in a
# core's L2 cache while it is reduced. Adam's chunk reads it too.
_BLOCK_ELEMS = 1 << 17

# output rows in one tile of the one-term loop: a product with more rows runs
# the whole inner loop on each tile in turn, so the (rows, N) term and
# running sum it adds stay in cache.
_TILE_ROWS = 512

# the most output elements, G*M*N, of a stack made as one (see `one_stack`);
# its own constant, not derived from the block: it also sets the branch
# groups, which a block size must not move. A stack it admits gets
# _BLOCK_ELEMS // STACKED_ELEMS = 8 terms a block or more.
STACKED_ELEMS = 1 << 14


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


def one_stack(g: int, m: int, n: int) -> bool:
    """Whether a stack of g (m, n) products is made as one, a block of terms
    of every product at a time: its output holds at most STACKED_ELEMS
    elements and is not 1x1."""
    return m * n > 1 and 0 < g * m * n <= STACKED_ELEMS


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of 2-D a and b: a stack of one."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    return matmul_stacked(a[None], b[None])[0]


def matmul_stacked(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A stack of matrix products, out[g] = a[g] b[g], each summed as the
    module docstring states. a is (G, M, K) and b (G, K, N); each is read
    through its (K, G, ·) transpose. b's is copied once unless it is
    C-contiguous as it lies, and so is a's on the blocked path; the loop
    reads a's transpose as a view, since each term reads one element of a
    per output row. Given `out`, a float64 (G, M, N) array or view, the loop
    sums into it from +0 and the blocked path copies its sums there, so it
    holds the bytes a new output would; it is returned."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"matmul_stacked expects (G, M, K) x (G, K, N), got {a.shape} and "
                         f"{b.shape}")
    (g, m, inner), n = a.shape, b.shape[2]
    if out is not None and (out.shape != (g, m, n) or out.dtype != np.float64):
        raise ShapeError(f"matmul_stacked writes a float64 {(g, m, n)} out, got {out.dtype} "
                         f"{out.shape}")
    at = a.transpose(2, 0, 1)  # (K, G, M)
    bt = np.ascontiguousarray(b.transpose(1, 0, 2))  # (K, G, N)
    if one_stack(g, m, n):
        at = np.ascontiguousarray(at)
        block = _BLOCK_ELEMS // (g * m * n)
        terms = np.einsum("kgi,kgj->kgij", at[:block], bt[:block])
        total = np.add.reduce(terms, axis=0, initial=0.0)
        for k0 in range(block, inner, block):
            rest = terms[: min(block, inner - k0)]
            np.einsum("kgi,kgj->kgij", at[k0 : k0 + block], bt[k0 : k0 + block], out=rest)
            np.add(total, rest[0], out=rest[0])
            np.add.reduce(rest, axis=0, out=total)
        if out is None:
            return total
        out[...] = total  # a copy: a strided `out` could reorder the reduction
        return out
    if out is None:
        out = np.zeros((g, m, n))
    else:
        out[...] = 0.0
    term = np.empty((min(m, _TILE_ROWS), n))
    for p in range(g):
        for r0 in range(0, m, _TILE_ROWS):
            tile = out[p, r0 : r0 + _TILE_ROWS]
            tile_term = term[: len(tile)]
            for k in range(inner):
                np.einsum("i,j->ij", at[k, p, r0 : r0 + _TILE_ROWS], bt[k, p], out=tile_term)
                tile += tile_term
    return out


def activate(kind: str, x: np.ndarray) -> np.ndarray:
    """Apply an activation; softmax is row-wise with max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "sigmoid":  # 1 / (1 + exp(-x)), each step in place in one new array
        y = np.negative(x)
        np.exp(y, out=y)
        y += 1.0
        return np.divide(1.0, y, out=y)
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
