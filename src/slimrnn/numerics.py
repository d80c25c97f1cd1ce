"""Dense numeric kernels shared by the whole package.

Conventions: matrices are C-order float64 numpy arrays of shape
(rows, cols). Samples come in batches, B rows of features, (B, len); a
single sample is a batch of one, (1, len). A sequence adds a leading
time axis: (T, B, len). The activations act element-wise, so they take
any shape.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

ACTIVATIONS = ("sigmoid", "tanh", "relu")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator: one seed, one draw sequence, any platform."""
    return np.random.default_rng(int(seed))


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[b, i] = sum_j a[i, j] x[b, j], for x of shape (B, cols): one row
    per sample, a single sample being a batch of one.

    Computed as B stacked 1-row products, matmul(x[:, None, :], a.T), so
    row b gets exactly the bits that matvec(a, x[b:b+1]) gives, whatever
    the batch around it. One (B, cols) product may take another kernel
    and sum in another order.
    """
    if a.ndim != 2 or x.ndim != 2 or a.shape[1] != x.shape[1]:
        raise ValueError(f"matvec shape mismatch: matrix {a.shape} vs {x.shape}, "
                         f"expected (B, n) rows with n = {a.shape[-1]}")
    return np.matmul(x[:, None, :], a.T)[:, 0]


def activate(kind: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply an activation element-wise, into out when given (out=x works
    in place).

    The sigmoid is scipy's expit, 1 / (1 + exp(-x)): at large magnitudes
    it saturates to exactly 0 and 1, with no warning and no nan.
    """
    if kind == "sigmoid":
        return expit(x, out=out)
    if kind == "tanh":
        return np.tanh(x, out=out)
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    raise ValueError(f"unknown activation {kind!r}")


def activate_grad_from_output(kind: str, y: np.ndarray,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Activation derivative expressed through the output y = activate(x),
    into out when given. out must not overlap y: sigmoid reads y after
    writing out.

    sigmoid: y(1-y); tanh: 1-y^2; relu: 1 where y > 0 else 0. Phrasing
    the derivative in terms of the output lets backward passes reuse
    forward caches without storing pre-activations.
    """
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}")
    if out is None:
        out = np.empty(np.shape(y))
    elif np.shares_memory(out, y):
        raise ValueError("activate_grad_from_output: out overlaps y")
    if kind == "sigmoid":
        np.subtract(1.0, y, out=out)
        return np.multiply(out, y, out=out)
    if kind == "tanh":
        np.multiply(y, y, out=out)
        return np.subtract(1.0, out, out=out)
    return np.greater(y, 0.0, out=out)


def init_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Glorot draw in [-s, s] with s = sqrt(6 / (rows + cols)).

    Consumes exactly rows*cols draws from rng, so callers can rely on
    a fixed draw budget when initializing several tensors in sequence.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"init_matrix needs rows, cols >= 1, got {rows}x{cols}")
    s = float(np.sqrt(6.0 / (rows + cols)))
    return rng.uniform(-s, s, size=(rows, cols))
