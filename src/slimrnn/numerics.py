"""Dense numeric kernels shared by the whole package.

Conventions: matrices are C-order float64 numpy arrays of shape
(rows, cols). Vectors carry their features on the last axis: a single
sample is (len,), a batch of samples is (B, len), and every kernel here
acts on that trailing axis alone, so the same call serves both. A
sequence adds a leading time axis: (T, len) or (T, B, len).
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

ACTIVATIONS = ("sigmoid", "tanh", "relu")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator: one seed, one draw sequence, any platform."""
    return np.random.default_rng(int(seed))


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[..., i] = sum_j a[i, j] x[..., j], for x of shape (..., cols).

    Computed as x @ a.T; ndarray.dot gives the same product with less
    per-call dispatch than the @ operator on these small operands.
    """
    if a.ndim != 2 or x.ndim < 1 or a.shape[1] != x.shape[-1]:
        raise ValueError(f"matvec shape mismatch: matrix {a.shape} vs vector {x.shape}")
    return x.dot(a.T)


def activate(kind: str, x: np.ndarray) -> np.ndarray:
    """Apply an activation element-wise.

    expit is the branch-stable sigmoid (never exponentiates a positive
    argument), so large-magnitude inputs cannot overflow.
    """
    if kind == "sigmoid":
        return expit(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


def activate_grad_from_output(kind: str, y: np.ndarray) -> np.ndarray:
    """Activation derivative expressed through the output y = activate(x).

    sigmoid: y(1-y); tanh: 1-y^2; relu: 1 where y > 0 else 0. Phrasing
    the derivative in terms of the output lets backward passes reuse
    forward caches without storing pre-activations.
    """
    if kind == "sigmoid":
        return y * (1.0 - y)
    if kind == "tanh":
        return 1.0 - y * y
    if kind == "relu":
        return (y > 0.0).astype(np.float64)
    raise ValueError(f"unknown activation {kind!r}")


def init_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform Glorot draw in [-s, s] with s = sqrt(6 / (rows + cols)).

    Consumes exactly rows*cols draws from rng, so callers can rely on
    a fixed draw budget when initializing several tensors in sequence.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"init_matrix needs rows, cols >= 1, got {rows}x{cols}")
    s = float(np.sqrt(6.0 / (rows + cols)))
    return rng.uniform(-s, s, size=(rows, cols))
