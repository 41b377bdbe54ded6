"""Rescaled trace-normalized Chebyshev polynomials.

T_m is fixed by T_m(2 cos t) = 2 cos(m t), so T_0 = 2 and T_1 = x, with
the scale folded in through T_m(x, sigma) = sigma^m T_m(x / sigma).
Matrix traces Tr T_m(X, sigma) are evaluated with the three-term
recurrence on two running matrices; no eigendecomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ChebSpec", "cheb_coefficients", "trace_cheb_vector"]


@dataclass(frozen=True)
class ChebSpec:
    """T_m(x, sigma) = sum_k coeffs[k] * sigma^(m-k) * x^k."""

    m: int
    sigma: float
    coeffs: tuple[int, ...]

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for k in range(self.m, -1, -1):
            acc = acc * x + self.coeffs[k] * self.sigma ** (self.m - k)
        return acc


def _coeff_rows(m: int) -> list[tuple[int, ...]]:
    # c^(m+1)_k = c^(m)_{k-1} - c^(m-1)_k, integer triangle
    rows: list[tuple[int, ...]] = [(2,), (0, 1)]
    while len(rows) <= m:
        prev, cur = rows[-2], rows[-1]
        nxt = [0] * (len(cur) + 1)
        for k, c in enumerate(cur):
            nxt[k + 1] += c
        for k, c in enumerate(prev):
            nxt[k] -= c
        rows.append(tuple(nxt))
    return rows


def cheb_coefficients(m: int, sigma: float) -> ChebSpec:
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    return ChebSpec(m=m, sigma=sigma, coeffs=_coeff_rows(m)[m])


def trace_cheb_vector(sample, M: int, sigma: float) -> np.ndarray:
    """(Tr T_m(X, sigma))_{m=1..M} via the matrix recurrence.

    Accepts a MatrixSample, a dense Hermitian ndarray, or a stack of them
    of shape (..., dim, dim), giving traces of shape (..., M).  Imaginary
    residue beyond 1e-9 * dim in any trace signals broken Hermiticity and
    raises.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    X = np.asarray(getattr(sample, "matrix", sample))
    X = X.astype(np.result_type(X, 1.0), copy=False)  # float or complex: nxt below inherits it and is updated in place
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError("matrix must be square")
    dim = X.shape[-1]
    out = np.empty(X.shape[:-2] + (M,), dtype=float)
    prev = 2.0 * np.eye(dim, dtype=X.dtype)  # T_0, broadcast over the stack
    cur = X  # T_1; never written to
    tol = 1e-9 * dim
    for m in range(1, M + 1):
        tr = np.trace(cur, axis1=-2, axis2=-1)
        residue = np.max(np.abs(np.imag(tr)), initial=0.0)
        if residue > tol:
            raise ValueError(
                f"trace of degree {m} has imaginary part {residue:.3e}; input not Hermitian"
            )
        out[..., m - 1] = np.real(tr)
        if m < M:
            nxt = X @ cur
            nxt -= (sigma * sigma) * prev  # in place: no fresh stack-sized buffer
            prev, cur = cur, nxt
    return out
