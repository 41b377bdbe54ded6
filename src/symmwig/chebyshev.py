"""Rescaled trace-normalized Chebyshev polynomials.

T_m is fixed by T_m(2 cos t) = 2 cos(m t), so T_0 = 2 and T_1 = x, with
the scale folded in through T_m(x, sigma) = sigma^m T_m(x / sigma).
Matrix traces Tr T_m(X, sigma) are evaluated with the three-term
recurrence on two running matrices; no eigendecomposition.  Each call
allocates its matrix stacks once and reuses them for every degree.
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


def trace_cheb_vector(X, M: int, sigma: float) -> np.ndarray:
    """(Tr T_m(X, sigma))_{m=1..M} via the matrix recurrence.

    Accepts a dense Hermitian ndarray, or a stack of them of shape
    (..., dim, dim), giving traces of shape (..., M).  A non-finite input
    raises, and so does a member that differs from its conjugate transpose
    by more than 1e-12 of its largest |entry|, once, before the recurrence.
    An overflow raises OverflowError.  The stacks of the recurrence are
    allocated once per call.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    X = np.asarray(X)
    X = X.astype(np.result_type(X, 1.0), copy=False)  # float or complex, like every stack below
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.isfinite(X).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore"):  # a difference that overflows is not Hermitian
        skew = np.abs(X - X.swapaxes(-1, -2).conj()).max(axis=(-2, -1), initial=0.0)
        if (skew > 1e-12 * np.abs(X).max(axis=(-2, -1), initial=0.0)).any():
            raise ValueError("matrix is not Hermitian to 1e-12 of its largest entry")
    return _recurrence_traces(X, M, sigma, [np.empty_like(X) for _ in range(_stack_count(M))])


def _stack_count(M: int) -> int:
    """Stacks that ``_recurrence_traces`` needs for degrees 1..M."""
    return min(3, M - 1) + 1 if M > 1 else 0


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught on the traces
def _recurrence_traces(X: np.ndarray, M: int, sigma: float, stacks: list) -> np.ndarray:
    """``trace_cheb_vector`` on a checked square Hermitian stack X, float or complex.

    T_{m+1} = X T_m - sigma^2 T_{m-1} runs in up to three rotating stacks,
    stacks[0..2], with sigma^2 T_{m-1} in the scratch stack stacks[-1];
    ``stacks`` holds ``_stack_count(M)`` arrays shaped like X.  X is never
    written to.  With X and sigma finite, a non-finite trace is an overflow.
    """
    dim = X.shape[-1]
    out = np.empty(X.shape[:-2] + (M,), dtype=float)
    tr = np.empty(X.shape[:-2], dtype=X.dtype)
    s2 = sigma * sigma
    prev = 2.0 * np.eye(dim, dtype=X.dtype)  # T_0, broadcast over the stack
    cur = X  # T_1
    for m in range(1, M + 1):
        np.trace(cur, axis1=-2, axis2=-1, out=tr)
        if not np.isfinite(tr).all():
            raise OverflowError(f"trace of degree {m} overflows a float")
        out[..., m - 1] = tr.real
        if m < M:
            # neither prev nor cur is the stack written here
            nxt = stacks[(m - 1) % 3]
            np.matmul(X, cur, out=nxt)
            np.multiply(prev, s2, out=stacks[-1])
            np.subtract(nxt, stacks[-1], out=nxt)
            prev, cur = cur, nxt
    return out
