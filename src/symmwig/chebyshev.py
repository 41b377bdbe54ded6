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
    allocated once per call, in the dtype of X: a real X (a CI sample)
    runs in real arithmetic, a complex one (a DIII sample) in complex.
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
    return _recurrence_traces(X, M, sigma, [np.empty_like(X) for _ in range(_stack_count(M))], 1)


def _stack_count(M: int) -> int:
    """Stacks that ``_recurrence_traces`` needs for degrees 1..M."""
    return min(3, M - 1) + 1 if M > 1 else 0


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught on the traces
def _recurrence_traces(Y, M: int, sigma: float, stacks: list, pair_unit: int) -> np.ndarray:
    """Tr T_m(u Y, sigma), m = 1..M, of a checked square stack Y, u^2 = ``pair_unit``.

    Hermitian Y, float or complex, takes pair_unit 1 and u = 1.  A DIII
    matrix X = iY, Y real skew, takes pair_unit -1 and u = i, so that every
    stack stays real: T_m(iY, sigma) = i^m U_m(Y, sigma), where

        U_0 = 2,  U_1 = Y,  U_{m+1} = Y U_m - (pair_unit sigma^2) U_{m-1},

    the literal recurrence with sigma^2 signed by the pair unit, and Tr T_m
    = Re(u^m) Tr U_m: Tr U_m itself at pair_unit 1; at pair_unit -1,
    (-1)^(m/2) Tr U_m at even m and exactly +0.0 at odd m, where no trace
    is taken, and U_M is not formed at odd M.

    U runs in up to three rotating stacks, stacks[0..2], with the signed
    sigma^2 U_{m-1} in the scratch stack stacks[-1]; ``stacks`` holds
    ``_stack_count(M)`` arrays shaped like Y.  Y is never written to.  With
    Y and sigma finite, a non-finite trace is an overflow.
    """
    dim = Y.shape[-1]
    out = np.zeros(Y.shape[:-2] + (M,))  # odd degrees stay +0.0 in DIII
    tr = np.empty(Y.shape[:-2], dtype=Y.dtype)
    s2 = pair_unit * sigma * sigma
    prev = 2.0 * np.eye(dim, dtype=Y.dtype)  # U_0, broadcast over the stack
    cur = Y  # U_1
    last = M if pair_unit > 0 else M - M % 2
    for m in range(1, last + 1):
        if pair_unit > 0 or m % 2 == 0:
            np.trace(cur, axis1=-2, axis2=-1, out=tr)
            if not np.isfinite(tr).all():
                raise OverflowError(f"trace of degree {m} overflows a float")
            out[..., m - 1] = pair_unit ** (m // 2) * tr.real  # Re(u^m) Tr U_m
        if m < last:
            # neither prev nor cur is the stack written here
            nxt = stacks[(m - 1) % 3]
            np.matmul(Y, cur, out=nxt)
            np.multiply(prev, s2, out=stacks[-1])
            np.subtract(nxt, stacks[-1], out=nxt)
            prev, cur = cur, nxt
    return out
