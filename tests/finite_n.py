"""Exact finite-n values of trace covariances, for grading against.

A covariance q_n of two Chebyshev traces of degrees m and mu has the form
q_n = D(n) / (2n)^k with k = (m + mu) / 2 and D an integer polynomial in n
of degree <= k with D(0) = 0.  Such a D is fixed by its values at k points
besides 0, so k exact evaluations give q_n for every n; one evaluation more
checks the fit.  Nothing here falls back to an approximation: a value that
is not an integer, or a fit that misses the check point, raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from symmwig import SymmetryClass
from symmwig.oracles import _cheb_covariance


@dataclass(frozen=True)
class FiniteN:
    """q_n = D(n) / (2n)^k, with D given by coeffs[j] of n^j, j = 0..k."""

    k: int
    coeffs: tuple[Fraction, ...]

    def D(self, n: int) -> Fraction:
        return sum(c * n**j for j, c in enumerate(self.coeffs))

    def __call__(self, n: int) -> Fraction:
        return self.D(n) / (2 * n) ** self.k

    @property
    def degree(self) -> int:
        """Degree of D; -1 for the zero polynomial.  Below k means O(1/n)."""
        return max((j for j, c in enumerate(self.coeffs) if c), default=-1)

    @property
    def limit(self) -> Fraction:
        return self.coeffs[self.k] / 2**self.k

    def __sub__(self, other: "FiniteN") -> "FiniteN":
        if self.k != other.k:
            raise ValueError("different normalizations")
        return FiniteN(self.k, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __str__(self) -> str:
        """q_n in powers of 1/n, e.g. '16 + 16/n^2 - 16/n^3'."""
        terms = []
        for j in range(self.k, -1, -1):
            a = self.coeffs[j] / 2**self.k
            if a:
                p = self.k - j
                mag = str(abs(a)) if a.denominator == 1 else f"({abs(a)})"
                body = mag if p == 0 else f"{mag}/n" if p == 1 else f"{mag}/n^{p}"
                terms.append(("-" if a < 0 else "+", body))
        if not terms:
            return "0"
        head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        return " ".join([head] + [f"{s} {b}" for s, b in terms[1:]])


def _interpolate(xs: list[int], ys: list[int]) -> tuple[Fraction, ...]:
    """Ascending coefficients of the polynomial of degree < len(xs) through
    the points, by Lagrange's formula in exact arithmetic."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [Fraction(1)], 1
        for j, xj in enumerate(xs):
            if j != i:  # basis *= (x - xj)
                basis = [a - xj * b for a, b in zip([0, *basis], [*basis, 0])]
                denom *= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += yi * b / denom
    return tuple(coeffs)


def exact_finite_n(q: Callable[[int], Fraction], k: int, first: int = 1) -> FiniteN:
    """Fit D(n) = (2n)^k q(n) at n = first .. first+k-1, check at first+k;
    q returns exact rationals."""
    ns = range(first, first + k + 1)
    D = {}
    for n in ns:
        x = (2 * n) ** k * q(n)
        if x.denominator != 1:
            raise AssertionError(f"(2n)^{k} q_n = {x} at n = {n} is not an integer")
        D[n] = x.numerator
    fit = FiniteN(k, _interpolate([0, *ns[:-1]], [0, *(D[n] for n in ns[:-1])]))
    check = ns[-1]
    if fit.D(check) != D[check]:
        raise AssertionError(
            f"D(n) = (2n)^{k} q_n fitted at n = {first}..{check - 1} predicts "
            f"{fit.D(check)} at n = {check}, computed {D[check]}")
    return fit


class ExactCovariances:
    """Exact finite-n Cov(Tr T_m, Tr T_mu) from the moment oracle's
    unrounded rationals.

    One power-covariance cache is shared per (class, entry law, n), so
    the Chebyshev pairs that need the same power pairs pay for them once.
    """

    def __init__(self) -> None:
        self._caches: dict = {}

    def cov(self, symmetry_class, model, m: int, mu: int) -> FiniteN:
        def q(n: int) -> Fraction:
            cache = self._caches.setdefault((symmetry_class, model, n), {})
            return _cheb_covariance(symmetry_class, n, m, mu, model, cache, 10**8)

        # an odd m + mu pairs an identically vanishing trace: D = 0 for any k;
        # DIII at n = 1 is the zero matrix, which the ensemble rejects
        first = 2 if symmetry_class is SymmetryClass.DIII else 1
        return exact_finite_n(q, (m + mu + 1) // 2, first)
