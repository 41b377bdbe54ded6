from fractions import Fraction

import pytest

from finite_n import FiniteN, exact_finite_n
from symmwig import EntryModel, SymmetryClass


def test_recovers_polynomial_and_prints_it():
    # q_n = 16 + 16/n^2 - 16/n^3, i.e. D(n) = 256 n^4 + 256 n^2 - 256 n at k = 4
    fit = exact_finite_n(lambda n: 16 + Fraction(16, n**2) - Fraction(16, n**3), 4)
    assert fit.coeffs == (0, -256, 256, 0, 256)
    assert fit.degree == 4 and fit.limit == 16
    assert fit(64) == Fraction(16) + Fraction(16, 64**2) - Fraction(16, 64**3)
    assert str(fit) == "16 + 16/n^2 - 16/n^3"
    assert str(fit - fit) == "0" and (fit - fit).degree == -1


def test_rejects_non_integer_values():
    with pytest.raises(AssertionError, match="not an integer"):
        exact_finite_n(lambda n: Fraction(1, 3 * n), 1)


def test_rejects_higher_degree_at_check_point():
    # D(n) = n^3 is integer at every n but not of degree <= 2
    with pytest.raises(AssertionError, match="predicts"):
        exact_finite_n(lambda n: Fraction(n**3, (2 * n) ** 2), 2)


def test_rejects_nonzero_constant_term():
    # D(n) = 2n * 8(n-1)/n = 16(n-1) has D(0) = -16
    with pytest.raises(AssertionError, match="predicts"):
        exact_finite_n(lambda n: Fraction(8 * (n - 1), n), 1, first=2)


def test_first_point_shifts_fit():
    # DIII V_n(2) = 8(n-1)/n, i.e. D(n) = 32 n^2 - 32 n, fitted from n = 2, 3
    fit = exact_finite_n(lambda n: Fraction(8 * (n - 1), n), 2, first=2)
    assert fit == FiniteN(2, (0, -32, 32))
    assert str(fit) == "8 - 8/n"
    with pytest.raises(ValueError):
        fit - FiniteN(1, (0, 0))


@pytest.mark.parametrize("cls,want", [
    (SymmetryClass.CI, "24 + 72/n + 840/n^2 - 108/n^3 - 432/n^4 - 72/n^5"),
    (SymmetryClass.DIII, "24 - 216/n + 3360/n^2 - 16176/n^3 + 28368/n^4 - 15360/n^5"),
])
def test_var_t6_polynomial(exact, cls, want):
    """Var_n(Tr T_6) for Gaussian entries, fitted from the moment oracle at
    n = 1..6 (CI) or 2..7 (DIII) and checked at the next n."""
    fit = exact.cov(cls, EntryModel.gaussian(), 6, 6)
    assert str(fit) == want
    assert fit.limit == 24
