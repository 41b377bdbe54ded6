import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmwig.chebyshev import _recurrence_traces, _stack_count, cheb_coefficients, trace_cheb_vector
from symmwig.ensemble import EntryModel, SymmetryClass, block_layout, derive_rng, sample_matrix


def test_low_degree_coefficients():
    assert cheb_coefficients(0, 1.0).coeffs == (2,)
    assert cheb_coefficients(1, 1.0).coeffs == (0, 1)
    assert cheb_coefficients(2, 1.0).coeffs == (-2, 0, 1)
    assert cheb_coefficients(3, 1.0).coeffs == (0, -3, 0, 1)
    assert cheb_coefficients(4, 1.0).coeffs == (2, 0, -4, 0, 1)


def test_coefficient_triangle_recurrence():
    # c^(m+1)_k = c^(m)_{k-1} - c^(m-1)_k, all integers
    rows = [cheb_coefficients(m, 1.0).coeffs for m in range(12)]
    for m in range(1, 11):
        prev, cur, nxt = rows[m - 1], rows[m], rows[m + 1]
        for k in range(m + 2):
            want = (cur[k - 1] if k >= 1 else 0) - (prev[k] if k <= m - 1 else 0)
            assert nxt[k] == want
        assert all(isinstance(c, int) for c in nxt)


@pytest.mark.parametrize("sigma", (1.0, 0.5, 1.7))
@pytest.mark.parametrize("m", range(9))
def test_two_cos_identity(m, sigma):
    """T_m(2 sigma cos t, sigma) = 2 sigma^m cos(m t)."""
    spec = cheb_coefficients(m, sigma)
    for theta in np.linspace(0.0, math.pi, 23):
        got = spec.evaluate(2 * sigma * math.cos(theta))
        want = 2 * sigma**m * math.cos(m * theta)
        assert abs(got - want) <= 1e-12 * max(1.0, 2 * sigma**m)


def test_bad_arguments():
    with pytest.raises(ValueError):
        cheb_coefficients(-1, 1.0)
    with pytest.raises(ValueError):
        cheb_coefficients(3, 0.0)


@pytest.mark.parametrize("cls", (SymmetryClass.DIII, SymmetryClass.CI))
def test_traces_match_eigenvalue_sum(cls):
    sample = sample_matrix(cls, 5, EntryModel.gaussian(), seed=2)
    eigs = np.linalg.eigvalsh(sample)
    traces = trace_cheb_vector(sample, 7, 1.0)
    for m in range(1, 8):
        want = cheb_coefficients(m, 1.0).evaluate(eigs).sum()
        assert traces[m - 1] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("cls", (SymmetryClass.DIII, SymmetryClass.CI))
def test_odd_traces_vanish(cls):
    """2n x 2n parity: X and -X are conjugate, so odd traces cancel."""
    for seed in range(5):
        sample = sample_matrix(cls, 6, EntryModel.gaussian(), seed=seed)
        traces = trace_cheb_vector(sample, 7, 1.0)
        for m in (1, 3, 5, 7):
            assert abs(traces[m - 1]) <= 1e-9 * sample.shape[-1]


def test_accepts_plain_ndarray():
    X = np.diag([0.3, -0.3])
    traces = trace_cheb_vector(X, 3, 1.0)
    want = [cheb_coefficients(m, 1.0).evaluate(np.array([0.3, -0.3])).sum() for m in (1, 2, 3)]
    assert np.allclose(traces, want, atol=1e-14)


def test_accepts_integer_matrix():
    """The recurrence updates its iterate in place, so integer input is
    promoted to float first."""
    X = [[0, 1], [1, 0]]
    assert np.array_equal(trace_cheb_vector(X, 4, 0.5), trace_cheb_vector(np.array(X, float), 4, 0.5))


def test_broken_hermiticity_detected():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(ValueError):
        trace_cheb_vector(X + 1j * np.eye(2), 4, 1.0)


def test_real_non_symmetric_matrix_raises():
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_cheb_vector(np.array([[0.0, 1.0], [0.0, 0.0]]), 4, 1.0)


@pytest.mark.parametrize("n, sigma, M", ((4, 1000.0, 6), (8, 30.0, 8)))
def test_diii_traces_far_from_unit_scale(n, sigma, M):
    """Hermitian DIII input is accepted at any scale: its traces match the
    eigenvalue evaluation relative to sigma^m dim, although the rounding
    residue of the complex recurrence grows like sigma^m."""
    sample = sample_matrix(SymmetryClass.DIII, n, EntryModel.parse("gaussian", sigma), seed=2)
    eigs = np.linalg.eigvalsh(sample)
    traces = trace_cheb_vector(sample, M, sigma)
    for m in range(1, M + 1):
        want = cheb_coefficients(m, sigma).evaluate(eigs).sum()
        assert abs(traces[m - 1] - want) <= 1e-12 * sigma**m * sample.shape[-1], m


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=10),
    sigma=st.floats(min_value=0.3, max_value=2.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)
def test_identity_property(m, sigma, theta):
    got = cheb_coefficients(m, sigma).evaluate(2 * sigma * math.cos(theta))
    want = 2 * sigma**m * math.cos(m * theta)
    assert abs(got - want) <= 1e-11 * max(1.0, (2 * sigma) ** m)


@pytest.mark.parametrize("cls", (SymmetryClass.DIII, SymmetryClass.CI))
def test_stack_equals_per_matrix_calls(cls):
    stack = np.stack(
        [sample_matrix(cls, 4, EntryModel.gaussian(), seed=s) for s in range(6)]
    ).reshape(2, 3, 8, 8)
    got = trace_cheb_vector(stack, 6, 0.8)
    assert got.shape == (2, 3, 6)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], trace_cheb_vector(stack[idx], 6, 0.8))


def test_stack_with_one_non_hermitian_member_raises():
    stack = np.stack([np.diag([0.3, -0.3]), np.diag([0.3, -0.3])]).astype(complex)
    trace_cheb_vector(stack, 4, 1.0)
    stack[1] += 1j * np.eye(2)
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_cheb_vector(stack, 4, 1.0)


@pytest.mark.parametrize("shape", ((3,), (2, 3), (4, 2, 3)))
def test_non_square_rejected(shape):
    with pytest.raises(ValueError, match="square"):
        trace_cheb_vector(np.zeros(shape), 3, 1.0)


@pytest.mark.parametrize("sigma", (0.0, -1.0, float("nan"), float("inf")))
def test_non_finite_or_non_positive_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma"):
        cheb_coefficients(2, sigma)
    with pytest.raises(ValueError, match="sigma"):
        trace_cheb_vector(np.eye(2), 2, sigma)


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_non_finite_matrix_rejected(bad):
    X = np.eye(3)
    X[0, 1] = X[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        trace_cheb_vector(X, 3, 1.0)


@pytest.mark.parametrize("dtype", (float, complex))
def test_overflowing_trace_raises(dtype):
    """A finite input whose traces overflow raises OverflowError at the first
    degree that does, with no floating-point warning."""
    X = np.array([[0.0, 1e150], [1e150, 0.0]], dtype=dtype)
    assert trace_cheb_vector(X, 2, 1.0)[1] == pytest.approx(2e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="degree 4"):
            trace_cheb_vector(X, 6, 1.0)


def literal_traces(X, M, sigma, pair_unit=1):
    """T_{m+1} = X T_m - sigma^2 T_{m-1} with a fresh matrix per degree.

    With pair_unit -1, X is the real Y of the DIII matrix iY, and the
    recurrence is U_{m+1} = Y U_m + sigma^2 U_{m-1}, read as Tr T_m =
    Re(i^m) Tr U_m: (-1)^(m/2) Tr U_m at even m, +0.0 at odd m."""
    prev, cur = 2.0 * np.eye(X.shape[-1], dtype=X.dtype), X
    out = []
    for m in range(1, M + 1):
        tr = np.real(np.trace(cur, axis1=-2, axis2=-1))
        if pair_unit < 0:
            tr = (-1.0) ** (m // 2) * tr if m % 2 == 0 else np.zeros_like(tr)
        out.append(tr)
        nxt = X @ cur
        nxt -= (pair_unit * sigma * sigma) * prev
        prev, cur = cur, nxt
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("M", range(1, 9))
@pytest.mark.parametrize("sigma", (1.0, 0.7))
@pytest.mark.parametrize("dim", (3, 8, 17))
def test_reused_stacks_match_literal_recurrence(M, sigma, dim):
    """Rotating stacks, in-place products and traces written into one
    buffer give the literal recurrence's floats, real and complex; dim 17
    sums its diagonals past numpy's 8-wide unrolled block."""
    rng = np.random.default_rng(dim * 100 + M)
    A = rng.normal(size=(5, dim, dim)) / math.sqrt(4 * dim)
    B = rng.normal(size=(5, dim, dim)) / math.sqrt(4 * dim)
    real = A + A.swapaxes(1, 2)
    herm = real + 1j * (B - B.swapaxes(1, 2))
    for X in (real, herm, real[0], herm[0]):
        got = trace_cheb_vector(X, M, sigma)
        assert got.shape == X.shape[:-2] + (M,)
        assert np.array_equal(got, literal_traces(X, M, sigma))


@pytest.mark.parametrize("family", ("gaussian", "rademacher"))
@pytest.mark.parametrize("n", range(2, 9))
def test_real_diii_recurrence_matches_complex_literal(family, n):
    """The DIII route on the real Y, U_{m+1} = Y U_m + sigma^2 U_{m-1} read
    as Re(i^m) Tr U_m, against the complex literal recurrence on iY: even
    degrees agree within 4 ulps of dim * max(|Y|, 2 sigma)^m, a bound on
    each trace's scale, and odd degrees are exactly +0.0."""
    layout = block_layout(SymmetryClass.DIII, n)
    for sigma in (1.0, 0.7):
        draws = EntryModel.parse(family, sigma).draw(np.random.default_rng(n), (16, layout.n_classes))
        Y = layout.assemble(draws) / math.sqrt(layout.dim)
        radius = max(np.linalg.norm(Y, 2, axis=(-2, -1)).max(), 2 * sigma)
        for M in range(1, 9):
            stacks = [np.empty_like(Y) for _ in range(_stack_count(M))]
            got = _recurrence_traces(Y, M, sigma, stacks, -1)
            want = literal_traces(1j * Y, M, sigma)
            assert got.dtype == np.float64 and got.shape == (16, M)
            odd = got[:, 0::2]
            assert np.all(odd == 0.0) and not np.signbit(odd).any(), M
            for m in range(2, M + 1, 2):
                ulp = np.finfo(float).eps * layout.dim * radius**m
                assert np.abs(got[:, m - 1] - want[:, m - 1]).max() <= 4 * ulp, (sigma, M, m)
            assert np.array_equal(got, literal_traces(Y, M, sigma, -1)), (sigma, M)


@pytest.mark.parametrize("family", ("gaussian", "rademacher"))
@pytest.mark.parametrize("n", (1, 3, 8))
def test_ci_sample_is_real(family, n):
    """A CI sample is the float64 Y = W / sqrt(2n), bit for bit; a DIII
    sample is the complex128 iY."""
    model = EntryModel.parse(family)
    layout = block_layout(SymmetryClass.CI, n)
    X = sample_matrix(SymmetryClass.CI, n, model, seed=7)
    assert X.dtype == np.float64
    draws = model.draw(derive_rng(7), layout.n_classes)
    assert np.array_equal(X, layout.assemble(draws) / math.sqrt(layout.dim))
    if n > 1:
        assert sample_matrix(SymmetryClass.DIII, n, model, seed=7).dtype == np.complex128


def test_ci_sample_bits_are_pinned():
    """Entries of the CI Gaussian sample at n = 3, seed 7, bit for bit: the
    real parts of the complex128 sample that CI returned before it was real."""
    X = sample_matrix(SymmetryClass.CI, 3, EntryModel.gaussian(), seed=7)
    got = [X[0, 0].hex(), X[0, 4].hex(), X[5, 2].hex(), X[3, 3].hex()]
    assert got == [
        "0x1.9248f0829a3b1p-6", "-0x1.744efef740f71p-2", "0x1.2a63fb1d8a424p-3", "-0x1.9248f0829a3b1p-6",
    ]
