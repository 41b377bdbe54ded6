"""The configuration oracle against per-configuration assembly.

``cov_traces_config_oracle`` builds the matrices of the low digits once,
adds one matrix per value of the high digits, runs the recurrence once per
sign orbit, inside each block too, into a table, and sums each window of
configurations with one gather from that table.  The reference here
assembles every configuration from its own digits, runs the literal
recurrence on each and takes the weighted sums over the same windows of
2^13 configurations.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import symmwig.oracles as oracles
from symmwig.chebyshev import _recurrence_traces, _stack_count
from symmwig.ensemble import EntryModel, SymmetryClass, block_layout
from symmwig.oracles import _class_flips, _config_digits, cov_traces_config_oracle
from test_chebyshev import literal_traces

DIII, CI = SymmetryClass.DIII, SymmetryClass.CI
RADEM = EntryModel.rademacher()
THREE_ATOMS = EntryModel.from_atoms([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
SKEWED = EntryModel.from_atoms([(-1.0, 2 / 3), (2.0, 1 / 3)])
WINDOW = 1 << 13  # configurations per partial dot product
CELLS = [(CI, 1), (CI, 2), (CI, 3), (DIII, 2), (DIII, 3), (DIII, 4)]
DEGREES = [(m, mu) for mu in range(1, 7) for m in range(1, mu + 1)]


def digits_of(layout, A, lo, hi):
    idx = np.arange(lo, hi)
    return idx[:, None] // A ** np.arange(layout.n_classes) % A


def reference_config_oracle(cls, n, m, mu, model):
    atoms = model.finite_support
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    layout = block_layout(cls, n)
    n_cfg = len(atoms) ** layout.n_classes
    sx, sy, sxy = [], [], []
    for lo in range(0, n_cfg, WINDOW):
        digits = digits_of(layout, len(atoms), lo, min(lo + WINDOW, n_cfg))
        w = probs[digits].prod(axis=1)
        Y = layout.assemble(values[digits]) / math.sqrt(layout.dim)
        t = literal_traces(Y, max(m, mu), model.sigma, cls.pair_unit)
        tx = np.ascontiguousarray(t[:, m - 1])
        ty = np.ascontiguousarray(t[:, mu - 1])
        sx.append(float(np.dot(w, tx)))
        sy.append(float(np.dot(w, ty)))
        sxy.append(float(np.dot(w, tx * ty)))
    ex, ey, exy = math.fsum(sx), math.fsum(sy), math.fsum(sxy)
    return exy - ex * ey


@pytest.mark.parametrize("cls,n", [(CI, 2), (CI, 3), (DIII, 2), (DIII, 3)])
@pytest.mark.parametrize("model", (RADEM, THREE_ATOMS, SKEWED), ids=("two", "three", "skewed"))
def test_low_high_blocks_match_assembly(cls, n, model):
    """The low matrices plus the matrix of a high-digit value equal the
    assembled configuration (== ignores the sign of zero), in index order;
    low weight times high weight is the exact product for dyadic atoms."""
    values, probs = np.array(model.finite_support).T
    A = len(values)
    layout = block_layout(cls, n)
    nc = layout.n_classes
    scale = 1 / math.sqrt(layout.dim)  # the real Y, as in the oracle
    low, high = _config_digits(A, nc)
    L = low.shape[1]
    draws = np.zeros((len(low), nc))
    draws[:, :L] = values[low]
    x_low = scale * layout.assemble(draws)
    w_low, w_high = probs[low].prod(axis=1), probs[high].prod(axis=1)
    lo = 0
    for row, wh in zip(high, w_high):
        draws = np.zeros(nc)
        draws[L:] = values[row]
        X = x_low + scale * layout.assemble(draws)
        digits = digits_of(layout, A, lo, lo + len(low))
        assert np.array_equal(X, scale * layout.assemble(values[digits]))
        w, want = w_low * wh, probs[digits].prod(axis=1)
        if model is SKEWED:
            assert np.allclose(w, want, rtol=1e-15, atol=0)
        else:
            assert np.array_equal(w, want)
        lo += len(low)
    assert lo == A**nc


@pytest.mark.parametrize("cls,n", CELLS)
def test_rademacher_values_unchanged(cls, n):
    for m, mu in DEGREES:
        assert cov_traces_config_oracle(cls, n, m, mu, RADEM) == reference_config_oracle(
            cls, n, m, mu, RADEM
        ), (m, mu)


def test_blocks_straddling_windows():
    """5^6 configurations in blocks of 5^3: the first 2^13 window ends
    inside a block.  The atoms are not dyadic, so the window sums round
    and their edges matter; the weights are dyadic and exact."""
    five = EntryModel.from_atoms(
        [(-0.6, 1 / 16), (-0.3, 1 / 4), (0.0, 3 / 8), (0.3, 1 / 4), (0.6, 1 / 16)]
    )
    for m, mu in ((2, 2), (4, 6), (3, 5)):
        assert cov_traces_config_oracle(CI, 2, m, mu, five) == reference_config_oracle(
            CI, 2, m, mu, five
        ), (m, mu)


def test_zero_atom_values_unchanged():
    """The three-atom law puts zeros on pivots, where an orbit has several
    representatives."""
    for cls, n in ((CI, 2), (DIII, 2), (DIII, 3)):
        for m, mu in ((2, 2), (3, 5), (4, 6), (6, 6)):
            assert cov_traces_config_oracle(cls, n, m, mu, THREE_ATOMS) == (
                reference_config_oracle(cls, n, m, mu, THREE_ATOMS)
            ), (cls, n, m, mu)


# SKEWED weights 2/3 and 1/3 are not dyadic, so their products and the
# window sums round; these bits pin the order in which both are formed
SKEWED_VALUES = {
    (CI, 3): {
        (2, 2): "0x1.aaaaaaaaaabc0p+2",
        (3, 5): "0x1.5954f0eab5e53p-103",
        (4, 6): "-0x1.d397b425ed09fp+7",
        (6, 6): "0x1.18a1c71c71c76p+10",
    },
    (DIII, 4): {
        (2, 2): "0x1.8000000000180p+2",
        (3, 5): "0x0.0p+0",
        (4, 6): "-0x1.d393ffffffffep+6",
        (6, 6): "0x1.38c8b7ffffffep+10",
    },
}


@pytest.mark.parametrize("cls,n", list(SKEWED_VALUES))
def test_skewed_values_unchanged(cls, n):
    for (m, mu), value in SKEWED_VALUES[cls, n].items():
        got = cov_traces_config_oracle(cls, n, m, mu, SKEWED)
        assert got == float.fromhex(value) and got.hex() == value, (m, mu)


def test_diii_oracles_agree_far_from_unit_scale():
    """The recurrence's rounding residue grows like sigma^m; at sigma = 100
    the DIII configuration oracle still runs, and it agrees with the moment
    oracle, 21.09375 sigma^12."""
    model = EntryModel.parse("rademacher", 100.0)
    got = cov_traces_config_oracle(DIII, 4, 6, 6, model)
    want = oracles.cov_cheb_moment_oracle(DIII, 4, 6, 6, model)
    assert want == pytest.approx(21.09375e24, rel=1e-12)
    assert got == pytest.approx(want, rel=1e-12)


def test_rademacher_table_memory_is_bounded():
    """CI n = 4 under Rademacher entries keeps 2^15 evaluated matrices at
    16 bytes each; the traced allocations stay under 4 MiB."""
    tracemalloc.start()
    try:
        cov_traces_config_oracle(CI, 4, 6, 6, RADEM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("cls", (CI, DIII))
@pytest.mark.parametrize("model", (RADEM, THREE_ATOMS), ids=("two", "three"))
def test_sign_maps_are_bitwise_on_the_recurrence(cls, model):
    """For sampled configurations at n = 4 and every element of the sign
    group (X -> -X, and X -> D X D with D = diag(d, eps d)): the flipped
    digits, per ``_class_flips``, assemble to +-D X D, and the recurrence
    on the image stack, in reversed order, gives the traces of the sampled
    stack times (-1)^k when X is negated, bit for bit.  A BLAS whose
    rounding is not odd, or depends on the position in the stack, fails
    here."""
    n, M = 4, 7
    atoms = model.finite_support
    values = np.array([v for v, _ in atoms])
    neg = np.array([list(values).index(-v) for v in values])
    layout = block_layout(cls, n)
    scale = 1 / math.sqrt(layout.dim)  # the real Y, as in the oracle
    digits = np.random.default_rng(11).integers(0, len(atoms), (64, layout.n_classes))
    X = scale * layout.assemble(values[digits])
    stacks = [np.empty_like(X) for _ in range(_stack_count(M))]
    want = _recurrence_traces(X, M, 1.0, stacks, cls.pair_unit).copy()
    flips = _class_flips(cls, n)
    k = np.arange(1, M + 1)
    for subset in itertools.product((False, True), repeat=len(flips)):
        pattern = np.zeros(flips.shape[1], dtype=bool)
        for row, on in zip(flips, subset):
            pattern ^= on & row
        d = np.ones(2 * n)
        for j in range(1, n):
            if subset[j]:
                d[[j, n + j]] *= -1.0
        if subset[n]:
            d[n:] *= -1.0
        s = -1.0 if subset[0] else 1.0
        assert pattern[-1] == subset[0]
        image = scale * layout.assemble(values[np.where(pattern[:-1], neg[digits], digits)])
        assert np.array_equal(image, s * (d[:, None] * X * d[None, :]))
        got = _recurrence_traces(image[::-1].copy(), M, 1.0, stacks, cls.pair_unit)[::-1]
        assert np.array_equal(got, want * s**k), subset


def count_evaluations(monkeypatch):
    evaluated = []

    def counting(X, *args):
        evaluated.append(len(X))
        return _recurrence_traces(X, *args)

    monkeypatch.setattr(oracles, "_recurrence_traces", counting)
    return evaluated


@pytest.mark.parametrize("model", (RADEM, THREE_ATOMS, SKEWED), ids=("two", "three", "skewed"))
def test_diii_runs_on_the_real_block_matrix(monkeypatch, model):
    """The oracle hands the recurrence the float64 Y of X = iY with the
    pair unit -1, builds no complex array, and a DIII covariance with an
    odd degree is exactly +0.0."""
    seen = []

    def recording(Y, M, sigma, stacks, pair_unit):
        seen.append((Y.dtype, {s.dtype for s in stacks}, pair_unit))
        return _recurrence_traces(Y, M, sigma, stacks, pair_unit)

    monkeypatch.setattr(oracles, "_recurrence_traces", recording)
    for m, mu in ((3, 5), (4, 5), (1, 6), (2, 2), (4, 6)):
        seen.clear()
        got = cov_traces_config_oracle(DIII, 3, m, mu, model)
        assert seen and all(
            dtype == np.float64 and stack_types == {np.dtype(np.float64)} and unit == -1
            for dtype, stack_types, unit in seen
        ), (m, mu)
        if m % 2 or mu % 2:
            assert got.hex() == "0x0.0p+0", (m, mu)


@pytest.mark.parametrize("model", (RADEM, THREE_ATOMS, SKEWED), ids=("two", "three", "skewed"))
def test_odd_diii_degree_forms_no_unread_power(monkeypatch, model):
    """DIII at max(m, mu) = 5 takes the trace of U_4 last, as Tr T_5 is
    +0.0: 3 products per evaluated block, not 4.  Its traces are the first
    five of max(m, mu) = 6, bit for bit."""
    traces, products = [], []

    def recording(Y, M, sigma, stacks, pair_unit):
        traces.append(_recurrence_traces(Y, M, sigma, stacks, pair_unit).copy())
        return traces[-1]

    matmul = np.matmul

    def counting(*args, **kwargs):
        products.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(oracles, "_recurrence_traces", recording)
    monkeypatch.setattr(np, "matmul", counting)

    def run(m, mu):
        traces.clear()
        products.clear()
        value = cov_traces_config_oracle(DIII, 4, m, mu, model)
        return value, list(traces), len(products)

    _, even, count = run(6, 4)
    assert count == 5 * len(even)
    for m, mu in ((5, 3), (3, 5), (5, 4)):
        value, odd, count = run(m, mu)
        assert value.hex() == "0x0.0p+0"
        assert odd and count == 3 * len(odd), (m, mu)
        assert len(odd) == len(even)
        assert all(np.array_equal(a, b[:, :5]) for a, b in zip(odd, even)), (m, mu)


# values at CI n = 4 of the enumeration that runs the recurrence on every one
# of the 2^20 configurations
CI4_RADEMACHER = {
    (6, 6): "0x1.2a20000000000p+4",
    (4, 6): "-0x1.6800000000000p+3",
    (5, 5): "0x1.ae9e90e6385b4p-104",
    (3, 6): "0x1.bc00000000000p-111",
}


def test_one_evaluation_per_orbit(monkeypatch):
    """CI n = 4 under Rademacher entries: 2^20 configurations and a sign
    group of order 32, of rank 4 on the high digits and one more inside
    each block, so 2^15 matrices, and the values of the full enumeration."""
    evaluated = count_evaluations(monkeypatch)
    for (m, mu), value in CI4_RADEMACHER.items():
        evaluated.clear()
        assert cov_traces_config_oracle(CI, 4, m, mu, RADEM) == float.fromhex(value)
        assert sum(evaluated) == 1 << 15


@pytest.mark.parametrize("cls,n,count", [(CI, 3, 1 << 8), (DIII, 3, 4), (DIII, 4, 1 << 7)])
def test_rademacher_evaluates_configurations_over_group_order(monkeypatch, cls, n, count):
    """Rademacher entries: 2^n_classes configurations over a sign group of
    order 2^(n + 1), whatever rank it has on the high digits (CI n = 3:
    1 of 4; DIII n = 3: no high digits; DIII n = 4: 3 of 5; CI n = 4, 4 of
    5, is above)."""
    evaluated = count_evaluations(monkeypatch)
    cov_traces_config_oracle(cls, n, 4, 6, RADEM)
    assert sum(evaluated) == count == 2 ** block_layout(cls, n).n_classes >> (n + 1)


def test_law_without_symmetry_evaluates_every_configuration(monkeypatch):
    evaluated = count_evaluations(monkeypatch)
    for cls, n in ((CI, 3), (DIII, 4)):
        evaluated.clear()
        cov_traces_config_oracle(cls, n, 4, 6, SKEWED)
        assert sum(evaluated) == 2 ** block_layout(cls, n).n_classes
