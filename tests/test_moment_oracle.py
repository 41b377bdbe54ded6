"""The moment oracle against pairwise references.

``_power_trace_monomials`` enumerates rotation classes of walks, and
``_power_covariance`` sums cross terms by exponent histogram into one
exact rational, which the oracle rounds to float once, crossing one
monomial per relabelling orbit against every monomial of the other trace.
The references here do none of that: one expands Tr X^k walk by walk, the
other crosses every pair of monomials with equal odd-exponent signature,
adds one float term per pair, and applies the factor unit/(2n)^h exactly
before rounding once.  The relabelling maps are checked on the matrices
themselves, and their orbits against a search over monomial dicts.
"""
import functools
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmwig.oracles import (
    BudgetError,
    _cross_histograms,
    _histogram_places,
    _histogram_value,
    _monomial_images,
    _orbit_representatives,
    _orbits,
    _power_covariance,
    _power_trace_monomials,
    _relabellings,
    cov_cheb_moment_oracle,
)
from symmwig.ensemble import EntryModel, SymmetryClass, build_equivalence_classes, class_tables

DIII, CI = SymmetryClass.DIII, SymmetryClass.CI
BUDGET = 10**8

# (name, law, bit-equal): every term of the pairwise sum is exact in
# floating point at sigma^2 = 1 and for dyadic atoms, so both sums round
# the same exact value
LAWS = [
    ("gaussian", EntryModel.gaussian(), True),
    ("gaussian-0.49", EntryModel.gaussian(0.49), False),
    ("rademacher", EntryModel.rademacher(), True),
    ("rademacher-0.49", EntryModel.rademacher(0.49), False),
    ("atoms-dyadic", EntryModel.from_atoms([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]), True),
    ("atoms-skewed", EntryModel.from_atoms([(-1.0, 2 / 3), (2.0, 1 / 3)]), False),
]
CELLS = [(CI, 2), (CI, 3), (DIII, 2), (DIII, 3), (DIII, 4)]
POWERS = [(k1, k2) for k2 in range(1, 7) for k1 in range(1, k2 + 1)]


def walk_expansion(symmetry_class, n, k):
    """Tr X_raw^k as {sorted class-id tuple: coefficient}, one walk at a time."""
    cls_id, sign = (t.tolist() for t in class_tables(symmetry_class, n))
    out = defaultdict(int)
    for walk in itertools.product(range(2 * n), repeat=k):
        steps = [(walk[l], walk[(l + 1) % k]) for l in range(k)]
        if any(cls_id[p][q] < 0 for p, q in steps):
            continue
        key = tuple(sorted(cls_id[p][q] for p, q in steps))
        out[key] += math.prod(sign[p][q] for p, q in steps)
    return {key: coef for key, coef in sorted(out.items()) if coef}


@functools.lru_cache(maxsize=None)
def exponent_dicts(symmetry_class, n, k):
    """The oracle's expansion as a list of (coefficient, {class: exponent})."""
    exps, coefs = _power_trace_monomials(symmetry_class, n, k, BUDGET)
    return [
        (int(coef), {int(c): int(e) for c, e in enumerate(row) if e})
        for row, coef in zip(exps, coefs)
    ]


def pairwise_covariances(symmetry_class, n, k1, k2, models):
    """Cov(Tr X^k1, Tr X^k2) under each model, with one float term per
    monomial pair; the models must agree on odd-signature pruning."""
    if (k1 + k2) % 2 == 1:
        return [0.0] * len(models)
    P1 = exponent_dicts(symmetry_class, n, k1)
    P2 = exponent_dicts(symmetry_class, n, k2)
    moms = [[float(model.exact_moment(v)) for v in range(k1 + k2 + 1)] for model in models]
    (prune,) = {model.odd_moments_vanish(k1 + k2) for model in models}

    def expect(P, model, mom):
        vals = []
        for coef, e in P:
            if any(v % 2 for v in e.values()) and model.odd_moments_vanish(max(e.values())):
                continue
            vals.append(coef * math.prod(mom[v] for v in e.values()))
        return math.fsum(vals)

    def grouped(P):
        g = defaultdict(list)
        for coef, e in P:
            sig = frozenset(c for c, v in e.items() if v % 2) if prune else None
            g[sig].append((coef, e))
        return g

    g1, g2 = grouped(P1), grouped(P2)
    terms = [[] for _ in models]
    for sig, lst1 in g1.items():
        for c1, e1 in lst1:
            for c2, e2 in g2.get(sig, ()):
                merged = dict(e1)
                for cid, v in e2.items():
                    merged[cid] = merged.get(cid, 0) + v
                for mom, out in zip(moms, terms):
                    out.append(c1 * c2 * math.prod(mom[v] for v in merged.values()))

    h = (k1 + k2) // 2
    scale = Fraction((-1) ** h if symmetry_class is DIII else 1, (2 * n) ** h)
    covs = []
    for model, mom, cross in zip(models, moms, terms):
        exy = math.fsum(cross)
        ex, ey = expect(P1, model, mom), expect(P2, model, mom)
        covs.append(float(scale * Fraction(exy - ex * ey)))
    return covs


@pytest.mark.parametrize("cls,n,k", [
    (CI, 1, 4), (CI, 2, 1), (CI, 2, 4), (CI, 2, 6), (CI, 3, 5), (CI, 3, 6),
    (DIII, 2, 1), (DIII, 2, 6), (DIII, 3, 4), (DIII, 3, 6),
])
def test_expansion_matches_walk_by_walk(cls, n, k):
    """Rotation classes with weights L/j give every walk's monomial exactly
    once, in lexicographic row order, with zero coefficients dropped."""
    exps, coefs = _power_trace_monomials(cls, n, k, BUDGET)
    got = {
        tuple(c for c, e in enumerate(row) for _ in range(e)): int(coef)
        for row, coef in zip(exps.tolist(), coefs)
    }
    want = walk_expansion(cls, n, k)
    assert got == want
    assert list(got) == list(want)


def check_against_pairwise(cls, n, laws, powers):
    caches = [{} for _ in laws]
    for k1, k2 in powers:
        wants = pairwise_covariances(cls, n, k1, k2, [model for _, model, _ in laws])
        for (name, model, bit_equal), cache, want in zip(laws, caches, wants):
            got = float(_power_covariance(cls, n, k1, k2, model, BUDGET, cache))
            if bit_equal:
                assert got == want, (name, k1, k2)
            else:
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (name, k1, k2)


@pytest.mark.parametrize("cls,n,k", [(CI, 2, 4), (DIII, 3, 3)])
def test_expansion_budget_counts_least_index_walks(cls, n, k):
    """The pass enumerates the walks that start at their least index,
    sum over j = 1..2n of j^(k-1), and the budget counts exactly those."""
    count = sum(j ** (k - 1) for j in range(1, 2 * n + 1))
    want = _power_trace_monomials(cls, n, k, BUDGET)
    got = _power_trace_monomials(cls, n, k, count)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(BudgetError, match=f"^{count} least-index walks exceed budget {count - 1}$"):
        _power_trace_monomials(cls, n, k, count - 1)


@pytest.mark.parametrize("cls,n", CELLS)
def test_histogram_sums_match_pairwise(cls, n):
    """Histogram grouping against one float term per pair, every symmetric
    law, every (k1, k2) with k1 <= k2 <= 6."""
    check_against_pairwise(cls, n, LAWS[:-1], POWERS)


@pytest.mark.parametrize("cls,n", CELLS)
def test_histogram_sums_match_pairwise_skewed(cls, n):
    """The skewed law has odd moments, so every pair of monomials is
    crossed; on the two largest cells (6, 6) alone is 4e5-6e5 pairs, and
    there the grid stops at k1 + k2 <= 10."""
    large = (cls, n) in ((CI, 3), (DIII, 4))
    powers = [(k1, k2) for k1, k2 in POWERS if not large or k1 + k2 <= 10]
    check_against_pairwise(cls, n, LAWS[-1:], powers)


def test_shared_cache_rejects_another_cell_or_law():
    """A cache is tied to the class, n and law of its first call: another
    law, class or n is an error, not the first law's power covariances."""
    gauss, radem = EntryModel.gaussian(), EntryModel.rademacher()
    cache: dict = {}
    first = cov_cheb_moment_oracle(CI, 2, 4, 4, gauss, cache=cache)
    for args in ((CI, 2, 4, 4, radem), (DIII, 3, 4, 4, gauss), (CI, 3, 4, 4, gauss)):
        with pytest.raises(ValueError, match="another class, n or entry law"):
            cov_cheb_moment_oracle(*args, cache=cache)
    assert cov_cheb_moment_oracle(CI, 2, 4, 4, gauss, cache=cache) == first
    assert cov_cheb_moment_oracle(CI, 2, 2, 4, EntryModel.gaussian(1.0), cache=cache) == (
        cov_cheb_moment_oracle(CI, 2, 2, 4, gauss)
    )
    assert cov_cheb_moment_oracle(CI, 2, 4, 4, radem) == 2.0


# Var_n(Tr T_6) at sigma^2 = 1 for Gaussian entries, as coefficients of
# 1/n^0 .. 1/n^5: the exact finite-n polynomials of the Wick expansion
VAR_T6 = {
    CI: (24, 72, 840, -108, -432, -72),
    DIII: (24, -216, 3360, -16176, 28368, -15360),
}


@settings(max_examples=25, deadline=None)
@given(sigma2=st.floats(min_value=0.05, max_value=20.0))
def test_chebyshev_sum_rounds_once(sigma2):
    """Var(Tr T_6) is sigma^12 times the pinned polynomial, rounded once."""
    model = EntryModel.gaussian(sigma2)
    for cls, n in itertools.product((DIII, CI), (2, 3)):
        v = sum(Fraction(c, n**p) for p, c in enumerate(VAR_T6[cls]))
        got = cov_cheb_moment_oracle(cls, n, 6, 6, model)
        assert got == float(Fraction(sigma2) ** 6 * v), (cls, n)


@pytest.mark.parametrize("cls,model,want", [
    (CI, EntryModel.gaussian(), Fraction(3556, 27)),
    (DIII, EntryModel.gaussian(), Fraction(1072, 81)),
    (CI, EntryModel.rademacher(), Fraction(1976, 81)),
])
def test_var_t6_at_n3_is_the_float_of_its_rational(cls, model, want):
    """The Chebyshev sum cancels power covariances of size about 10^4;
    summed exactly, it still rounds to the nearest float."""
    assert cov_cheb_moment_oracle(cls, 3, 6, 6, model) == float(want)


# -- the relabelling group --------------------------------------------------------

SIZES = [(cls, n) for cls in (CI, DIII) for n in range(2, 6)]


def relabelled(cls, n, X, j):
    """The matrix image of map j of ``_relabellings``: P X P^T for the
    adjacent transposition (j, j + 1) of diag(pi, pi), and for j = n - 1 the
    exchange H X H, H = [[I, I], [I, -I]] / sqrt(2), in integers."""
    if j < n - 1:
        P = np.eye(2 * n, dtype=np.int64)
        P[[j, j + 1, n + j, n + j + 1]] = P[[j + 1, j, n + j + 1, n + j]]
        return P @ X @ P.T
    eye = np.eye(n, dtype=np.int64)
    H = np.block([[eye, eye], [eye, -eye]])
    HXH = H @ X @ H
    assert not np.any(HXH % 2)
    return HXH // 2


@pytest.mark.parametrize("cls,n", SIZES)
def test_relabellings_permute_signed_classes(cls, n):
    """Each map sends the matrix with class variables g to the matrix with
    class variables s_c g_perm[c], a permutation of the classes with one
    sign each; the transpositions carry signs only in DIII, and the exchange
    sends C1(a, b) to C2(a, b) and back with sign +1 in both classes."""
    cls_id, sign = class_tables(cls, n)
    nc = int(cls_id.max()) + 1

    def matrix(g):
        return np.where(cls_id >= 0, sign * g[np.maximum(cls_id, 0)], 0)

    g = np.random.default_rng(n).integers(-1000, 1000, size=nc)
    maps = _relabellings(cls, n)
    assert len(maps) == n
    for j, (perm, s) in enumerate(maps):
        assert sorted(perm) == list(range(nc)) and set(s.tolist()) <= {-1, 1}
        assert np.array_equal(relabelled(cls, n, matrix(g), j), matrix(s * g[perm]))
    *transpositions, (perm, s) = maps
    assert any(np.any(s_ < 0) for _, s_ in transpositions) == (cls is DIII)
    assert np.all(s == 1)
    kinds = {c.index: (c.kind, c.a, c.b) for c in build_equivalence_classes(cls, n)}
    flip = {"C1": "C2", "C2": "C1"}
    for c, (kind, a, b) in kinds.items():
        assert kinds[perm[c]] == (flip[kind], a, b)


def monomial_images(symmetry_class, n, k, perm, s):
    """The image of every monomial of ``exponent_dicts`` under one map, as
    a (coefficient, {class: exponent}) list in the same order."""
    return [
        (coef * math.prod(int(s[c]) ** e for c, e in exps.items()),
         {int(perm[c]): e for c, e in exps.items()})
        for coef, exps in exponent_dicts(symmetry_class, n, k)
    ]


@pytest.mark.parametrize("cls,n", CELLS)
@pytest.mark.parametrize("k", range(1, 7))
def test_monomial_images_are_signed_monomials(cls, n, k):
    """Under every map the image of each monomial of Tr X^k is a monomial
    of Tr X^k with coefficient prod_c s_c^e_c times its own, and
    ``_monomial_images`` finds that row."""
    P = _power_trace_monomials(cls, n, k, BUDGET)
    row = {
        frozenset(exps.items()): (r, coef)
        for r, (coef, exps) in enumerate(exponent_dicts(cls, n, k))
    }
    maps = _relabellings(cls, n)
    for (perm, s), got in zip(maps, _monomial_images(P, k, maps)):
        images = monomial_images(cls, n, k, perm, s)
        want = [row[frozenset(exps.items())] for _, exps in images]
        assert [r for r, _ in want] == got.tolist()
        assert [coef for _, coef in want] == [coef for coef, _ in images]


def orbit_partition(cls, n, k, maps):
    """Orbits of the monomials of Tr X^k, by breadth-first search over
    their class-exponent dicts."""
    keys = [frozenset(exps.items()) for _, exps in exponent_dicts(cls, n, k)]
    index = {key: r for r, key in enumerate(keys)}
    seen, orbits = set(), []
    for start in range(len(keys)):
        if start in seen:
            continue
        orbit, todo = {start}, [start]
        while todo:
            exps = dict(keys[todo.pop()])
            for perm, _ in maps:
                r = index[frozenset((int(perm[c]), e) for c, e in exps.items())]
                if r not in orbit:
                    orbit.add(r)
                    todo.append(r)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


@pytest.mark.parametrize("cls,n", CELLS)
@pytest.mark.parametrize("sign_free", [False, True])
def test_orbits_match_search(cls, n, sign_free):
    """``_orbits`` gives each orbit's first row and size; the sizes divide
    the group order 2 n! and add up to the number of monomials."""
    maps = _relabellings(cls, n)
    if sign_free:
        maps = [(perm, s) for perm, s in maps if np.all(s == 1)]
    for k in range(1, 7):
        P = _power_trace_monomials(cls, n, k, BUDGET)
        reps, size = _orbits(P, k, maps)
        want = orbit_partition(cls, n, k, maps)
        assert reps.tolist() == [orbit[0] for orbit in want]
        assert size.tolist() == [len(orbit) for orbit in want]
        assert sum(size) == len(P[1])
        assert all(2 * math.factorial(n) % int(m) == 0 for m in size)


@pytest.mark.parametrize("cls,prune,orbits,monomials,largest", [
    (CI, True, 141, 4720, 48),
    (CI, False, 141, 4720, 48),
    (DIII, True, 23, 616, 48),
    (DIII, False, 308, 616, 2),
])
def test_orbit_counts_at_n4(cls, prune, orbits, monomials, largest):
    """Tr X^6 at n = 4: the group of order 2 * 4! = 48 in CI, where every
    map is sign-free, and in DIII only the exchange without pruning."""
    cache: dict = {}
    exps, coefs = _orbit_representatives(cache, cls, 4, 6, prune, BUDGET)
    assert len(cache["trace", 6][1]) == monomials
    reps, size = _orbits(cache["trace", 6], 6, [
        (perm, s) for perm, s in _relabellings(cls, 4) if prune or np.all(s == 1)
    ])
    assert (len(reps), int(size.max())) == (orbits, largest)
    assert np.array_equal(exps, cache["trace", 6][0][reps])
    assert np.array_equal(coefs, cache["trace", 6][1][reps] * size)
    assert _orbit_representatives(cache, cls, 4, 6, prune, BUDGET) is cache["orbits", 6, prune]
    assert len(cache) == 2


@pytest.mark.parametrize("cls,n", CELLS)
def test_orbit_pairing_equals_full_pairing(cls, n):
    """Crossing the orbit representatives of Tr X^k1 against all of
    Tr X^k2 gives the same rational E[XY] as crossing every pair, under
    every law, the skewed one included."""
    cache: dict = {}
    nc = len(build_equivalence_classes(cls, n))
    for k1, k2 in POWERS:
        if (k1 + k2) % 2:
            continue
        P1 = _power_trace_monomials(cls, n, k1, BUDGET)
        P2 = _power_trace_monomials(cls, n, k2, BUDGET)
        place = _histogram_places(k1 + k2, nc)
        for name, model, _ in LAWS:
            prune = model.odd_moments_vanish(k1 + k2)
            R1 = _orbit_representatives(cache, cls, n, k1, prune, BUDGET)
            mom = [model.exact_moment(v) for v in range(k1 + k2 + 1)]
            full = _histogram_value(_cross_histograms(P1, P2, prune, place), place, mom)
            reduced = _histogram_value(_cross_histograms(R1, P2, prune, place), place, mom)
            assert isinstance(reduced, Fraction) and reduced == full, (name, k1, k2)


@pytest.mark.parametrize("c2,fits", [(2**31 - 1, True), (2**31, False)])
def test_cross_products_beyond_int64_raise(c2, fits):
    """With |c1| max * |c2| max >= 2^63 one product alone overflows int64,
    so the pass refuses it; just below, the sum is exact."""
    exps = np.array([[2, 0]], dtype=np.int8)
    P1 = (exps, np.array([2**32], dtype=np.int64))
    P2 = (exps, np.array([-c2], dtype=np.int64))
    place = _histogram_places(4, 2)
    if fits:
        assert _cross_histograms(P1, P2, True, place) == {int(place[4]): -(2**32) * c2}
    else:
        with pytest.raises(BudgetError, match=f"^coefficient products up to {2**63} exceed int64$"):
            _cross_histograms(P1, P2, True, place)
