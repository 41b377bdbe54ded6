import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiindex import (
    MultiIndex,
    class_of,
    enumerate_consistent_multiindices,
    good_multiindices,
    induced_partition,
    label_shapes,
    shape_walk_sums,
    walk_sign_sums,
)
from symmwig import covariance
from symmwig.covariance import (
    BudgetError,
    V_asymptotic,
    V_n_exact,
    _bell,
    _member_tables,
    _shape_pass,
    _shape_sums,
    _shift_sum,
    cov_report,
)
from symmwig.ensemble import (
    EntryModel,
    SymmetryClass,
    build_equivalence_classes,
    class_tables,
)
from symmwig.oracles import _power_covariance, cov_cheb_moment_oracle, cov_traces_config_oracle
from symmwig.patterns import dihedral_group

DIII, CI = SymmetryClass.DIII, SymmetryClass.CI
GAUSS = EntryModel.gaussian()
RADEM = EntryModel.rademacher()


# -- multi-index layer ---------------------------------------------------------


def test_multiindex_roundtrip():
    P = MultiIndex.from_p_sequences((1, 2, 3), (2, 4))
    assert P.k1 == 3 and P.k2 == 2
    assert P.rows[0] == ((1, 2), (2, 3), (3, 1))
    assert P.rows[1] == ((2, 4), (4, 2))


def test_multiindex_validates_chaining():
    with pytest.raises(ValueError):
        MultiIndex(2, 2, (((1, 2), (3, 1)), ((1, 1), (1, 1))))


def test_enumeration_count_and_budget():
    found = list(enumerate_consistent_multiindices(2, 2, 2))
    assert len(found) == 2**2 * 2**2
    with pytest.raises(BudgetError):
        list(enumerate_consistent_multiindices(10, 4, 4, budget=10))


def test_induced_partition_examples():
    # both slots land in C1(1,2) of DIII at n=2
    P = MultiIndex.from_p_sequences((1, 2), (2, 1))
    part = induced_partition(P, DIII, 2)
    assert frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}) in part.blocks or len(part.blocks) <= 2
    same = induced_partition(MultiIndex.from_p_sequences((1, 2), (1, 2)), DIII, 2)
    assert len(same.blocks) == 1
    # (1,2) and (3,2) lie in different classes
    mixed = MultiIndex(2, 2, (((1, 2), (2, 1)), ((3, 2), (2, 3))))
    assert len(induced_partition(mixed, DIII, 2).blocks) == 2


def test_induced_partition_forced_zero():
    P = MultiIndex.from_p_sequences((1, 1), (1, 2))  # (1,1) is zero for DIII
    with pytest.raises(ValueError):
        induced_partition(P, DIII, 2)
    induced_partition(P, CI, 2)  # fine for CI


def test_good_multiindices_small_space_is_empty():
    """At n=2 a DIII m=3 pairing needs three distinct classes but only
    two exist, so the good set is empty."""
    for g in dihedral_group(3):
        assert good_multiindices(g, DIII, 2, 3) == []


def test_good_multiindices_content_n3():
    gamma = next(g for g in dihedral_group(3) if g.kind == "shift" and g.nu == 1)
    target = frozenset(
        frozenset({(1, l), (2, gamma(l))}) for l in range(1, 4)
    )
    good = good_multiindices(gamma, DIII, 3, 3)
    assert len(good) == 96
    for P in good:
        part = induced_partition(P, DIII, 3)
        assert part.blocks == target
        for row in P.rows:
            for pair in row:
                assert class_of(DIII, 3, pair) is not None  # no skew diagonals


def test_good_multiindices_involution_row_swap():
    tau = next(g for g in dihedral_group(3) if g.kind == "reflection" and g.nu == 0)
    good = good_multiindices(tau, CI, 2, 3)
    keys = {P.rows for P in good}
    assert keys, "good set unexpectedly empty"
    for rows in keys:
        assert (rows[1], rows[0]) in keys


@functools.lru_cache(maxsize=None)  # shared by two tests; results are read only
def _reference_sign_sums(cls, n, m):
    """Literal sum of sign products over S^good(pi_g), for every g, from
    one enumeration of the row pairs (p1, p2).

    A pair is good for g when each row-one slot l shares its class with
    row-two slot g(l) and the row-one classes are distinct: the rule of
    good_multiindices, which the test below checks it against.
    """
    dim = 2 * n
    hit = {
        (p, q): class_of(cls, n, (p, q))
        for p in range(1, dim + 1)
        for q in range(1, dim + 1)
    }
    group = dihedral_group(m)
    sums = {g: 0 for g in group}
    members = {g: set() for g in group}
    walks = list(itertools.product(range(1, dim + 1), repeat=m))
    for p1, p2 in itertools.product(walks, walks):
        hits = [hit[p[l], p[(l + 1) % m]] for p in (p1, p2) for l in range(m)]
        if None in hits:
            continue
        one, two = [h[0] for h in hits[:m]], [h[0] for h in hits[m:]]
        if len(set(one)) < m:
            continue
        prod = math.prod(h[1] for h in hits)
        for g in group:
            if all(one[l] == two[g.perm[l] - 1] for l in range(m)):
                sums[g] += prod
                members[g].add((p1, p2))
    return sums, members


@pytest.mark.parametrize("cls", (DIII, CI))
def test_chase_agrees_with_reference_enumeration(cls):
    """The one-pass sign sums (row one from index 0 only, scaled by 2n)
    equal the literal per-multiindex sums for every g."""
    for n, m in ((2, 3), (3, 3), (2, 4)):
        want, members = _reference_sign_sums(cls, n, m)
        group = dihedral_group(m)
        # the enumeration above selects what good_multiindices selects
        refl = group[m]
        good = good_multiindices(refl, cls, n, m)
        assert {tuple(tuple(pair[0] for pair in row) for row in P.rows) for P in good} == (
            members[refl]
        )
        assert _shift_sum(cls, n, m, 10**8) == want[group[0]]
        per_g = cov_report(cls, n, m, GAUSS).per_g
        assert [t.label for t in per_g] == [str(g) for g in group]
        assert {g: t.sign_sum for g, t in zip(group, per_g)} == want


@pytest.mark.parametrize("cls", (DIII, CI))
def test_row_one_rotation_maps_good_sets(cls):
    """Rotating row one by one slot maps S^good(pi_g) onto
    S^good(pi_{g o rho_1}), rho_1(l) = l + 1, and
    shift(nu) o rho_1 = shift(nu + 1), refl(nu) o rho_1 = refl(nu + 1).
    So all shift sums agree and all reflection sums agree.

    Reversing row two maps S^good(pi_shift(nu)) onto S^good(pi_refl(nu+1))
    as well, and multiplies the row-two sign product by eps^m (eps = -1 in
    DIII, +1 in CI), which is what lets _shape_sums chase shift(0)
    only."""
    nonempty = 0
    for n, m in ((2, 3), (3, 3), (2, 4)):
        sums, members = _reference_sign_sums(cls, n, m)
        group = dihedral_group(m)
        by_perm = {g.perm: g for g in group}
        for g in group:
            g_rho = by_perm[tuple(g(l % m + 1) for l in range(1, m + 1))]
            assert (g_rho.kind, g_rho.nu) == (g.kind, (g.nu + 1) % m)
            good = members[g]
            nonempty += bool(good)
            assert {(p1[1:] + p1[:1], p2) for p1, p2 in good} == members[g_rho]
            if g.kind == "shift":
                refl = group[m + (g.nu + 1) % m]
                assert {(p1, p2[::-1]) for p1, p2 in good} == members[refl]
        eps = -1 if cls is DIII else 1
        for kind in ("shift", "reflection"):
            assert len({sums[g] for g in group if g.kind == kind}) == 1
        assert sums[group[m]] == eps**m * sums[group[0]]
    assert nonempty


@pytest.mark.parametrize(
    "cls,n,m,want",
    [
        (DIII, 3, 4, 192),
        (CI, 3, 4, 1536),
        (DIII, 4, 4, 1536),
        (CI, 4, 4, 5760),
        (DIII, 2, 6, 0),
        (CI, 2, 6, 0),
        (DIII, 3, 6, 0),
        (CI, 3, 6, 9024),
    ],
)
def test_good_sign_sums_frozen(cls, n, m, want):
    """Sign sums on cells beyond the reference enumeration's reach, frozen
    from a chase that ran every one of the 2m elements separately; every
    element of each cell had the same sum there (m is even, so eps^m = 1)."""
    assert _shift_sum(cls, n, m, 10**8) == want
    assert [t.sign_sum for t in cov_report(cls, n, m, GAUSS).per_g] == [want] * (2 * m)


BELL = (1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)


@pytest.mark.parametrize("m", range(1, 11))
def test_label_shapes_are_the_restricted_growth_strings(m):
    """Bell(m) rows, p_0's label first, each label at most one above the
    largest before it, in lexicographic order; up to m = 6 they are
    exactly the restricted-growth strings among all m^m label strings."""
    shapes = label_shapes(m)
    assert _bell(m) == len(shapes) == BELL[m - 1]
    assert shapes.shape == (BELL[m - 1], m)
    assert np.all(shapes[:, 0] == 0)
    prefix_max = np.maximum.accumulate(shapes, axis=1)
    assert np.all(shapes[:, 1:] <= prefix_max[:, :-1] + 1)
    # base-m codes rise strictly: the rows are distinct and in lexicographic order
    assert np.all(np.diff(shapes @ m ** np.arange(m - 1, -1, -1)) > 0)
    if m <= 6:
        every = [
            s for s in itertools.product(range(m), repeat=m)
            if all(s[l] <= max(s[:l], default=-1) + 1 for l in range(m))
        ]
        assert [tuple(r) for r in shapes.tolist()] == every


def test_shape_sums_equal_walk_sums():
    """The shape pass gives the walk enumeration's integer on every cell of
    both classes with m <= 6, n <= 10 and at most 2 10^5 row-one walks."""
    cells = 0
    for cls, m, n in itertools.product((DIII, CI), range(1, 7), range(1, 11)):
        if (cls, n) == (DIII, 1) or (2 * n) ** (m - 1) > 2 * 10**5:
            continue
        assert _shift_sum(cls, n, m, 10**8) == walk_sign_sums(cls, n, m)
        cells += 1
    assert cells == 104


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("m", range(1, 9))
def test_pruning_keeps_every_shape_sum(cls, m):
    """The pass that drops a prefix at its first forced zero or repeated
    class gives every a_k of the unpruned pass over all Bell(m) 2^(m-1)
    shape walks."""
    assert _shape_sums(cls, m, 10**8) == shape_walk_sums(cls, m)


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("m", (3, 5, 7))
@pytest.mark.parametrize("n", (2, 9, 64))
def test_odd_degree_sign_sums_vanish(cls, m, n):
    """Swapping the blocks of row one alone multiplies its sign product by
    (-1)^m and keeps every class, so S = -S at odd m."""
    assert _shift_sum(cls, n, m, 10**8) == 0


@pytest.mark.parametrize(
    "m,cls", [(m, cls) for m in range(3, 9) for cls in (DIII, CI)] + [(9, DIII), (10, DIII)]
)
def test_shape_sums_carry_the_limit(m, cls):
    """V_n = 2m S(n) / (2n)^m at sigma = 1 (eps^m = 1 at even m), and the
    leading term of S(n) = 2n sum_k (n-1)_(k-1) a_k is 2 a_m n^m, so V_n
    tends to 4m a_m / 2^m: a_m = 2^m is the limit 4m of ``V_asymptotic``.
    At odd m, S(n) = 0 at every n, and the falling factorials are a basis,
    so every a_k is 0.  CI at m = 9 and 10 (about 8 s) is checked by a CI
    workflow step instead."""
    a = _shape_sums(cls, m, 10**8)
    assert len(a) == m
    if m % 2:
        assert a == (0,) * m
    else:
        assert a[-1] == 2**m
        assert V_asymptotic(cls, m, GAUSS) == (4 * m * a[-1] / 2**m, "theorem")


@pytest.mark.parametrize(
    "cls,m,want",
    [
        (DIII, 3, (0, 0, 0)),
        (CI, 3, (0, 0, 0)),
        (DIII, 4, (0, 0, 16, 16)),
        (CI, 4, (0, 48, 80, 16)),
        (DIII, 5, (0,) * 5),
        (CI, 5, (0,) * 5),
        (DIII, 6, (0, 0, 0, 288, 384, 64)),
        (CI, 6, (0, 0, 752, 2016, 768, 64)),
        (DIII, 7, (0,) * 7),
        (CI, 7, (0,) * 7),
        (DIII, 8, (0, 0, 0, 2592, 16320, 16640, 4096, 256)),
        (CI, 8, (0, 0, 5888, 69792, 106944, 44288, 6144, 256)),
        (DIII, 10, (0, 0, 0, 0, 352768, 1241600, 1039360, 293120, 30720, 1024)),
    ],
)
def test_shape_sums_frozen(cls, m, want):
    """The integer polynomial of every dihedral cell, m = 3..8.  Frozen by
    interpolating the n-dependent chase that preceded the shape split at
    n = 1..m+2: S(n) = 2n sum_k (n-1)_(k-1) a_k held at every one of those
    n, more points than the m unknowns.  DIII m = 10 is frozen from the
    unpruned shape pass that preceded the pruned one."""
    assert _shape_sums(cls, m, 10**8) == want


@pytest.mark.parametrize("cls,want", ((CI, 8376847847424), (DIII, 7621096218624)))
def test_shift_sum_at_n64_m6(cls, want):
    """m = 6 at the desk size n = 64: CI agrees with the polynomial
    interpolated from n = 2..8 of the walk enumeration."""
    assert _shift_sum(cls, 64, 6, 10**8) == want


def test_n64_m6_costs_under_a_second():
    """Both classes at n = 64, m = 6 take 2 * 6496 shape walks, well under
    one second together, with the passes run afresh."""
    _shape_pass.cache_clear()
    start = time.perf_counter()
    for cls in (DIII, CI):
        V_n_exact(cls, 64, 6, GAUSS)
    assert time.perf_counter() - start < 1.0


def test_m8_at_n64_memory_is_bounded():
    """The m = 8 pass (529 920 shape walks) expands at most 2^12 prefixes
    at a time, so its traced allocations stay under 16 MiB at n = 64; the
    pass is run afresh, not read from the cache."""
    _shape_pass.cache_clear()
    tracemalloc.start()
    try:
        S = _shift_sum(CI, 64, 8, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S > 0
    assert peak < 16 * 2**20


def test_second_n_runs_no_pass(monkeypatch):
    """The a_k of a (class, m) serve every n after the first: V_n_exact and
    cov_report at other n build no tables and run no pass.  m = 1 and 2
    are closed forms and build no table at any n."""
    built = []

    def counting_tables(cls, n):
        built.append((cls, n))
        return class_tables(cls, n)

    monkeypatch.setattr(covariance, "class_tables", counting_tables)
    _shape_pass.cache_clear()
    for cls, n, m in itertools.product((CI, DIII), (2, 9, 300), (1, 2)):
        assert V_n_exact(cls, n, m, GAUSS) == cov_report(cls, n, m, GAUSS).v_n
    assert built == []
    first = V_n_exact(CI, 4, 5, GAUSS)
    assert built == [(CI, 5)]
    assert V_n_exact(CI, 6, 5, GAUSS) == first == 0.0
    report = cov_report(CI, 8, 5, GAUSS)
    assert built == [(CI, 5)]
    assert _shape_pass.cache_info().misses == 1
    assert report.v_n == 0.0 and len(report.per_g) == 10


def _off_diagonal_counts(cls, n, model):
    """V_n at m = 1 and 2 counted from the members of every class: the
    squared diagonal sign sum of each class times u sigma^2 / 2n, and the
    squared number of off-diagonal members times Var(g^2) / (2n)^2."""
    classes = build_equivalence_classes(cls, n)
    diag = sum(
        sum(s for (p, q), s in zip(c.members, c.signs) if p == q) ** 2 for c in classes
    )
    off = sum(sum(p != q for p, q in c.members) ** 2 for c in classes)
    dim = 2 * n
    var_sq = model.exact_moment(4) - model.exact_moment(2) ** 2
    return cls.pair_unit * diag * Fraction(model.sigma2) / dim, Fraction(off, dim**2) * var_sq


@pytest.mark.parametrize("model", (
    GAUSS,
    EntryModel.gaussian(0.49),
    RADEM,
    EntryModel.rademacher(2.25),
    EntryModel.from_atoms([(-1.0, 2 / 3), (2.0, 1 / 3)]),
    EntryModel.from_atoms([(-0.5, 0.6), (0.75, 0.4)]),
), ids=("gauss", "gauss0.49", "radem", "radem2.25", "skew", "skew2"))
def test_low_degrees_match_member_counts(model):
    """The closed forms of m = 1 and 2 are the rationals counted from the
    members of ``build_equivalence_classes``, n = 1..12 in both classes:
    0 at m = 1, and Var(g^2) (4(n-1) + [CI]) / n at m = 2."""
    for cls in (CI, DIII):
        for n in range(1 if cls is CI else 2, 13):
            v1, v2 = _off_diagonal_counts(cls, n, model)
            got1, got2 = (covariance._exact_cell(cls, n, m, model, 10**8) for m in (1, 2))
            assert got1 == (v1, None) and v1 == 0
            assert got2 == (v2, None), (cls, n)
            assert v2 == Fraction(4 * (n - 1) + (cls is CI), n) * (
                model.exact_moment(4) - model.exact_moment(2) ** 2
            )
            assert V_n_exact(cls, n, 1, model).hex() == "0x0.0p+0"
            assert V_n_exact(cls, n, 2, model) == float(v2)


def test_second_degree_at_a_million():
    """m = 2 at n = 10^6 costs no (2n)^2 table: the closed form, rounded once."""
    assert V_n_exact(CI, 10**6, 2, GAUSS) == float(Fraction(2 * (4 * 10**6 - 3), 10**6))
    assert V_n_exact(DIII, 10**6, 2, GAUSS) == float(Fraction(8 * (10**6 - 1), 10**6))
    assert cov_report(DIII, 10**6, 1, GAUSS).v_n == 0.0


def test_budget_is_checked_before_the_cache():
    """A (class, m) already in the cache still raises the budget's error,
    with the same message, and an n that is not valid is still rejected."""
    a = _shape_sums(DIII, 6, 10**8)
    assert _shape_sums(DIII, 6, 6496) == a
    reads = _shape_pass.cache_info().hits
    with pytest.raises(BudgetError, match=r"^6496 shape walks exceed budget 6495$"):
        _shape_sums(DIII, 6, 6495)
    with pytest.raises(BudgetError, match=r"^6496 shape walks exceed budget 6495$"):
        V_n_exact(DIII, 9, 6, GAUSS, budget=6495)
    with pytest.raises(ValueError, match="degenerate"):
        _shift_sum(DIII, 1, 6, 10**8)
    assert _shape_pass.cache_info().hits == reads  # none of them read the cache


def test_size_is_validated():
    with pytest.raises(ValueError, match="degenerate"):
        _shift_sum(DIII, 1, 4, 10**8)
    with pytest.raises(ValueError, match="n must be positive"):
        V_n_exact(CI, 0, 4, GAUSS)
    for m in (1, 2):
        with pytest.raises(ValueError, match="n must be positive"):
            V_n_exact(CI, 0, m, GAUSS)
        with pytest.raises(ValueError, match="degenerate"):
            cov_report(DIII, 1, m, GAUSS)


@pytest.mark.parametrize(
    "cls,n", [(cls, n) for cls in (DIII, CI) for n in range(1, 7) if (cls, n) != (DIII, 1)]
)
def test_member_tables_match_equivalence_classes(cls, n):
    """The chase's lookup, built from class_tables, holds exactly the
    members of build_equivalence_classes: (q, sign) per (class, p), and
    each class's rows p."""
    q_by_p, s_by_p, member_p = _member_tables(*class_tables(cls, n))
    classes = build_equivalence_classes(cls, n)
    assert q_by_p.shape == (len(classes), 2 * n)
    for c in classes:
        members = {p - 1: (q - 1, s) for (p, q), s in zip(c.members, c.signs)}
        assert len(members) == len(c.members)  # one member per row
        assert set(np.flatnonzero(q_by_p[c.index] >= 0)) == set(members)
        for p, (q, s) in members.items():
            assert (q_by_p[c.index, p], s_by_p[c.index, p]) == (q, s)
        assert sorted(member_p[c.index]) == [-1] * (4 - len(members)) + sorted(members)


# -- exact finite-n variance ---------------------------------------------------


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("n", range(2, 7))
def test_v1_is_zero(cls, n):
    assert V_n_exact(cls, n, 1, GAUSS) == 0.0


@pytest.mark.parametrize("n", range(2, 13))
def test_v2_closed_forms(n):
    assert V_n_exact(DIII, n, 2, GAUSS) == float(Fraction(8 * (n - 1), n))
    assert V_n_exact(CI, n, 2, GAUSS) == float(Fraction(2 * (4 * n - 3), n))
    # fourth moment equals sigma^4 for Rademacher entries: no m=2 noise
    assert V_n_exact(DIII, n, 2, RADEM) == 0.0


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("m", (3, 5))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_odd_m_vanishes_exactly(cls, m, n):
    assert V_n_exact(cls, n, m, GAUSS) == 0.0
    assert V_n_exact(cls, n, m, RADEM) == 0.0


@pytest.mark.parametrize("n", range(2, 8))
def test_diii_v4_closed_form(n):
    want = float(Fraction(16 * n * (n - 1) * (n - 2) ** 2, n**4))
    assert V_n_exact(DIII, n, 4, GAUSS) == want
    # m >= 3 values use second moments only, so any sigma=1 family agrees
    assert V_n_exact(DIII, n, 4, RADEM) == want


def test_ci_v4_gap_shrinks_monotonically():
    gaps = []
    for n in (4, 6, 8, 10, 12):
        v = V_n_exact(CI, n, 4, GAUSS)
        gaps.append(abs(v - 16.0))
    assert gaps[0] == pytest.approx(16.0 - 11.25, abs=1e-12)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_v_asymptotic_cases():
    assert V_asymptotic(DIII, 1, GAUSS) == (0.0, "theorem")
    assert V_asymptotic(CI, 5, GAUSS) == (0.0, "theorem")
    assert V_asymptotic(DIII, 4, GAUSS) == (16.0, "theorem")
    assert V_asymptotic(CI, 6, EntryModel.gaussian(0.25)) == (24 * 0.5**12, "theorem")
    assert V_asymptotic(DIII, 2, GAUSS) == (8.0, "derived")
    assert V_asymptotic(CI, 2, RADEM) == (0.0, "derived")
    # the scale is the law's: an atom law of scale 1 has the limit 4m
    assert V_asymptotic(CI, 4, EntryModel.from_atoms([(-1.0, 0.5), (1.0, 0.5)])) == (
        16.0, "theorem"
    )


def test_v_n_budget():
    with pytest.raises(BudgetError):
        V_n_exact(DIII, 6, 4, GAUSS, budget=10)


def test_v_n_budget_counts_row_one_walks():
    """One pass evaluates Bell(m) 2^(m-1) row-one shape walks at any n, and
    the budget counts exactly those."""
    for m, n in itertools.product((3, 4, 5, 6), (3, 64)):
        walks = BELL[m - 1] * 2 ** (m - 1)
        assert V_n_exact(DIII, n, m, GAUSS, budget=walks) == V_n_exact(DIII, n, m, GAUSS)
        with pytest.raises(BudgetError, match=rf"^{walks} shape walks exceed budget {walks - 1}$"):
            V_n_exact(DIII, n, m, GAUSS, budget=walks - 1)
    assert [BELL[m - 1] * 2 ** (m - 1) for m in (4, 5, 6, 8)] == [120, 832, 6496, 529920]


# -- oracle cross-validation ---------------------------------------------------


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("m,mu", [(2, 2), (2, 4), (3, 3), (4, 4)])
def test_config_vs_moment_oracle(cls, m, mu):
    a = cov_traces_config_oracle(cls, 2, m, mu, RADEM)
    b = cov_cheb_moment_oracle(cls, 2, m, mu, RADEM)
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("m,mu", [(2, 2), (2, 3), (2, 4)])
def test_oracles_agree_with_skewed_atoms(m, mu):
    """A centered but asymmetric entry law exercises the odd-moment path."""
    skew = EntryModel.from_atoms([(-1.0, 2 / 3), (2.0, 1 / 3)])
    a = cov_traces_config_oracle(DIII, 2, m, mu, skew)
    b = cov_cheb_moment_oracle(DIII, 2, m, mu, skew)
    assert a == pytest.approx(b, abs=1e-10)


def test_oracle_matches_v2():
    """The m=2 formula sums off-diagonal pairs only.  For DIII that IS the
    variance (diagonals vanish); for CI the true variance carries an extra
    Var(g^2)/n from the diagonal classes, gone in the limit."""
    for n in (2, 3, 4):
        got = cov_cheb_moment_oracle(DIII, n, 2, 2, GAUSS)
        assert got == pytest.approx(V_n_exact(DIII, n, 2, GAUSS), rel=1e-12)
        got = cov_cheb_moment_oracle(CI, n, 2, 2, GAUSS)
        want = V_n_exact(CI, n, 2, GAUSS) + 2.0 / n
        assert got == pytest.approx(want, rel=1e-12)
        # Rademacher kills Var(g^2): both classes agree with the formula
        assert cov_cheb_moment_oracle(CI, n, 2, 2, RADEM) == pytest.approx(
            V_n_exact(CI, n, 2, RADEM), abs=1e-12
        )


def test_oracle_odd_degrees_vanish():
    # odd Chebyshev traces are identically zero on these ensembles
    assert cov_cheb_moment_oracle(DIII, 2, 3, 3, GAUSS) == pytest.approx(0.0, abs=1e-12)
    assert cov_cheb_moment_oracle(CI, 2, 3, 4, GAUSS) == pytest.approx(0.0, abs=1e-12)
    assert cov_traces_config_oracle(CI, 2, 1, 2, RADEM) == pytest.approx(0.0, abs=1e-12)


def test_power_trace_oracle_odd_total_degree():
    assert _power_covariance(DIII, 2, 2, 3, GAUSS, 10**8, {}) == 0


def test_config_oracle_needs_finite_support():
    with pytest.raises(ValueError):
        cov_traces_config_oracle(DIII, 2, 2, 2, GAUSS)


def test_ci_t2_t4_covariance_is_zero():
    # CI cross covariance (2,4) cancels exactly at every size
    for n in (2, 3, 4):
        assert cov_cheb_moment_oracle(CI, n, 2, 4, GAUSS) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("n", (2, 3))
def test_shared_oracle_cache_is_bit_equal(cls, n):
    """Power covariances and power-trace expansions taken from a shared
    cache give the same floats as a fresh cache per pair."""
    pairs = [(2, 2), (2, 4), (4, 4), (3, 5), (4, 6), (6, 6)]
    shared: dict = {}
    for m, mu in pairs:
        got = cov_cheb_moment_oracle(cls, n, m, mu, GAUSS, cache=shared)
        assert got == cov_cheb_moment_oracle(cls, n, m, mu, GAUSS, cache={})
    assert {k for k in shared if k[0] == "trace"} == {("trace", k) for k in range(1, 7)}


def test_formula_approaches_oracle():
    """Prop-formula error against the true covariance shrinks with n."""
    gaps = []
    for n in (2, 3, 4):
        oracle = cov_cheb_moment_oracle(CI, n, 4, 4, RADEM)
        gaps.append(abs(oracle - V_n_exact(CI, n, 4, RADEM)))
    assert gaps[0] == pytest.approx(4.0, abs=1e-9)
    assert gaps[0] > gaps[1] > gaps[2]


# -- report --------------------------------------------------------------------


def test_cov_report_m4():
    rep = cov_report(DIII, 3, 4, GAUSS)
    assert rep.v_n == V_n_exact(DIII, 3, 4, GAUSS)
    assert rep.v_asymptotic == 16.0 and rep.flag == "theorem"
    assert rep.gap == abs(rep.v_n - 16.0)
    assert len(rep.per_g) == 8
    assert math.fsum(t.value for t in rep.per_g) == pytest.approx(rep.v_n, abs=1e-12)
    shift_sum = _shift_sum(DIII, 3, 4, 10**8)
    assert sum(t.sign_sum for t in rep.per_g) == 4 * (1 + (-1) ** 4) * shift_sum
    kinds = {t.kind for t in rep.per_g}
    assert kinds == {"shift", "reflection"}


def test_cov_report_m2_flag():
    rep = cov_report(CI, 4, 2, GAUSS)
    assert rep.flag == "derived"
    assert rep.per_g == ()


# -- properties ----------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    cls=st.sampled_from((DIII, CI)),
    n=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=3, max_value=4),
    sigma=st.floats(min_value=0.4, max_value=1.6),
)
def test_sigma_scaling_property(cls, n, m, sigma):
    base = V_n_exact(cls, n, m, EntryModel.gaussian(1.0))
    scaled = V_n_exact(cls, n, m, EntryModel.gaussian(sigma * sigma))
    assert scaled == pytest.approx(sigma ** (2 * m) * base, rel=1e-11, abs=1e-13)


def exact_rational(cls, n, m, sigma2):
    """V_n of the Gaussian law at sigma2 as a Fraction, with the per-element
    values for m >= 3, built from ``_shift_sum`` and ``class_tables``."""
    unit, dim, s2 = -1 if cls is DIII else 1, 2 * n, Fraction(sigma2)
    if m >= 3:
        shift = _shift_sum(cls, n, m, 10**8) * (unit * s2 / dim) ** m
        per = {"shift": shift, "reflection": unit**m * shift}
        return m * (per["shift"] + per["reflection"]), per
    cls_id, sign = class_tables(cls, n)
    if m == 1:
        per_class = {}
        for p in range(dim):
            if cls_id[p, p] >= 0:
                c = int(cls_id[p, p])
                per_class[c] = per_class.get(c, 0) + int(sign[p, p])
        return unit * sum(v * v for v in per_class.values()) * s2 / dim, {}
    sizes = {}
    for p, q in itertools.permutations(range(dim), 2):
        if cls_id[p, q] >= 0:
            sizes[int(cls_id[p, q])] = sizes.get(int(cls_id[p, q]), 0) + 1
    return Fraction(sum(k * k for k in sizes.values()), dim**2) * 2 * s2**2, {}


@settings(max_examples=25, deadline=None)
@given(sigma2=st.floats(min_value=0.05, max_value=20.0))
def test_exact_values_round_once(sigma2):
    """V_n_exact, cov_report's v_n and per-element values, and V_asymptotic
    each equal the float of their exact rational in sigma2."""
    model = EntryModel.gaussian(sigma2)
    for cls, n, m in itertools.product((DIII, CI), (2, 3), range(1, 7)):
        total, per = exact_rational(cls, n, m, sigma2)
        assert V_n_exact(cls, n, m, model) == float(total)
        rep = cov_report(cls, n, m, model)
        assert rep.v_n == float(total)
        want = [float(per[g.kind]) for g in dihedral_group(m)] if per else []
        assert [t.value for t in rep.per_g] == want
        s2 = Fraction(sigma2)
        limit = 8 * s2**2 if m == 2 else 4 * m * s2**m * (m % 2 == 0)
        assert V_asymptotic(cls, m, model)[0] == float(limit)


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("sigma2", (1.0, 0.49, 1.69))
def test_v_n_exact_is_cov_report_v_n(cls, sigma2):
    model = EntryModel.gaussian(sigma2)
    for n, m in itertools.product((2, 3), range(1, 7)):
        assert V_n_exact(cls, n, m, model) == cov_report(cls, n, m, model).v_n
