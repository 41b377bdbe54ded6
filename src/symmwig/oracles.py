"""Brute-force oracles for the exact covariances of trace statistics.

Two independent routes to Cov(Tr T_m, Tr T_mu) at finite n, used to
cross-check the dihedral formula of ``covariance``: a configuration oracle
for finite-support entry laws and a moment oracle that factorizes entry
products over equivalence classes.

The configuration oracle splits the configuration index into low digits,
whose matrices are built once, and high digits, one matrix per value added
to the low block, and runs the recurrence on one block per sign orbit of
the high digits, and inside a block on one low row per orbit of the sign
maps that fix the high digits.  It evaluates each of those matrices once
into a table, then sums each window of configurations with one gather from
the table.  The moment oracle expands each power trace over
rotation classes of walks and sums the integer coefficients of its cross
terms by exponent histogram, so that each expectation is one exact sum
over a few dozen histograms; its Chebyshev sum stays rational and is
rounded once.  Relabelling 1..n in both blocks at once and exchanging X1
and X2 permute the classes, up to one sign per class, and keep every
trace, so the oracle crosses one monomial of the first trace per orbit of
that group, weighted by the orbit size, against every monomial of the
second (see ``_power_covariance``): the same rational from up to 2 n!
times fewer pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from .chebyshev import _recurrence_traces, _stack_count, cheb_coefficients
from .ensemble import EntryModel, SymmetryClass, block_layout, class_tables
from .patterns import BudgetError

__all__ = ["cov_traces_config_oracle", "cov_cheb_moment_oracle"]

# -- configuration oracle ------------------------------------------------------

_DOT_WINDOW = 1 << 13  # configurations per partial dot product
_LOW_BLOCK = 1 << 9  # at most this many low-digit configurations


def _config_digits(A: int, nc: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high digit rows of the configuration index, in index order.

    Configuration i gives class c the atom of digit (i // A^c) % A.  The
    first L classes, with A^L <= ``_LOW_BLOCK``, are the low digits.
    """
    L = 0
    while L < nc and A ** (L + 1) <= _LOW_BLOCK:
        L += 1

    def digits(count: int, width: int) -> np.ndarray:
        return np.arange(count)[:, None] // A ** np.arange(width) % A

    return digits(A**L, L), digits(A ** (nc - L), nc - L)


def _class_map(
    cls_id: np.ndarray, sign: np.ndarray, src_p, src_q, t
) -> tuple[np.ndarray, np.ndarray]:
    """(perm, s) of the map X -> Y, Y[p, q] = t[p, q] * X[src_p[p, q], src_q[p, q]].

    Class c of Y is class perm[c] of X times s_c: each member of c reads a
    member of one class perm[c], with one sign s_c, and a zero entry reads
    a zero entry.  Asserts that, and that perm permutes the classes.
    """
    src_p, src_q, t = np.broadcast_arrays(src_p, src_q, t)
    live = cls_id >= 0
    src_cls = cls_id[src_p, src_q]
    assert np.array_equal(src_cls >= 0, live), "the map leaves the space"
    nc = int(cls_id.max()) + 1
    c, image = cls_id[live], src_cls[live]
    s_live = (t * sign * sign[src_p, src_q])[live]
    perm = np.zeros(nc, dtype=np.intp)
    s = np.zeros(nc, dtype=np.int8)
    perm[c], s[c] = image, s_live
    assert np.array_equal(perm[c], image) and np.array_equal(s[c], s_live), (
        "members of a class disagree"
    )
    assert np.array_equal(np.sort(perm), np.arange(nc)), "classes are not permuted"
    return perm, s


def _class_flips(symmetry_class: SymmetryClass, n: int) -> np.ndarray:
    """GF(2) rows of the sign maps: which classes each generator negates.

    Row r, column c < n_classes, is set when generator r multiplies class c
    by -1; the last column is set when generator r negates X.  The
    generators are X -> -X, and X -> D X D with D = diag(d, eps d) for
    d_j = -1 (j = 2..n) and for eps = -1.  D X D multiplies the entry at
    (p, q) by D_p D_q, and every member of a class must agree on it.
    """
    cls_id, sign = class_tables(symmetry_class, n)
    nc = int(cls_id.max()) + 1
    idx = np.arange(2 * n)
    diagonals = []
    for j in range(1, n):
        d = np.ones(2 * n, dtype=np.int8)
        d[[j, n + j]] = -1
        diagonals.append(d)
    diagonals.append(np.repeat(np.array([1, -1], dtype=np.int8), n))
    rows = [np.ones(nc + 1, dtype=bool)]
    for d in diagonals:
        _, s = _class_map(cls_id, sign, idx[:, None], idx[None, :], np.outer(d, d))
        rows.append(np.append(s < 0, False))
    return np.array(rows)


def _orbit_basis(flips: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot classes and reduced rows spanning ``flips``.

    Gaussian elimination over GF(2): row i flips its pivot class and no
    other pivot.  A row's pivot is the first high class (L <= c <
    n_classes) that it flips, or if it flips none, its first low class, so
    the rows with low pivots flip no high class.  Rows that flip no class
    are dropped.
    """
    nc = flips.shape[1] - 1
    pivots: list[int] = []
    basis: list[np.ndarray] = []
    for v in flips:
        v = v.copy()
        for p, b in zip(pivots, basis):
            if v[p]:
                v ^= b
        hits = np.flatnonzero(v[:nc])
        if len(hits):
            p = int(hits[hits >= L][0] if hits[-1] >= L else hits[0])
            for b in basis:
                if b[p]:
                    b ^= v
            pivots.append(p)
            basis.append(v)
    return np.array(pivots, dtype=np.intp), np.array(basis, dtype=bool).reshape(len(basis), nc + 1)


def _representatives(
    digits: np.ndarray, start: int, pivots: np.ndarray, basis: np.ndarray,
    negative: np.ndarray, neg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(g, rep) per row of ``digits``, the digits of the classes from
    ``start`` on: the group element g, the sum of the basis rows whose
    pivots sit on negative atoms, and the index of the row that g maps the
    row to.  ``negative`` marks the negative atoms, and ``neg`` maps each
    atom to its negative."""
    on_negative = negative[digits[:, pivots - start]]
    g = (on_negative.astype(np.int64) @ basis.astype(np.int64) & 1).astype(bool)
    width = digits.shape[1]
    moved = np.where(g[:, start : start + width], neg[digits], digits)
    return g, moved @ len(neg) ** np.arange(width)


def cov_traces_config_oracle(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    mu: int,
    model: EntryModel,
    budget: int = 10**7,
) -> float:
    """Exact Cov(Tr T_m, Tr T_mu) for finite-support entry laws, with the
    Chebyshev polynomials at the scale of the law.

    Weights every joint assignment of the class variables by its product
    probability and evaluates both traces by the literal matrix recurrence,
    once per sign orbit of configurations, in real arithmetic: on the real
    block matrix Y, with X = Y in CI and X = iY in DIII (see
    ``_recurrence_traces``), so an odd DIII trace is exactly +0.0.  The
    weighted sums are taken over windows of ``_DOT_WINDOW`` consecutive
    configurations, in index order, and added with ``math.fsum``.

    Sign orbits.  Let D = diag(d, eps d) with d in {+-1}^n, eps = +-1.  D X D
    stays in the ensemble: it multiplies each class by one sign (see
    ``_class_flips``), and so does D Y D.  Every matrix of the recurrence
    obeys U_k(D Y D) = D U_k(Y) D, and all terms of entry (i, j) of each
    product carry the same sign d_i d_j.  Round-to-nearest is odd,
    fl(-x) = -fl(x), for fma as well, so the same BLAS kernel on the same
    shapes returns exactly the signed result, and the traces are bitwise
    equal.  Likewise
    U_k(-Y) = (-1)^k U_k(Y), bit for bit.  When the atom values are closed
    under negation these maps send configurations to configurations, so the
    traces of every configuration are +- those of a representative; the
    weights are always the configuration's own.  Other laws get the trivial
    group, in the same code.  The sums read the same floats as an
    enumeration of every configuration, so the value does not change.

    Pivot choice.  Elimination over GF(2) on the high digits only
    (``_orbit_basis``) gives rows that each flip one pivot class; the
    representatives are the high-digit values whose pivots sit on
    nonnegative atoms.  A high-digit value maps to its representative by the
    rows whose pivots sit on negative atoms, which fixes the sign and, from
    the low classes that those rows flip, one permutation of the whole low
    block.  Pivots on high digits are what make the group element a
    function of the high digits alone; which high class is the pivot is
    immaterial, and the first one is taken.  The rows that flip no high
    class act inside every block: their pivots, on low classes, pick the
    low representatives the same way, and only those rows of each block
    are evaluated; every other low row reads the traces of its
    representative by a gather and a sign.  A zero atom on a pivot leaves
    some orbits with several representatives, which costs time, not
    exactness.

    Two passes.  The first evaluates each distinct high representative
    once, on the low representatives only, and keeps the traces of degrees
    m and mu in a (block x low representative) table.  The second takes
    each window with one gather from that table, times the block sign and
    the low-row sign, in index order.  The table holds 16 bytes per
    evaluated matrix, N/|G| of them for N configurations and a sign group G
    (more where zero atoms sit on pivots), and all N when the atom values
    are not closed under negation: 16 MiB at CI n = 4, 2^20 configurations.
    """
    atoms = model.finite_support
    if atoms is None:
        raise ValueError("configuration oracle needs a finite-support model")
    if m < 1 or mu < 1:
        raise ValueError("degrees must be >= 1")
    layout = block_layout(symmetry_class, n)
    nc = layout.n_classes
    A = len(atoms)
    if A**nc > budget:
        raise BudgetError(f"{A}^{nc} configurations exceed budget {budget}")

    values, probs = np.array(atoms).T
    low, high = _config_digits(A, nc)
    L = low.shape[1]
    # the sign maps act on configurations when the atom values are closed
    # under negation; otherwise the group is trivial
    symmetric = all(-v in values for v in values)
    neg = np.array([list(values).index(-v) if symmetric else a for a, v in enumerate(values)])
    flips = _class_flips(symmetry_class, n) if symmetric else np.zeros((0, nc + 1), dtype=bool)
    negative = values < 0
    pivots, basis = _orbit_basis(flips, L)
    on_high = pivots >= L
    g, rep = _representatives(high, L, pivots[on_high], basis[on_high], negative, neg)
    patterns, pattern_of = np.unique(g[:, :L], axis=0, return_inverse=True)
    perms = [np.where(f, neg[low], low) @ A ** np.arange(L) for f in patterns]
    signs = np.where(g[:, nc, None], [(-1.0) ** m, (-1.0) ** mu], 1.0)
    # the rows with low pivots flip no high class: they act inside every block
    u, low_rep = _representatives(low, 0, pivots[~on_high], basis[~on_high], negative, neg)
    evaluated, low_rep = np.unique(low_rep, return_inverse=True)
    low_signs = np.where(u[:, nc, None], [(-1.0) ** m, (-1.0) ** mu], 1.0)

    # evaluate: one recurrence per distinct high representative, on the
    # low representatives only, into table[:, block, low representative];
    # low matrices plus the high value's matrix equal the assembled
    # configuration up to the sign of zero, as every entry is in one class
    blocks, pos = np.unique(rep, return_inverse=True)
    M, unit = max(m, mu), symmetry_class.pair_unit
    scale = 1 / math.sqrt(layout.dim)  # the real Y of X = iY in DIII
    draws = np.zeros((len(evaluated), nc))
    draws[:, :L] = values[low[evaluated]]
    y_low = scale * layout.assemble(draws)
    Y = np.empty_like(y_low)
    stacks = [np.empty_like(Y) for _ in range(_stack_count(M))]
    table = np.empty((2, len(blocks), len(evaluated)))
    for i, r in enumerate(blocks):
        draws = np.zeros(nc)
        draws[L:] = values[high[r]]
        np.add(y_low, scale * layout.assemble(draws), out=Y)
        table[:, i] = _recurrence_traces(Y, M, model.sigma, stacks, unit)[:, [m - 1, mu - 1]].T
    del y_low, Y, stacks  # the sum reads the table alone

    # sum: each window gathers the blocks it touches, in index order, at
    # the flat table index pos * E + col of every configuration
    tx, ty = table.reshape(2, -1)
    col, low_signs = low_rep[perms], low_signs[perms]
    w_low, w_high = probs[low].prod(axis=1), probs[high].prod(axis=1)
    B, N, E = len(low), A**nc, len(evaluated)
    sx, sy, sxy = [], [], []
    for lo in range(0, N, _DOT_WINDOW):
        hi = min(lo + _DOT_WINDOW, N)
        hs = np.arange(lo // B, -(-hi // B))
        cut = slice(lo - hs[0] * B, hi - hs[0] * B)
        p = pattern_of[hs]
        at = (pos[hs, None] * E + col[p]).ravel()[cut]
        x = tx[at] * (signs[hs, 0, None] * low_signs[p, :, 0]).ravel()[cut]
        y = ty[at] * (signs[hs, 1, None] * low_signs[p, :, 1]).ravel()[cut]
        w = (w_low * w_high[hs, None]).ravel()[cut]
        sx.append(float(np.dot(w, x)))
        sy.append(float(np.dot(w, y)))
        sxy.append(float(np.dot(w, x * y)))
    ex, ey, exy = math.fsum(sx), math.fsum(sy), math.fsum(sxy)
    return exy - ex * ey


# -- moment oracle ---------------------------------------------------------------

_PAIR_BLOCK = 1 << 16  # monomial pairs per block of the cross-term pass


def _power_trace_monomials(
    symmetry_class: SymmetryClass, n: int, k: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tr(X_raw^k) as a signed sum of class-variable monomials.

    X_raw carries unnormalized entries with the DIII unit i stripped (the
    caller reinstates i^k).  Returns (exps, coefs): exps[r, c] (int8) is
    the exponent of class c in monomial r and coefs[r] (int64) its nonzero
    integer coefficient, rows in the lexicographic order of their sorted
    class-id tuples.

    A walk (p_0, ..., p_{k-1}) has the monomial and sign of each of its
    rotations, so only walks that start at their least index are
    enumerated, one value of p_0 at a time.  If that index occurs j times
    in the walk, j/k of the walk's rotation orbit starts there, so the walk
    stands for k/j walks; it is counted with weight L/j, L = lcm(1..k),
    and each sum is multiplied by k/L at the end, exactly.  The budget
    counts the walks enumerated: sum over j = 1..2n of j^(k-1).
    """
    dim = 2 * n
    n_walks = sum(j ** (k - 1) for j in range(1, dim + 1))
    if n_walks > budget:
        raise BudgetError(f"{n_walks} least-index walks exceed budget {budget}")
    cls_id, sign = class_tables(symmetry_class, n)
    n_classes = int(cls_id.max()) + 1
    if n_classes**k >= 2**63:
        raise BudgetError(f"{n_classes}^{k} monomial keys exceed int64")
    L = math.lcm(*range(1, k + 1))
    codes, weights = [], []
    for low in range(dim):
        # axes 0..k-2 carry p_1..p_{k-1}, each in low..dim-1
        shape = (dim - low,) * (k - 1)

        def on_grid(table: np.ndarray, *axes: int) -> np.ndarray:
            dims = [1] * (k - 1)
            for ax in axes:
                dims[ax] = dim - low
            return np.broadcast_to(table.reshape(dims), shape).ravel()

        def slot(table: np.ndarray, l: int) -> np.ndarray:
            """Table entry at (p_l, p_{l+1 mod k}) for every walk."""
            if k == 1:
                return table[low : low + 1, low]
            if l == 0:
                return on_grid(table[low, low:], 0)
            if l == k - 1:
                return on_grid(table[low:, low], k - 2)
            return on_grid(table[low:, low:], l - 1, l)

        c = np.stack([slot(cls_id, l) for l in range(k)])
        s = np.ones(c.shape[1], dtype=np.int64)
        for l in range(k):
            s *= slot(sign, l)
        j = np.ones(c.shape[1], dtype=np.int64)
        for ax in range(k - 1):
            j += on_grid(np.arange(dim - low) == 0, ax)
        valid = np.all(c >= 0, axis=0)
        c, w = c[:, valid], s[valid] * (L // j[valid])
        c = np.sort(c, axis=0)  # each walk's classes in order
        # one int64 per sorted walk, base n_classes with the first id most
        # significant: numeric order is the lexicographic order of the rows
        code = np.zeros(c.shape[1], dtype=np.int64)
        for row in c:
            code *= n_classes
            code += row
        codes.append(code)
        weights.append(w)
    code = np.concatenate(codes)
    order = np.argsort(code)
    code = code[order]
    if not len(code):
        return np.zeros((0, n_classes), dtype=np.int8), np.zeros(0, dtype=np.int64)
    first = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
    sums = np.add.reduceat(np.concatenate(weights)[order], first) * k
    assert not np.any(sums % L), "rotation weights must sum to whole walks"
    sums //= L
    keep = sums != 0
    ids = code[first[keep]]
    exps = np.zeros((len(ids), n_classes), dtype=np.int8)
    for _ in range(k):
        np.add.at(exps, (np.arange(len(ids)), ids % n_classes), 1)
        ids //= n_classes
    return exps, sums[keep]


def _power_expansion(
    cache: dict, symmetry_class: SymmetryClass, n: int, k: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_power_trace_monomials``, kept in ``cache`` under ("trace", k)."""
    key = ("trace", k)
    if key not in cache:
        cache[key] = _power_trace_monomials(symmetry_class, n, k, budget)
    return cache[key]


def _relabellings(
    symmetry_class: SymmetryClass, n: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(perm, s) per generator of the relabelling group, from ``_class_map``.

    The generators are X -> P X P^T for the n - 1 adjacent transpositions
    P = diag(pi, pi), and the X1 <-> X2 exchange X -> H X H with
    H = [[I, I], [I, -I]] / sqrt(2), which sends [[X1, X2], [X2, -X1]] to
    [[X2, X1], [X1, -X2]].  Both are orthogonal conjugations, so they keep
    every trace; they generate a group of order 2 n!.
    """
    cls_id, sign = class_tables(symmetry_class, n)
    idx = np.arange(2 * n)
    maps = []
    for j in range(n - 1):
        pi = idx.copy()
        pi[[j, j + 1, n + j, n + j + 1]] = pi[[j + 1, j, n + j + 1, n + j]]
        maps.append(_class_map(cls_id, sign, pi[:, None], pi[None, :], 1))
    bottom = idx >= n
    same_block = bottom[:, None] == bottom[None, :]
    maps.append(_class_map(
        cls_id, sign, idx[:, None] % n, idx[None, :] % n + n * same_block,
        np.where(bottom[:, None] & bottom[None, :], -1, 1),
    ))
    return maps


def _monomial_images(
    P: tuple[np.ndarray, np.ndarray], k: int, maps: list[tuple[np.ndarray, np.ndarray]]
) -> list[np.ndarray]:
    """Row of the image of every monomial of P, one array per map.

    Class variables g'_c = s_c g_{perm[c]} send the monomial with exponents
    e to the monomial with exponent e_c at class perm[c] and coefficient
    prod_c s_c^e_c times its own.  Asserts that the image is a row of P
    with exactly that coefficient.  The rows of P are in ascending order of
    their sorted class-id tuples, coded in base n_classes as in
    ``_power_trace_monomials``, so each image is found by bisection.
    """
    exps, coefs = P
    rows, nc = exps.shape
    ids = np.repeat(np.tile(np.arange(nc, dtype=np.int32), rows), exps.ravel())
    ids = ids.reshape(rows, k)

    def encode(ids: np.ndarray) -> np.ndarray:
        code = np.zeros(rows, dtype=np.int64)
        for col in ids.T:
            code = code * nc + col
        return code

    code = encode(ids)
    images = []
    for perm, s in maps:
        image = encode(np.sort(perm.astype(np.int32)[ids], axis=1))
        at = np.minimum(np.searchsorted(code, image), rows - 1)
        assert np.array_equal(code[at], image), "an image is not a monomial of the trace"
        odd = exps[:, s < 0].sum(axis=1) % 2 == 1
        assert np.array_equal(coefs[at], np.where(odd, -coefs, coefs)), (
            "an image has another coefficient"
        )
        images.append(at)
    return images


def _orbits(
    P: tuple[np.ndarray, np.ndarray], k: int, maps: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """First row and size of every orbit of the group that ``maps``
    generate on the monomials of P, in row order.

    Every row takes the least label among its own and its images' until no
    label moves; a row's label is itself a row of the orbit, so the label
    of the label is taken as well.
    """
    images = _monomial_images(P, k, maps)
    label = np.arange(len(P[1]))
    while True:
        least = np.minimum.reduce([label, *(label[at] for at in images)])
        if np.array_equal(least, label):
            return np.unique(label, return_counts=True)
        label = least[least]


def _orbit_representatives(
    cache: dict, symmetry_class: SymmetryClass, n: int, k: int, prune: bool, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tr(X_raw^k) with one monomial per orbit of the relabelling group, its
    coefficient times the orbit size, kept in ``cache`` under
    ("orbits", k, prune).  Without ``prune`` the group is generated by the
    sign-free maps alone (every s_c = +1).
    """
    key = ("orbits", k, prune)
    if key not in cache:
        P = _power_expansion(cache, symmetry_class, n, k, budget)
        maps = _relabellings(symmetry_class, n)
        if not prune:
            maps = [(perm, s) for perm, s in maps if np.all(s == 1)]
        reps, size = _orbits(P, k, maps)
        cache[key] = (P[0][reps], P[1][reps] * size)
    return cache[key]


def _histogram_places(K: int, n_classes: int) -> np.ndarray:
    """place[v]: the weight of exponent v in the code of an exponent histogram.

    A monomial of degree at most K has at most min(K // v, n_classes)
    classes at exponent v, so that count is one mixed-radix digit, and the
    code of a monomial is the sum of place[e_c] over its classes
    (place[0] = 0).  The codes stay below 2^20 for K = 12; degrees whose
    codes would not fit int64 raise BudgetError.
    """
    place, span = [0], 1
    for v in range(1, K + 1):
        place.append(span)
        span *= min(K // v, n_classes) + 1
    if span >= 2**63:
        raise BudgetError(f"exponent histograms of degree {K} exceed int64")
    return np.array(place, dtype=np.int64)


def _add_grouped(acc: dict[int, int], codes: np.ndarray, coefs: np.ndarray) -> None:
    """acc[code] += the integer sum of coefs under that code."""
    uniq, inv = np.unique(codes, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv.ravel(), coefs)
    for code, total in zip(uniq.tolist(), sums.tolist()):
        acc[code] = acc.get(code, 0) + total


def _histogram_value(acc: dict[int, int], place: np.ndarray, mom: list[Fraction]) -> Fraction:
    """sum over codes of acc[code] * prod_v mom[v]^(count at v), exactly."""
    total = Fraction(0)
    for code, coef in acc.items():
        term = Fraction(coef)
        for v in range(len(place) - 1, 0, -1):  # most significant digit first
            count, code = divmod(code, int(place[v]))
            if count:
                term *= mom[v] ** count
        total += term
    return total


def _cross_histograms(
    P1: tuple[np.ndarray, np.ndarray],
    P2: tuple[np.ndarray, np.ndarray],
    prune: bool,
    place: np.ndarray,
) -> dict[int, int]:
    """Integer sum of c1 * c2 over monomial pairs, by the histogram code
    of the merged exponents.

    With ``prune`` only pairs with equal odd-exponent signatures are
    formed; every other pair has an odd merged exponent, whose moment is
    zero.  The pairs are built in blocks of at most ``_PAIR_BLOCK``.  A
    monomial of P1 has at most k1 classes, so the code of a pair is the
    code of its P2 monomial plus one correction per P1 class:
    place[x + y] - place[y], for exponents x in P1 and y in P2.
    """
    (e1, c1), (e2, c2) = P1, P2
    acc: dict[int, int] = {}
    if not len(c1) or not len(c2):
        return acc
    if prune:
        odd = np.packbits(np.concatenate([e1, e2]) & 1, axis=1)
        label = np.unique(odd.view(f"V{odd.shape[1]}").ravel(), return_inverse=True)[1]
    else:
        label = np.zeros(len(c1) + len(c2), dtype=np.intp)
    l1, l2 = label[: len(c1)], label[len(c1) :]
    n_labels = int(label.max()) + 1
    o1, o2 = np.argsort(l1, kind="stable"), np.argsort(l2, kind="stable")
    n1 = np.bincount(l1, minlength=n_labels)
    n2 = np.bincount(l2, minlength=n_labels)
    live = np.nonzero(n1 * n2)[0]
    start1 = (np.cumsum(n1) - n1)[live]
    start2 = (np.cumsum(n2) - n2)[live]
    n2 = n2[live]
    offset = np.concatenate([[0], np.cumsum(n1[live] * n2)])

    # P1 sparse: slot a of monomial r holds class cls1[a, r] at exponent
    # ex1[a, r]; unused slots point at the zero column C of P2
    C = e1.shape[1]
    rows, cols = np.nonzero(e1)
    count = np.bincount(rows, minlength=len(c1))
    slot = np.arange(len(rows)) - (np.cumsum(count) - count)[rows]
    cls1 = np.full((int(count.max()), len(c1)), C, dtype=np.intp)
    ex1 = np.zeros_like(cls1)
    cls1[slot, rows] = cols
    ex1[slot, rows] = e1[rows, cols]
    e2z = np.zeros((len(c2), C + 1), dtype=np.int8)
    e2z[:, :C] = e2
    e2z = e2z.ravel()
    code2 = place[e2].sum(axis=1)
    K = len(place) - 1
    v = np.arange(K + 1)
    # x + y <= K on every pair; the clip only fills the unused corner
    step = (place[np.minimum(np.add.outer(v, v), K)] - place).ravel()

    # blocks small enough that no int64 sum of c1 * c2 in one block overflows
    bound = int(np.abs(c1).max()) * int(np.abs(c2).max())
    if bound >= 2**63:
        raise BudgetError(f"coefficient products up to {bound} exceed int64")
    block = min(_PAIR_BLOCK, (2**63 - 1) // bound)
    for lo in range(0, int(offset[-1]), block):
        t = np.arange(lo, min(lo + block, int(offset[-1])))
        g = np.searchsorted(offset, t, side="right") - 1
        local = t - offset[g]
        i = o1[start1[g] + local // n2[g]]
        j = o2[start2[g] + local % n2[g]]
        codes = code2[j]
        row2 = j * (C + 1)
        for cls, ex in zip(cls1, ex1):
            codes += step[ex[i] * (K + 1) + e2z[row2 + cls[i]]]
        _add_grouped(acc, codes, c1[i] * c2[j])
    return acc


def _power_covariance(
    symmetry_class: SymmetryClass,
    n: int,
    k1: int,
    k2: int,
    model: EntryModel,
    budget: int,
    cache: dict,
) -> Fraction:
    """Cov(Tr X^k1, Tr X^k2) for k1, k2 >= 1 as an exact rational,
    taking the power-trace expansions and the orbit representatives from
    ``cache`` and storing the ones it builds there.

    A product of class moments depends only on the histogram of the
    exponents (how many classes carry each exponent), so the integer
    coefficients of E[XY], E[X] and E[Y] are summed exactly per histogram
    and each expectation is one exact sum over a few dozen histograms.

    E[XY] is the sum over monomial pairs of T_ij = c1_i c2_j mu(e1_i + e2_j).
    It is summed over the orbit representatives i of X = Tr X_raw^k1
    alone, each with coefficient c1_i * |orbit|, against every monomial j
    of Y.  This is exact.  A map g of the relabelling group
    (``_relabellings``) sends monomial i of either trace to a monomial g.i
    with coefficient prod_c s_c^e_c times c_i, because it conjugates by an
    orthogonal matrix and so keeps the trace.  It permutes classes, so it
    keeps exponent histograms, moments and odd-exponent signatures, and
    T_(g.i)(g.j) = prod_c s_c^(e1_i + e2_j)_c T_ij.  With vanishing odd
    moments the pairs that are formed have equal signatures, so every
    merged exponent is even and the sign is +1 for every map; for a law
    with odd moments only the sign-free maps are used.  Either way each
    term is invariant, and j -> g.j permutes the monomials of Y, so
    sum_j T_(g.i)j = sum_j T_ij: every row of an orbit contributes what its
    representative does.
    """
    if (k1 + k2) % 2 == 1:
        # one trace is an odd polynomial of an ensemble symmetric under
        # X -> -X conjugation, hence identically zero
        return Fraction(0)
    P1 = _power_expansion(cache, symmetry_class, n, k1, budget)
    P2 = _power_expansion(cache, symmetry_class, n, k2, budget)
    mom = [model.exact_moment(v) for v in range(k1 + k2 + 1)]
    place = _histogram_places(k1 + k2, P1[0].shape[1])

    def expect(P: tuple[np.ndarray, np.ndarray]) -> Fraction:
        acc: dict[int, int] = {}
        _add_grouped(acc, place[P[0]].sum(axis=1), P[1])
        return _histogram_value(acc, place, mom)

    prune = model.odd_moments_vanish(k1 + k2)
    R1 = _orbit_representatives(cache, symmetry_class, n, k1, prune, budget)
    exy = _histogram_value(_cross_histograms(R1, P2, prune, place), place, mom)
    ex, ey = expect(P1), expect(P2)
    h = (k1 + k2) // 2
    return Fraction(symmetry_class.pair_unit**h, (2 * n) ** h) * (exy - ex * ey)


def cov_cheb_moment_oracle(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    mu: int,
    model: EntryModel,
    cache: Optional[dict] = None,
    budget: int = 10**8,
) -> float:
    """Cov(Tr T_m, Tr T_mu) assembled bilinearly from power covariances,
    with the Chebyshev polynomials at the scale of the entry law: the
    rational of ``_cheb_covariance``, rounded to float once.

    ``cache`` keeps the exact power covariances, keyed (j, k) with j <= k,
    the power-trace expansions, keyed ("trace", k), and their orbit
    representatives, keyed ("orbits", k, prune).  Its first use
    records the class, n and entry model under "law", and a call with any
    other raises ValueError.
    """
    if m < 1 or mu < 1:
        raise ValueError("degrees must be >= 1")
    if cache is None:
        cache = {}
    return float(_cheb_covariance(symmetry_class, n, m, mu, model, cache, budget))


def _cheb_covariance(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    mu: int,
    model: EntryModel,
    cache: dict,
    budget: int,
) -> Fraction:
    """``cov_cheb_moment_oracle`` as an exact rational in sigma^2.

    T_m has the parity of m, so c_j != 0 only where m - j is even, and
    every scale factor sigma^(m-j+mu-k) is an integer power of sigma^2.
    """
    if cache.setdefault("law", (symmetry_class, n, model)) != (symmetry_class, n, model):
        raise ValueError("the cache holds another class, n or entry law")
    cm = cheb_coefficients(m, model.sigma).coeffs
    cmu = cheb_coefficients(mu, model.sigma).coeffs
    s2 = Fraction(model.sigma2)
    total = Fraction(0)
    for j in range(1, m + 1):
        if cm[j] == 0:
            continue
        for k in range(1, mu + 1):
            if cmu[k] == 0:
                continue
            key = (min(j, k), max(j, k))
            if key not in cache:
                cache[key] = _power_covariance(
                    symmetry_class, n, key[0], key[1], model, budget, cache
                )
            total += cm[j] * cmu[k] * s2 ** ((m - j + mu - k) // 2) * cache[key]
    return total
