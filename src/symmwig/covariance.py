"""Exact finite-size covariances of trace statistics, and their limits.

The covariance of two power traces expands into a sum over pairs of cyclic
index walks; grouping the walk pairs by which entries coincide reduces the
leading order to one term per dihedral group element.  This module
evaluates the finite-size formula and the closed-form limits exactly, each
one rational in sigma^2 rounded to float once, and carries two independent
brute-force oracles used to cross-check everything: a configuration oracle
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

The dihedral formula is one integer per cell: every shift has the sign
sum S of shift(0) and every reflection eps^m S (eps = -1 in DIII, +1 in
CI), and one pass with row one starting at index 0 gives S/2n.  That pass
runs over label shapes, not index walks, and gives integers a_1..a_m that
do not depend on n (see ``_shape_sums``).  The start index does not matter
because two index maps act transitively on the 2n indices: relabelling
1..n in both blocks at once, and swapping the blocks (p <-> p +- n).  Both
send equivalence classes to classes of the same kind, up to one sign per
class.
In a good multi-index every row-one occurrence of a class is matched by a
row-two occurrence, so each class occurs an even number of times and those
signs cancel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .chebyshev import _recurrence_traces, _stack_count, cheb_coefficients
from .ensemble import (
    EntryModel,
    SymmetryClass,
    _check_size,
    block_layout,
    class_tables,
)
from .patterns import BudgetError, dihedral_group

__all__ = [
    "BudgetError",
    "PerGContribution",
    "CovReport",
    "V_n_exact",
    "V_asymptotic",
    "cov_traces_config_oracle",
    "cov_traces_moment_oracle",
    "cov_cheb_moment_oracle",
    "cov_report",
]


# -- good-set sign sums by label shapes ------------------------------------------

_PREFIX_CHUNK = 1 << 12  # prefixes one expansion may make; bounds the pass's memory


def _bell(m: int) -> int:
    """The number of set partitions of m slots, by the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _member_tables(cls_id: np.ndarray, sign: np.ndarray):
    """(q, sign) per (class, p), q = -1 off the class, from ``class_tables``
    (a class has at most one member in each row of the matrix), and each
    class's rows p, padded with -1 to four."""
    p, q = np.nonzero(cls_id >= 0)
    c = cls_id[p, q]
    shape = (int(cls_id.max()) + 1, len(cls_id))
    q_by_p = np.full(shape, -1, dtype=np.int32)
    s_by_p = np.zeros(shape, dtype=np.int8)
    q_by_p[c, p] = q
    s_by_p[c, p] = sign[p, q]
    cc, pp = np.nonzero(q_by_p >= 0)  # by class, then row
    member_p = np.full((shape[0], 4), -1, dtype=np.int32)
    member_p[cc, np.arange(len(cc)) - np.searchsorted(cc, cc)] = pp
    return q_by_p, s_by_p, member_p


def _shape_sums(symmetry_class: SymmetryClass, m: int, budget: int) -> tuple[int, ...]:
    """a_1..a_m of the shift sum S(n) = 2n sum_k (n-1)_(k-1) a_k (see
    ``_shift_sum``); they do not depend on n.  S sums the product of all
    member signs over S^good(pi_shift(0)), the multi-indices whose row-one
    slot l shares its class with row-two slot g(l), the m row-one classes
    being distinct.  Every shift has the sum S and every reflection eps^m S,
    with eps = -1 in DIII and +1 in CI, so this one integer is the whole
    dihedral cell.

    Row one starts at the index 0 only, and the sum is scaled by 2n (see
    the module docstring).  Its walks are not enumerated: each is one of
    Bell(m) 2^(m-1) shape walks, relabelled.  Index p carries the label
    p mod n and the block p // n.  A shape is the restricted-growth string
    of the labels of p_0..p_{m-1} (labels numbered by first appearance, so
    p_0 has label 0) together with the blocks of p_1..p_{m-1}; p_0 = 0
    sits in the top block.  Shape walks are evaluated on
    ``class_tables(symmetry_class, max(m, 2))``, and a_k is the sum over
    the shapes with k distinct labels.  The budget counts the Bell(m)
    2^(m-1) shape walks, although the pass evaluates fewer: it grows row
    one from index 0 slot by slot, the next label being one of 0..top+1
    (top the largest label so far) in either block, and drops a prefix as
    soon as its newest slot's class is a forced zero or repeats an earlier
    slot's.  Every completion of such a prefix has that slot too, so it is
    not good and adds nothing: the pruning is exact.  A prefix set whose
    expansion would pass ``_PREFIX_CHUNK`` is split in two first, to bound
    memory.  Each full walk is closed by slot m-1 -> index 0, and the
    row-two chase starts from each of the (at most four) admissible starting
    indices of the first slot's class.  The a_k are integer sums, so the
    order of the walks does not change them.  The pass runs at most once
    per (class, m) in a process, and its a_k serve every n after it; the
    budget is checked on every call, before that cache is read.

    Proof of the shape sum.  The walks of row one from index 0 with a given
    shape are its images under the injective relabellings tau of the k
    shape labels into 0..n-1 with tau(0) = 0, one walk per tau, so the
    shape stands for (n-1)_(k-1) walks.  A relabelling, applied to both
    rows and to both blocks at once, sends the class of the entry at
    labels (r, s) to the class at (tau r, tau s) of the same kind and the
    same block pattern, and every member of a class carries the class's
    two labels.  So it keeps the forced zeros, the distinctness of the
    classes, which row-two slots share a class with which row-one slots,
    and the row-two chase, which only visits the labels of row one: it
    maps the good set of the shape walk on the tables of max(m, 2) labels
    one-to-one onto the good set of its image.  It multiplies the signs of
    each class's members by one common sign (in DIII, -1 where tau reverses
    the order of the class's two labels), and each class occurs an even
    number of times in a good multi-index (see the module docstring), so
    every sign product is kept.

    Proof that odd degrees vanish.  Swap the blocks of row one alone,
    p -> p +- n.  The block form [[X1, X2], [X2, -X1]] keeps every entry's
    class and multiplies its sign by -1 inside a block (X1 and -X1) and by
    +1 across the blocks (X2).  A closed walk crosses between the blocks an
    even number of times, so an odd number of its m slots stays inside a
    block when m is odd: the swap multiplies row one's sign product by
    (-1)^m.  Row two is chased from the classes alone, so the swap maps
    the good pairs with row one from 0 one-to-one onto those with row one
    from n, and their sums are equal by the start-index reduction.  Hence
    S = (-1)^m S, and S = 0 at odd m, with no branch for it.

    Proof of the dihedral reduction.  Let rho_r(l) = l + r (mod m).
    Rotating row one's walk by r, p_l -> p_{l+r}, is a bijection on closed
    walks; it permutes the slots cyclically, so it keeps each slot's class
    and sign, the validity mask, the distinctness of the classes and the
    product of all signs.  Row-one slot l + r shares its class with
    row-two slot g(l + r), so the rotated pair is good for g o rho_r, and
    the rotation maps S^good(pi_g) onto S^good(pi_{g o rho_r}).  Since
    shift(nu) o rho_r = shift(nu + r) and refl(nu) o rho_r = refl(nu + r),
    the full sums agree along each kind, and by the start-index reduction so
    do the sums with row one starting at 0.

    Every class holds the transpose (q, p) of each member (p, q), with the
    member's sign times eps: X_qp = conj X_pq, and the DIII entries are
    imaginary.  Reversing row two, v_j -> v_{m-1-j}, turns its slot j into
    the transpose of slot m - 2 - j (mod m), which has the same class.  So
    it keeps row one, each class's slots in row two up to the reflection
    j -> m - 2 - j, and the cyclic closure of row two: it maps
    S^good(pi_shift(nu)) one-to-one onto S^good(pi_refl(nu + 1)), and it
    multiplies each of the m row-two signs by eps.
    Hence every reflection sum is eps^m times the shift sum, and in DIII at
    odd m the two kinds cancel in the total.
    """
    n_walks = _bell(m) << (m - 1)
    if n_walks > budget:
        raise BudgetError(f"{n_walks} shape walks exceed budget {budget}")
    return _shape_pass(symmetry_class, m)


@functools.lru_cache(maxsize=None)
def _shape_pass(symmetry_class: SymmetryClass, m: int) -> tuple[int, ...]:
    """The pruned pass of ``_shape_sums``, cached per (class, m)."""
    width = max(m, 2)  # labels of the tables; a shape has at most m
    cls_id, sign = class_tables(symmetry_class, width)
    dim = 2 * width
    q_by_p, s_by_p, member_p = _member_tables(cls_id, sign)
    q_by_p, s_by_p = q_by_p.ravel(), s_by_p.ravel()
    a = np.zeros(m + 1, dtype=np.int64)  # a[k]: the sum over shapes with k labels
    # prefixes p_0..p_l of row one, p_0 = 0: the last index p_l, the top
    # label, the classes of slots 0..l-1 and their sign product
    stack = [(np.zeros(1, np.int64), np.zeros(1, np.int64),
              np.zeros((1, 0), cls_id.dtype), np.ones(1, np.int64))]
    while stack:
        prefix = stack.pop()
        last, top, cls, s1 = prefix
        if cls.shape[1] == m - 1:  # close the walk: slot m-1 runs to index 0
            parent = np.arange(len(last))
            label = nxt = np.zeros_like(last)
        else:
            fan = 2 * (top + 2)  # the next label is one of 0..top+1, in either block
            if len(last) > 1 and fan.sum() > _PREFIX_CHUNK:
                h = len(last) // 2
                stack += [tuple(x[h:] for x in prefix), tuple(x[:h] for x in prefix)]
                continue
            parent = np.repeat(np.arange(len(last)), fan)
            j = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
            label = j >> 1
            nxt = label + width * (j & 1)  # p = label + width * block
        src = last[parent]
        c = cls_id[src, nxt]
        keep = c >= 0  # drop forced zeros and repeated classes
        for col in cls.T:
            keep &= col[parent] != c
        idx = np.flatnonzero(keep)
        parent, src, nxt = parent[idx], src[idx], nxt[idx]
        grown = np.column_stack([cls[parent], c[idx]])
        top = np.maximum(top[parent], label[idx])
        s1 = s1[parent] * sign[src, nxt]
        if grown.shape[1] < m:
            stack.append((nxt, top, grown, s1))
            continue
        # row two starts at any member of its first class; each start
        # fixes the rest of the row, and only live walks are carried
        d = grown.T.astype(np.int64) * dim  # class rows of the tables, by slot
        starts = member_p[grown[:, 0]]
        walk, k = np.nonzero(starts >= 0)
        v0 = starts[walk, k]
        flat = d[0][walk] + v0
        s2 = s1[walk] * s_by_p[flat]
        v = q_by_p[flat]
        for j in range(1, m):
            flat = d[j][walk] + v
            v = q_by_p[flat]
            live = v >= 0
            if live.all():  # the usual case after the first few slots
                s2 = s2 * s_by_p[flat]
            else:
                walk, v0, v, s2 = walk[live], v0[live], v[live], s2[live] * s_by_p[flat[live]]
        closed = v == v0  # cyclic closure of row two
        np.add.at(a, top[walk[closed]] + 1, s2[closed])
    return tuple(int(x) for x in a[1:])


def _shift_sum(symmetry_class: SymmetryClass, n: int, m: int, budget: int) -> int:
    """S(n) = 2n sum_k (n-1)_(k-1) a_k from the a_k of ``_shape_sums``: a
    shape with k labels stands for perm(n-1, k-1) walks of row one from 0."""
    _check_size(symmetry_class, n)
    a = _shape_sums(symmetry_class, m, budget)
    return 2 * n * sum(math.perm(n - 1, k) * a_k for k, a_k in enumerate(a))


# -- exact finite-size variance ------------------------------------------------

def _square_variance(model: EntryModel) -> Fraction:
    """Var(g^2) = E g^4 - (E g^2)^2, exactly."""
    return model.exact_moment(4) - model.exact_moment(2) ** 2


def _exact_cell(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    model: EntryModel,
    budget: int,
) -> tuple[Fraction, Optional[tuple[dict[str, int], Fraction]]]:
    """V_n as one rational in sigma^2, and for m >= 3 the sign sum of each
    kind of dihedral element with the scale that values it (else None).

    m=1 sums diagonal second moments, m=2 fourth-moment covariances over
    equivalent off-diagonal pairs, both from the counts and signs of
    ``class_tables``.  m>=3 is the dihedral formula m (S + u^m S)
    (u sigma^2 / 2n)^m, u the pair unit (eps of ``_shape_sums``) and S the
    shift sum of ``_shift_sum``: S for each of the m shifts and u^m S for
    each of the m reflections.
    """
    if m < 1:
        raise ValueError("degrees must be >= 1")
    u, dim = symmetry_class.pair_unit, 2 * n
    if m >= 3:
        shift_sum = _shift_sum(symmetry_class, n, m, budget)
        sums = {"shift": shift_sum, "reflection": u**m * shift_sum}
        scale = (u * Fraction(model.sigma2) / dim) ** m
        return m * (sums["shift"] + sums["reflection"]) * scale, (sums, scale)
    cls_id, sign = class_tables(symmetry_class, n)
    if m == 1:
        # E a_pp a_qq is (sign product) * u * sigma2 when both diagonal
        # entries lie in one class, else 0: a square of per-class sign sums
        diag = np.diagonal(cls_id)
        live = diag >= 0
        per_class = np.bincount(diag[live], weights=np.diagonal(sign)[live])
        return u * int(per_class @ per_class) * Fraction(model.sigma2) / dim, None
    off = cls_id[~np.eye(dim, dtype=bool)]
    ksum = int(np.sum(np.bincount(off[off >= 0]) ** 2))
    return Fraction(ksum, dim**2) * _square_variance(model), None


def V_n_exact(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    model: EntryModel,
    budget: int = 10**8,
) -> float:
    """Finite-size variance coefficient of the degree-m Chebyshev trace:
    the rational of ``_exact_cell``, rounded to float once.  For m >= 3
    this is the leading-order formula evaluated at n, not the finite-n
    variance that the oracles compute; the two differ by O(1/n).
    """
    return float(_exact_cell(symmetry_class, n, m, model, budget)[0])


def V_asymptotic(
    symmetry_class: SymmetryClass, m: int, model: EntryModel
) -> tuple[float, str]:
    """Limiting variance of the degree-m Chebyshev trace, with provenance.

    Returns (value, flag).  flag is "theorem" for the closed-form cases
    (0 for m=1 and odd m, 4m sigma^(2m) for even m >= 4, sigma the scale
    of the entry law) and "derived" for m=2, whose limit is model
    dependent: 4 Var(g^2), validated against the finite-size values and
    the oracles, not quoted from anywhere.  Both are exact rationals in
    sigma^2, rounded once.
    """
    if m < 1:
        raise ValueError("degrees must be >= 1")
    if m == 2:
        return float(4 * _square_variance(model)), "derived"
    if m % 2 == 1:
        return 0.0, "theorem"
    return float(4 * m * Fraction(model.sigma2) ** m), "theorem"


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
    once per sign orbit of configurations.  The weighted sums are taken over
    windows of ``_DOT_WINDOW`` consecutive configurations, in index order,
    and added with ``math.fsum``.

    Sign orbits.  Let D = diag(d, eps d) with d in {+-1}^n, eps = +-1.  D X D
    stays in the ensemble: it multiplies each class by one sign (see
    ``_class_flips``).  Every matrix of the recurrence obeys
    T_k(D X D) = D T_k(X) D, and all terms of entry (i, j) of each product
    carry the same sign d_i d_j.  Round-to-nearest is odd, fl(-x) = -fl(x),
    for fma as well, so the same BLAS kernel on the same shapes returns
    exactly the signed result, and the traces are bitwise equal.  Likewise
    T_k(-X) = (-1)^k T_k(X), bit for bit.  When the atom values are closed
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
    M = max(m, mu)
    scale = layout.unit / math.sqrt(layout.dim)
    draws = np.zeros((len(evaluated), nc))
    draws[:, :L] = values[low[evaluated]]
    x_low = scale * layout.assemble(draws)
    X = np.empty_like(x_low)
    stacks = [np.empty_like(X) for _ in range(_stack_count(M))]
    table = np.empty((2, len(blocks), len(evaluated)))
    for i, r in enumerate(blocks):
        draws = np.zeros(nc)
        draws[L:] = values[high[r]]
        np.add(x_low, scale * layout.assemble(draws), out=X)
        table[:, i] = _recurrence_traces(X, M, model.sigma, stacks)[:, [m - 1, mu - 1]].T
    del x_low, X, stacks  # the sum reads the table alone

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


def cov_traces_moment_oracle(
    symmetry_class: SymmetryClass,
    n: int,
    k1: int,
    k2: int,
    model: EntryModel,
    budget: int = 10**8,
) -> float:
    """Exact Cov(Tr X^k1, Tr X^k2) by factorizing entry products.

    Expands each power trace over cyclic walks, collects the walks into
    class-variable monomials with integer coefficients, and evaluates all
    expectations from the model's exact moments.  Entry laws with vanishing
    odd moments allow cross terms to be pruned by odd-exponent signature.
    The covariance is one rational, rounded to float once.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("powers must be >= 1")
    return float(_power_covariance(symmetry_class, n, k1, k2, model, budget, {}))


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
    """``cov_traces_moment_oracle`` for k1, k2 >= 1 as an exact rational,
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


# -- reporting -------------------------------------------------------------------

@dataclass(frozen=True)
class PerGContribution:
    label: str
    kind: str
    nu: int
    sign_sum: int  # integer good-set sign sum for this element
    value: float   # sign_sum scaled to its share of V_n


@dataclass(frozen=True)
class CovReport:
    symmetry_class: SymmetryClass
    n: int
    m: int
    v_n: float
    v_asymptotic: float
    flag: str
    gap: float
    per_g: tuple[PerGContribution, ...]


def cov_report(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    model: EntryModel,
    budget: int = 10**8,
) -> CovReport:
    """Exact value, limit, gap, and (for m >= 3) the per-element split.

    For m >= 3 one pass over label shapes gives the shift sum S; the 2m rows
    carry S for every shift and eps^m S for every reflection, each valued
    as one rational rounded once, and v_n is the value of their total, as
    in ``V_n_exact``.  The limit is ``V_asymptotic`` of the same entry law.
    """
    total, dihedral = _exact_cell(symmetry_class, n, m, model, budget)
    v_n = float(total)
    per_g: tuple[PerGContribution, ...] = ()
    if dihedral is not None:
        sums, scale = dihedral
        per_g = tuple(
            PerGContribution(str(g), g.kind, g.nu, sums[g.kind], float(sums[g.kind] * scale))
            for g in dihedral_group(m)
        )
    v_inf, flag = V_asymptotic(symmetry_class, m, model)
    return CovReport(
        symmetry_class=symmetry_class,
        n=n,
        m=m,
        v_n=v_n,
        v_asymptotic=v_inf,
        flag=flag,
        gap=abs(v_n - v_inf),
        per_g=per_g,
    )
