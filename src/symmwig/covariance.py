"""Exact finite-size covariances of trace statistics, and their limits.

The covariance of two power traces expands into a sum over pairs of cyclic
index walks; grouping the walk pairs by which entries coincide reduces the
leading order to one term per dihedral group element.  This module
evaluates the finite-size formula and the closed-form limits exactly, each
one rational in sigma^2 rounded to float once.  The brute-force oracles
that cross-check it live in ``oracles``.

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

from .ensemble import EntryModel, SymmetryClass, _check_size, class_tables
from .patterns import BudgetError, dihedral_group

# not exported: the benchmark workloads still call both oracles through this module
from .oracles import cov_cheb_moment_oracle, cov_traces_config_oracle  # noqa: F401

__all__ = [
    "BudgetError",
    "PerGContribution",
    "CovReport",
    "V_n_exact",
    "V_asymptotic",
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

    m=1 gives 0: Tr W = Tr X1 + Tr(-X1) = 0 in every sample.  m=2 sums
    Var(g^2) k^2 / (2n)^2 over the classes, k the number of off-diagonal
    members of a class: 4 if a < b (n(n-1) classes), 2 in CI's C2(a, a), 0
    in its C1(a, a).  So V_n(2) = Var(g^2) (4(n-1) + [CI]) / n: the finite-n
    variance in DIII, Var(g^2)/n below it in CI.  m>=3 is the leading-order
    dihedral formula m (S + u^m S) (u sigma^2 / 2n)^m, u the pair unit
    (eps of ``_shape_sums``) and S the shift sum of ``_shift_sum``: S for
    each of the m shifts and u^m S for each of the m reflections.
    """
    if m < 1:
        raise ValueError("degrees must be >= 1")
    u, dim = symmetry_class.pair_unit, 2 * n
    if m >= 3:
        shift_sum = _shift_sum(symmetry_class, n, m, budget)
        sums = {"shift": shift_sum, "reflection": u**m * shift_sum}
        scale = (u * Fraction(model.sigma2) / dim) ** m
        return m * (sums["shift"] + sums["reflection"]) * scale, (sums, scale)
    _check_size(symmetry_class, n)
    if m == 1:
        return Fraction(0), None
    off_diagonal = 4 * (n - 1) + (symmetry_class is SymmetryClass.CI)
    return Fraction(off_diagonal, n) * _square_variance(model), None


def V_n_exact(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    model: EntryModel,
    budget: int = 10**8,
) -> float:
    """Finite-size variance coefficient of the degree-m Chebyshev trace:
    the rational of ``_exact_cell``, rounded to float once: 0 at m=1; at
    m=2 the sum over off-diagonal pairs, the finite-n variance in DIII and
    Var(g^2)/n below it in CI; at m >= 3 the leading-order formula at n,
    O(1/n) off the oracles' finite-n variance.
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
