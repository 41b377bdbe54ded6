"""Exact finite-size covariances of trace statistics, and their limits.

The covariance of two power traces expands into a sum over pairs of cyclic
index walks; grouping the walk pairs by which entries coincide reduces the
leading order to one term per dihedral group element.  This module
evaluates the finite-size formula exactly (integer sign bookkeeping, one
float rounding at the end), provides the closed-form limits, and carries
two independent brute-force oracles used to cross-check everything:
a configuration oracle for finite-support entry laws and a moment oracle
that factorizes entry products over equivalence classes.

The configuration oracle splits the configuration index into low digits,
whose matrices are built once, and high digits, one matrix per value added
to the whole low block.  The moment oracle expands each power trace over
rotation classes of walks and sums the integer coefficients of its cross
terms by exponent histogram, so that each expectation is one exact sum
over a few dozen histograms, rounded once.

One enumeration pass serves every dihedral element: row one's walks start
at index 0 only, and the sign sums are multiplied by 2n.  The start index
does not matter because two index maps act transitively on the 2n
indices: relabelling 1..n in both blocks at once, and swapping the blocks
(p <-> p +- n).  Both send equivalence classes to classes of the same
kind, up to one sign per class.  In a good multi-index every row-one
occurrence of a class is matched by a row-two occurrence, so each class
occurs an even number of times and those signs cancel, in both partition
modes.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .chebyshev import _recurrence_traces, _stack_count, cheb_coefficients
from .ensemble import (
    BlockLayout,
    EntryModel,
    IndexPair,
    SymmetryClass,
    block_layout,
    build_equivalence_classes,
    class_of,
    class_tables,
)
from .patterns import BudgetError, DihedralElement, dihedral_group

__all__ = [
    "BudgetError",
    "MultiIndex",
    "InducedPartition",
    "PerGContribution",
    "CovReport",
    "enumerate_consistent_multiindices",
    "induced_partition",
    "good_multiindices",
    "V_n_exact",
    "V_asymptotic",
    "cov_traces_config_oracle",
    "cov_traces_moment_oracle",
    "cov_cheb_moment_oracle",
    "cov_report",
]

PARTITION_MODES = ("equality", "compatible")


@dataclass(frozen=True)
class MultiIndex:
    """Two cyclically consistent rows of index pairs.

    Row i is ((p_1,p_2), (p_2,p_3), ..., (p_{k_i},p_1)): the second
    coordinate of each pair feeds the first coordinate of the next, so a
    row is determined by its p-sequence.
    """

    k1: int
    k2: int
    rows: tuple[tuple[IndexPair, ...], tuple[IndexPair, ...]]

    def __post_init__(self) -> None:
        if (self.k1, self.k2) != (len(self.rows[0]), len(self.rows[1])):
            raise ValueError("row lengths disagree with k1, k2")
        for row in self.rows:
            k = len(row)
            for l in range(k):
                if row[l][1] != row[(l + 1) % k][0]:
                    raise ValueError(f"row {row} is not cyclically consistent")

    @classmethod
    def from_p_sequences(cls, p1: tuple[int, ...], p2: tuple[int, ...]) -> "MultiIndex":
        row1 = tuple((p1[l], p1[(l + 1) % len(p1)]) for l in range(len(p1)))
        row2 = tuple((p2[l], p2[(l + 1) % len(p2)]) for l in range(len(p2)))
        return cls(len(p1), len(p2), (row1, row2))


@dataclass(frozen=True)
class InducedPartition:
    """Partition of the row-slot labels (i, l) by entry equivalence."""

    blocks: frozenset[frozenset[tuple[int, int]]]

    def refines_into(self, other: frozenset[frozenset[tuple[int, int]]]) -> bool:
        """Whether every block of ``other`` sits inside one block of self."""
        where = {}
        for b in self.blocks:
            for lab in b:
                where[lab] = b
        return all(len({where[lab] for lab in blk}) == 1 for blk in other)


def enumerate_consistent_multiindices(
    dim: int, k1: int, k2: int, budget: int = 10**8
) -> Iterator[MultiIndex]:
    """All dim^k1 * dim^k2 consistent row pairs on indices 1..dim."""
    if k1 < 1 or k2 < 1:
        raise ValueError("row lengths must be positive")
    count = dim ** (k1 + k2)
    if count > budget:
        raise BudgetError(f"{count} multi-indices exceed budget {budget}")
    rng = range(1, dim + 1)
    for p1 in itertools.product(rng, repeat=k1):
        for p2 in itertools.product(rng, repeat=k2):
            yield MultiIndex.from_p_sequences(p1, p2)


def induced_partition(
    P: MultiIndex, symmetry_class: SymmetryClass, n: int
) -> InducedPartition:
    """Group the slots (i, l) whose index pairs share an entry class.

    Raises ValueError if any slot meets a forced zero entry (those
    multi-indices contribute nothing and have no induced partition).
    """
    by_class: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for i, row in enumerate(P.rows, start=1):
        for l, pair in enumerate(row, start=1):
            hit = class_of(symmetry_class, n, pair)
            if hit is None:
                raise ValueError(f"slot ({i},{l}) meets a forced zero entry {pair}")
            by_class[hit[0]].add((i, l))
    return InducedPartition(frozenset(frozenset(v) for v in by_class.values()))


def good_multiindices(
    g: DihedralElement,
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    partition_mode: str = "equality",
    budget: int = 10**8,
) -> list[MultiIndex]:
    """Consistent multi-indices whose induced partition matches pi_g.

    Reference enumeration (one MultiIndex at a time); the exact-variance
    path below recomputes the same set with vectorized bookkeeping.  In
    "equality" mode the induced partition must equal pi_g exactly; in
    "compatible" mode it may merge additional slots on top of pi_g.
    """
    if partition_mode not in PARTITION_MODES:
        raise ValueError(f"partition_mode must be one of {PARTITION_MODES}")
    if g.m != m:
        raise ValueError("group element length disagrees with m")
    target = frozenset(
        frozenset({(1, l), (2, g(l))}) for l in range(1, m + 1)
    )
    out = []
    for P in enumerate_consistent_multiindices(2 * n, m, m, budget=budget):
        try:
            ind = induced_partition(P, symmetry_class, n)
        except ValueError:
            continue
        if partition_mode == "equality":
            if ind.blocks == target:
                out.append(P)
        elif ind.refines_into(target):
            out.append(P)
    return out


# -- vectorized good-set sign sums --------------------------------------------

_WALK_CHUNK = 1 << 13  # row-one walks per block; bounds the pass's memory


def _member_tables(symmetry_class: SymmetryClass, n: int):
    """Per-class lookup keyed by first index: a class has at most one
    member in each row of the matrix, so (class, p) determines (q, sign)."""
    classes = build_equivalence_classes(symmetry_class, n)
    dim = 2 * n
    C = len(classes)
    q_by_p = np.zeros((C, dim), dtype=np.int32)
    s_by_p = np.zeros((C, dim), dtype=np.int8)
    ok_by_p = np.zeros((C, dim), dtype=bool)
    member_p = np.full((C, 4), -1, dtype=np.int32)
    for c in classes:
        for k, ((p, q), s) in enumerate(zip(c.members, c.signs)):
            q_by_p[c.index, p - 1] = q - 1
            s_by_p[c.index, p - 1] = s
            ok_by_p[c.index, p - 1] = True
            member_p[c.index, k] = p - 1
    return q_by_p, s_by_p, ok_by_p, member_p


def _good_sign_sums(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    partition_mode: str = "equality",
    budget: int = 10**8,
) -> dict[DihedralElement, int]:
    """Integer sum over S^good(pi_g) of the product of all member signs,
    for every dihedral element g at once.

    Row one's index walks are enumerated in bulk from the start index 0
    only, and the sums are scaled by 2n (see the module docstring).  The
    walks, their classes, the validity mask and the row-one sign products
    are built once, in blocks of ``_WALK_CHUNK`` walks to bound memory.
    The row-two chase runs from each of the (at most four) admissible
    starting indices of the first slot's class, for shift(0) and refl(0)
    only: every shift has the sum of shift(0), and every reflection that
    of refl(0).

    Proof.  Let rho_r(l) = l + r (mod m).  Rotating row one's walk by r,
    p_l -> p_{l+r}, is a bijection on closed walks; it permutes the slots
    cyclically, so it keeps each slot's class and sign, the validity mask,
    the distinctness of the classes and the product of all signs.  Row-one
    slot l + r shares its class with row-two slot g(l + r), so the rotated
    pair is good for g o rho_r, and the rotation maps S^good(pi_g) onto
    S^good(pi_{g o rho_r}) in both partition modes.  Since
    shift(nu) o rho_r = shift(nu + r) and refl(nu) o rho_r = refl(nu + r),
    the full sums agree along each kind, and by the start-index reduction
    so do the sums with row one starting at 0.
    """
    if partition_mode not in PARTITION_MODES:
        raise ValueError(f"partition_mode must be one of {PARTITION_MODES}")
    dim = 2 * n
    if dim**m > budget:
        raise BudgetError(f"{dim}^{m} first-row walks exceed budget {budget}")
    cls_id, sign = class_tables(symmetry_class, n)
    q_by_p, s_by_p, ok_by_p, member_p = _member_tables(symmetry_class, n)
    q_by_p, s_by_p, ok_by_p = q_by_p.ravel(), s_by_p.ravel(), ok_by_p.ravel()
    group = dihedral_group(m)
    sums = {"shift": 0, "reflection": 0}
    n_walks = dim ** (m - 1)
    for lo in range(0, n_walks, _WALK_CHUNK):
        rem = np.arange(lo, min(lo + _WALK_CHUNK, n_walks))
        cols = [np.zeros(len(rem), dtype=np.int32)]
        for _ in range(m - 1):
            cols.append((rem % dim).astype(np.int32))
            rem //= dim
        c = [cls_id[cols[l], cols[(l + 1) % m]] for l in range(m)]
        valid = np.ones(len(rem), dtype=bool)
        for l in range(m):
            valid &= c[l] >= 0
        if partition_mode == "equality":
            for l in range(m):
                for l2 in range(l + 1, m):
                    valid &= c[l] != c[l2]
        w = np.nonzero(valid)[0]
        cw = [arr[w] for arr in c]
        offset = [x.astype(np.int64) * dim for x in cw]  # class rows of the tables
        s1 = np.ones(len(w), dtype=np.int64)
        for l in range(m):
            s1 *= sign[cols[l][w], cols[(l + 1) % m][w]]
        for g in (group[0], group[m]):  # shift(0), refl(0)
            # slot j of row two carries the class of row-one slot g^{-1}(j)
            ginv = [l - 1 for l in g.inverse_perm()]
            d = [offset[l] for l in ginv]
            # row two starts at any member of its first class; each start
            # fixes the rest of the row, and only live walks are carried
            starts = member_p[cw[ginv[0]]]
            walk, k = np.nonzero(starts >= 0)
            v0 = starts[walk, k]
            flat = d[0][walk] + v0
            s2 = s1[walk] * s_by_p[flat]
            v = q_by_p[flat]
            for j in range(1, m):
                flat = d[j][walk] + v
                live = ok_by_p[flat]
                walk, v0, flat, s2 = walk[live], v0[live], flat[live], s2[live]
                s2 = s2 * s_by_p[flat]
                v = q_by_p[flat]
            sums[g.kind] += int(np.sum(s2[v == v0]))  # cyclic closure of row two
    return {g: dim * sums[g.kind] for g in group}


# -- exact finite-size variance ------------------------------------------------

def _pair_moment_unit(symmetry_class: SymmetryClass) -> int:
    # E a(P) a(Q) within one class is (sign product) * unit * E g^2;
    # the DIII representative entry is i*g, so the unit is i^2 = -1.
    return -1 if symmetry_class is SymmetryClass.DIII else 1


def _dihedral_value(
    symmetry_class: SymmetryClass, n: int, m: int, model: EntryModel, sign_sum: int
) -> float:
    """A good-set sign sum scaled to its share of V_n, rounded once."""
    unit = _pair_moment_unit(symmetry_class)
    return float(Fraction(sign_sum * unit**m, (2 * n) ** m)) * model.sigma2**m


def V_n_exact(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    model: EntryModel,
    partition_mode: str = "equality",
    budget: int = 10**8,
) -> float:
    """Finite-size variance coefficient of the degree-m Chebyshev trace.

    m=1 sums diagonal second moments directly, m=2 sums fourth-moment
    covariances over equivalent off-diagonal pairs, and m>=3 evaluates the
    dihedral good-set formula with integer sign arithmetic, rounding to
    float once at the end.  For m >= 3 this is the leading-order formula
    evaluated at n, not the finite-n variance that the oracles compute;
    the two differ by O(1/n).  One pass with row one starting at index 0
    gives the sign sums of all 2m elements: every start index contributes
    the same, by the relabelling and block-swap symmetry described in the
    module docstring.
    """
    if partition_mode not in PARTITION_MODES:
        raise ValueError(f"partition_mode must be one of {PARTITION_MODES}")
    if m < 1:
        raise ValueError("m must be positive")
    dim = 2 * n
    if m == 1:
        unit = _pair_moment_unit(symmetry_class)
        acc = 0
        for p in range(1, dim + 1):
            hp = class_of(symmetry_class, n, (p, p))
            if hp is None:
                continue
            for q in range(1, dim + 1):
                hq = class_of(symmetry_class, n, (q, q))
                if hq is not None and hq[0] == hp[0]:
                    acc += hp[1] * hq[1] * unit
        return float(acc) * model.sigma2 / dim
    if m == 2:
        var4 = model.moment(4) - model.sigma2**2
        ksum = sum(
            sum(1 for (p, q) in c.members if p != q) ** 2
            for c in build_equivalence_classes(symmetry_class, n)
        )
        return float(Fraction(ksum, dim**2)) * var4
    sums = _good_sign_sums(symmetry_class, n, m, partition_mode, budget)
    return _dihedral_value(symmetry_class, n, m, model, sum(sums.values()))


def V_asymptotic(
    symmetry_class: SymmetryClass,
    m: int,
    sigma: float = 1.0,
    model: Optional[EntryModel] = None,
) -> tuple[float, str]:
    """Limiting variance of the degree-m Chebyshev trace, with provenance.

    Returns (value, flag).  flag is "theorem" for the closed-form cases
    (0 for m=1 and odd m, 4m sigma^(2m) for even m >= 4) and "derived" for
    m=2, whose limit is model dependent: 4 Var(g^2), validated against the
    finite-size values and the oracles, not quoted from anywhere.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 2:
        if model is None:
            raise ValueError("the m=2 limit depends on the entry model")
        if abs(model.sigma2 - sigma**2) > 1e-12 * max(1.0, sigma**2):
            raise ValueError("sigma disagrees with the model's second moment")
        return 4.0 * (model.moment(4) - model.sigma2**2), "derived"
    if m % 2 == 1:
        return 0.0, "theorem"
    return 4.0 * m * float(sigma) ** (2 * m), "theorem"


# -- configuration oracle ------------------------------------------------------

_DOT_WINDOW = 1 << 13  # configurations per partial dot product
_LOW_BLOCK = 1 << 9  # at most this many low-digit configurations


def _config_blocks(
    layout: BlockLayout, atoms: tuple[tuple[float, float], ...]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Scaled matrices and weights of every configuration, in index order.

    Configuration i gives class c the atom of digit (i // A^c) % A.  The
    first L classes, with A^L <= ``_LOW_BLOCK``, are the low digits: their
    A^L matrices and weights are built once.  Each block is one value of
    the high digits, the low block plus that value's matrix, which is exact
    up to the sign of zero because every entry belongs to one class.  The
    matrices of a block share one buffer, overwritten by the next block.
    """
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    A, nc = len(atoms), layout.n_classes
    scale = layout.unit / math.sqrt(layout.dim)
    L = 0
    while L < nc and A ** (L + 1) <= _LOW_BLOCK:
        L += 1

    def digits(count: int, width: int) -> np.ndarray:
        return np.arange(count)[:, None] // A ** np.arange(width) % A

    low = digits(A**L, L)
    draws = np.zeros((len(low), nc))
    draws[:, :L] = values[low]
    x_low = scale * layout.assemble(draws)
    w_low = probs[low].prod(axis=1)
    buf = np.empty_like(x_low)
    for high in digits(A ** (nc - L), nc - L):
        draws = np.zeros(nc)
        draws[L:] = values[high]
        np.add(x_low, scale * layout.assemble(draws), out=buf)
        yield buf, w_low * probs[high].prod()


def cov_traces_config_oracle(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    mu: int,
    model: EntryModel,
    sigma: Optional[float] = None,
    budget: int = 10**7,
) -> float:
    """Exact Cov(Tr T_m, Tr T_mu) for finite-support entry laws.

    Enumerates every joint assignment of the class variables, weights each
    configuration by its product probability, and evaluates both traces by
    the literal matrix recurrence.  The configurations come from
    ``_config_blocks``, a precomputed low-digit block plus one matrix per
    value of the high digits; the weighted sums are taken over windows of
    ``_DOT_WINDOW`` consecutive configurations and added with ``math.fsum``.
    """
    atoms = model.finite_support
    if atoms is None:
        raise ValueError("configuration oracle needs a finite-support model")
    if m < 1 or mu < 1:
        raise ValueError("degrees must be >= 1")
    if sigma is None:
        sigma = model.sigma
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    layout = block_layout(symmetry_class, n)
    nc = layout.n_classes
    A = len(atoms)
    if A**nc > budget:
        raise BudgetError(f"{A}^{nc} configurations exceed budget {budget}")

    M = max(m, mu)
    stacks: list = []  # the recurrence's stacks, shared by every block
    tx, ty, w = (np.empty(_DOT_WINDOW) for _ in range(3))
    sx, sy, sxy = [], [], []

    def add_window(size: int) -> None:
        x, y, p = tx[:size], ty[:size], w[:size]
        sx.append(float(np.dot(p, x)))
        sy.append(float(np.dot(p, y)))
        sxy.append(float(np.dot(p, x * y)))

    fill = 0
    for X, wb in _config_blocks(layout, atoms):
        if not stacks:
            stacks = [np.empty_like(X) for _ in range(_stack_count(M))]
        t = _recurrence_traces(X, M, sigma, stacks)
        pos = 0
        while pos < len(wb):
            take = min(len(wb) - pos, _DOT_WINDOW - fill)
            tx[fill : fill + take] = t[pos : pos + take, m - 1]
            ty[fill : fill + take] = t[pos : pos + take, mu - 1]
            w[fill : fill + take] = wb[pos : pos + take]
            fill += take
            pos += take
            if fill == _DOT_WINDOW:
                add_window(fill)
                fill = 0
    if fill:
        add_window(fill)
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
    and each sum is multiplied by k/L at the end, exactly.
    """
    dim = 2 * n
    if dim**k > budget:
        raise BudgetError(f"{dim}^{k} walks exceed budget {budget}")
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
        # sort each walk's classes with a bubble network over the rows
        for top in range(k - 1, 0, -1):
            for l in range(top):
                least = np.minimum(c[l], c[l + 1])
                np.maximum(c[l], c[l + 1], out=c[l + 1])
                c[l] = least
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
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("powers must be >= 1")
    return _power_covariance(symmetry_class, n, k1, k2, model, budget, {})


def _power_expansion(
    cache: dict, symmetry_class: SymmetryClass, n: int, k: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_power_trace_monomials``, kept in ``cache`` under ("trace", k)."""
    key = ("trace", k)
    if key not in cache:
        cache[key] = _power_trace_monomials(symmetry_class, n, k, budget)
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


def _histogram_value(acc: dict[int, int], place: np.ndarray, mom: list[float]) -> float:
    """sum over codes of acc[code] * prod_v mom[v]^(count at v), exactly,
    rounded once."""
    total = Fraction(0)
    for code, coef in acc.items():
        term = Fraction(coef)
        for v in range(len(place) - 1, 0, -1):  # most significant digit first
            count, code = divmod(code, int(place[v]))
            if count:
                term *= Fraction(mom[v]) ** count
        total += term
    return float(total)


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
    block = max(1, min(_PAIR_BLOCK, (2**63 - 1) // bound))
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
) -> float:
    """``cov_traces_moment_oracle`` for k1, k2 >= 1, taking the power-trace
    expansions from ``cache`` and storing the ones it builds there.

    A product of class moments depends only on the histogram of the
    exponents (how many classes carry each exponent), so the integer
    coefficients of E[XY], E[X] and E[Y] are summed exactly per histogram,
    and each expectation is one exact sum over a few dozen histograms,
    rounded once.
    """
    if (k1 + k2) % 2 == 1:
        # one trace is an odd polynomial of an ensemble symmetric under
        # X -> -X conjugation, hence identically zero
        return 0.0
    P1 = _power_expansion(cache, symmetry_class, n, k1, budget)
    P2 = _power_expansion(cache, symmetry_class, n, k2, budget)
    mom = [model.moment(v) for v in range(k1 + k2 + 1)]
    place = _histogram_places(k1 + k2, P1[0].shape[1])

    def expect(P: tuple[np.ndarray, np.ndarray]) -> float:
        acc: dict[int, int] = {}
        _add_grouped(acc, place[P[0]].sum(axis=1), P[1])
        return _histogram_value(acc, place, mom)

    prune = model.odd_moments_vanish(k1 + k2)
    exy = _histogram_value(_cross_histograms(P1, P2, prune, place), place, mom)
    ex, ey = expect(P1), expect(P2)
    if symmetry_class is SymmetryClass.DIII:
        unit = (-1.0) ** ((k1 + k2) // 2)
    else:
        unit = 1.0
    norm = float(2 * n) ** (-(k1 + k2) // 2)
    return unit * norm * (exy - ex * ey)


def cov_cheb_moment_oracle(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    mu: int,
    model: EntryModel,
    sigma: Optional[float] = None,
    cache: Optional[dict] = None,
    budget: int = 10**8,
) -> float:
    """Cov(Tr T_m, Tr T_mu) assembled bilinearly from power covariances.

    ``cache`` keeps the power covariances, keyed (j, k) with j <= k, and
    the power-trace expansions, keyed ("trace", k); share one cache only
    between calls with the same class, n and entry model.
    """
    if sigma is None:
        sigma = model.sigma
    if cache is None:
        cache = {}
    cm = cheb_coefficients(m, sigma).coeffs
    cmu = cheb_coefficients(mu, sigma).coeffs
    terms = []
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
            terms.append(cm[j] * cmu[k] * sigma ** (m - j + mu - k) * cache[key])
    return math.fsum(terms)


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
    partition_mode: str = "equality",
    budget: int = 10**8,
) -> CovReport:
    """Exact value, limit, gap, and (for m >= 3) the per-element split.

    For m >= 3 one enumeration pass gives every per-element sign sum, and
    v_n is the value of their total.
    """
    per_g: list[PerGContribution] = []
    if m < 3:
        v_n = V_n_exact(symmetry_class, n, m, model, partition_mode, budget)
    else:
        sums = _good_sign_sums(symmetry_class, n, m, partition_mode, budget)
        v_n = _dihedral_value(symmetry_class, n, m, model, sum(sums.values()))
        dim = 2 * n
        unit = _pair_moment_unit(symmetry_class)
        for g, ssum in sums.items():
            val = _dihedral_value(symmetry_class, n, m, model, ssum)
            per_g.append(PerGContribution(str(g), g.kind, g.nu, ssum, val))
        # integer-level consistency with the reported total
        total = sum(t.sign_sum for t in per_g)
        assert (
            float(Fraction(total * unit**m, dim**m)) * model.sigma2**m == v_n
        )
    v_inf, flag = V_asymptotic(symmetry_class, m, model.sigma, model)
    return CovReport(
        symmetry_class=symmetry_class,
        n=n,
        m=m,
        v_n=v_n,
        v_asymptotic=v_inf,
        flag=flag,
        gap=abs(v_n - v_inf),
        per_g=tuple(per_g),
    )
