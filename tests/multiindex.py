"""The multi-index layer of the dihedral formula, as literal definitions.

A multi-index is two cyclic walks of index pairs; it is good for a
dihedral element g when its induced partition of the row slots (slots
sharing an entry class) equals the pairing pi_g.  These definitions
enumerate one multi-index at a time.  ``symmwig.covariance._shift_sum``
computes the same good sets over label shapes, and the tests check it
against them and against ``walk_sign_sums``, which enumerates every
row-one index walk.  ``class_of`` is the signed class rule in closed form,
the reference for ``symmwig.ensemble.class_tables``.  ``label_shapes``
lists the label shapes whole, and ``shape_walk_sums`` evaluates every
shape walk with no pruning: the reference for ``_shape_sums``, whose pass
grows the walks slot by slot and whose budget counts them all.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from symmwig.covariance import _member_tables
from symmwig.ensemble import IndexPair, SymmetryClass, class_tables
from symmwig.patterns import BudgetError, DihedralElement


# The signed class rule in closed form, stated apart from the package's
# member rows, which the table tests compare against it: the sign of each
# member relative to the representative, for the off-diagonal classes
# (a < b) and for the two members of a CI diagonal class.
_OFFDIAG_SIGNS = {
    (SymmetryClass.DIII, "C1"): (1, -1, -1, 1),
    (SymmetryClass.DIII, "C2"): (1, -1, 1, -1),
    (SymmetryClass.CI, "C1"): (1, 1, -1, -1),
    (SymmetryClass.CI, "C2"): (1, 1, 1, 1),
}
_DIAG_SIGNS = {"C1": (1, -1), "C2": (1, 1)}


def _offdiag_rank(n: int, a: int, b: int) -> int:
    # position of (a, b), a < b, in lexicographic order over a < b
    return (a - 1) * n - a * (a - 1) // 2 + (b - a - 1)


def class_of(
    symmetry_class: SymmetryClass, n: int, pair: IndexPair
) -> Optional[tuple[int, int]]:
    """(class index, sign relative to representative), or None if the
    entry is forced to zero (DIII skew block diagonals)."""
    p, q = pair
    if not (1 <= p <= 2 * n and 1 <= q <= 2 * n):
        raise ValueError(f"index pair {pair} out of range for dimension {2 * n}")
    r = p - n if p > n else p
    s = q - n if q > n else q
    kind = "C1" if (p > n) == (q > n) else "C2"
    noff = n * (n - 1) // 2
    if r == s:
        if symmetry_class is SymmetryClass.DIII:
            return None
        idx = 2 * noff + (0 if kind == "C1" else n) + (r - 1)
        members = ((r, r), (n + r, n + r)) if kind == "C1" else ((n + r, r), (r, n + r))
        return idx, _DIAG_SIGNS[kind][members.index(pair)]
    a, b = min(r, s), max(r, s)
    idx = (0 if kind == "C1" else noff) + _offdiag_rank(n, a, b)
    if kind == "C1":
        members = ((a, b), (b, a), (n + a, n + b), (n + b, n + a))
    else:
        members = ((n + a, b), (n + b, a), (a, n + b), (b, n + a))
    return idx, _OFFDIAG_SIGNS[(symmetry_class, kind)][members.index(pair)]


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
    budget: int = 10**8,
) -> list[MultiIndex]:
    """Consistent multi-indices whose induced partition equals pi_g.

    Reference enumeration (one MultiIndex at a time); ``_shift_sum``
    recomputes the same set with vectorized bookkeeping.
    """
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
        if ind.blocks == target:
            out.append(P)
    return out


def label_shapes(m: int) -> np.ndarray:
    """Every restricted-growth string of length m, one row each, in
    lexicographic order: row[0] = 0 and row[l] <= 1 + max(row[:l])."""
    rows = np.zeros((1, 1), dtype=np.int64)
    top = np.zeros(1, dtype=np.int64)
    for _ in range(m - 1):
        width = top + 2  # the next label is one of 0..top+1
        parent = np.repeat(np.arange(len(rows)), width)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        rows = np.column_stack([rows[parent], label])
        top = np.maximum(top[parent], label)
    return rows


def _good_pair_signs(cls_id, sign, cols) -> tuple[np.ndarray, np.ndarray]:
    """The good row pairs of the row-one walks whose slot-l indices are
    ``cols[l]``, on the tables ``cls_id, sign``: the validity mask, the
    sign product and the row-two chase of ``_shape_sums``, unpruned.
    Returns each good pair's walk (a position in ``cols``) and sign."""
    m, dim = len(cols), len(cls_id)
    q_by_p, s_by_p, member_p = _member_tables(cls_id, sign)
    q_by_p, s_by_p = q_by_p.ravel(), s_by_p.ravel()
    c = [cls_id[cols[l], cols[(l + 1) % m]] for l in range(m)]
    valid = np.ones(len(cols[0]), dtype=bool)
    for l in range(m):
        valid &= c[l] >= 0
    for l in range(m):
        for l2 in range(l + 1, m):
            valid &= c[l] != c[l2]
    w = np.nonzero(valid)[0]
    cw = [arr[w] for arr in c]
    d = [x.astype(np.int64) * dim for x in cw]  # class rows of the tables
    s1 = np.ones(len(w), dtype=np.int64)
    for l in range(m):
        s1 *= sign[cols[l][w], cols[(l + 1) % m][w]]
    # row two starts at any member of its first class; each start
    # fixes the rest of the row, and only live walks are carried;
    # row-two slot j carries row-one slot j's class
    starts = member_p[cw[0]]
    walk, k = np.nonzero(starts >= 0)
    v0 = starts[walk, k]
    flat = d[0][walk] + v0
    s2 = s1[walk] * s_by_p[flat]
    v = q_by_p[flat]
    for j in range(1, m):
        flat = d[j][walk] + v
        v = q_by_p[flat]
        live = v >= 0
        walk, v0, v, s2 = walk[live], v0[live], v[live], s2[live] * s_by_p[flat[live]]
    closed = v == v0  # cyclic closure of row two
    return w[walk[closed]], s2[closed]


def walk_sign_sums(
    symmetry_class: SymmetryClass,
    n: int,
    m: int,
    budget: int = 10**8,
) -> int:
    """``_shift_sum`` by enumerating all (2n)^(m-1) row-one walks from
    the index 0 on ``class_tables(symmetry_class, n)``, in blocks of 2^13
    walks, and scaling by 2n: the same validity mask, sign product and
    row-two chase, over index walks instead of label shapes."""
    chunk = 1 << 13
    dim = 2 * n
    n_walks = dim ** (m - 1)
    if n_walks > budget:
        raise BudgetError(f"{dim}^{m - 1} row-one walks exceed budget {budget}")
    cls_id, sign = class_tables(symmetry_class, n)
    total = 0
    for lo in range(0, n_walks, chunk):
        rem = np.arange(lo, min(lo + chunk, n_walks))
        cols = [np.zeros(len(rem), dtype=np.int32)]
        for _ in range(m - 1):
            cols.append((rem % dim).astype(np.int32))
            rem //= dim
        total += int(np.sum(_good_pair_signs(cls_id, sign, cols)[1]))
    return dim * total


def shape_walk_sums(symmetry_class: SymmetryClass, m: int) -> tuple[int, ...]:
    """``_shape_sums`` with no pruning: every one of the Bell(m) 2^(m-1)
    shape walks, built whole from ``label_shapes`` and a block bit per slot
    1..m-1, in blocks of 2^13 walks, evaluated on
    ``class_tables(symmetry_class, max(m, 2))``, its good pairs' signs
    summed by the shape's label count k."""
    chunk = 1 << 13
    width = max(m, 2)
    cls_id, sign = class_tables(symmetry_class, width)
    shapes = label_shapes(m)
    n_labels = shapes.max(axis=1) + 1
    n_walks = len(shapes) << (m - 1)
    a = np.zeros(m + 1, dtype=np.int64)
    for lo in range(0, n_walks, chunk):
        t = np.arange(lo, min(lo + chunk, n_walks))
        shape = t >> (m - 1)
        # p_l = label + width * block; bit l - 1 of t is the block of p_l
        cols = [np.zeros(len(t), dtype=np.int64)]
        cols += [shapes[shape, l] + width * ((t >> (l - 1)) & 1) for l in range(1, m)]
        walk, s2 = _good_pair_signs(cls_id, sign, cols)
        np.add.at(a, n_labels[shape[walk]], s2)
    return tuple(int(x) for x in a[1:])
