"""Block digits, domino chains and dihedral signs.

The covariance of two Chebyshev traces reduces, at leading order, to one
term per element of the dihedral group acting on a cyclic alignment of
length m (``dihedral_group``).  This module carries their digit bookkeeping.

Each position of an aligned pair of index walks carries a 2x2 binary
block digit (alpha, beta / gamma, delta): which half of the index range
each of its four indices lies in.  Only the eight digits with even entry
sum are admissible (``DELTA_ALPHABET``).  Consecutive digits chain
cyclically under one of two domino conditions (``CONDITIONS``): forward
for shifts, where the second column feeds the next first column, and
reverse for reflections, where the top row chains forward and the bottom
row backward.  ``enumerate_delta_sequences`` lists the chains, optionally
restricted by one of ``FILTERS``, and ``complete_reflection_sequence``
rebuilds a reverse chain from its first digit and free top-row bits.

The leading-order weight of a dihedral element is the sum over its chains
of the product of per-digit signs (``delta_sign``), which depend on the
symmetry class and the chaining condition.  ``per_g_leading_term``
evaluates it and checks it against its closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .ensemble import SymmetryClass


class BudgetError(Exception):
    """An exact enumeration would exceed its configured size budget."""


class DeltaMatrix(NamedTuple):
    """2x2 binary matrix (alpha, beta / gamma, delta), read row-major."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    @classmethod
    def from_string(cls, text: str) -> "DeltaMatrix":
        """Parse compact "ab/cd" notation, e.g. "01/10"."""
        parts = text.strip().split("/")
        digits = "".join(parts)
        if len(parts) != 2 or any(len(p) != 2 for p in parts) or set(digits) - set("01"):
            raise ValueError(f"expected 'ab/cd' with binary digits, got {text!r}")
        return cls(*map(int, digits))

    def __str__(self) -> str:
        return f"{self.alpha}{self.beta}/{self.gamma}{self.delta}"

    @property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.alpha, self.beta), (self.gamma, self.delta)


#: The eight admissible block digits: entry sum even.
DELTA_ALPHABET: tuple[DeltaMatrix, ...] = tuple(
    DeltaMatrix(*bits)
    for bits in itertools.product((0, 1), repeat=4)
    if sum(bits) % 2 == 0
)


# -- dihedral group ----------------------------------------------------------

@dataclass(frozen=True)
class DihedralElement:
    """One of the 2m symmetries of a cyclic alignment of length m.

    perm is the 1-based image tuple: perm[l-1] = g(l).  Shifts rotate the
    second row against the first; reflections reverse it first.
    """

    m: int
    kind: str  # "shift" | "reflection"
    nu: int
    perm: tuple[int, ...]

    def __call__(self, l: int) -> int:
        return self.perm[l - 1]

    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * self.m
        for l, img in enumerate(self.perm, start=1):
            inv[img - 1] = l
        return tuple(inv)

    def __str__(self) -> str:
        tag = "shift" if self.kind == "shift" else "refl"
        return f"{tag}({self.nu})"


def _shift_perm(m: int, nu: int) -> tuple[int, ...]:
    return tuple(1 + (l - 1 + nu) % m for l in range(1, m + 1))


def _reflection_perm(m: int, nu: int) -> tuple[int, ...]:
    # tau(l) = m + 1 - l composed after the shift by nu
    return tuple(m - (l - 1 + nu) % m for l in range(1, m + 1))


def dihedral_group(m: int) -> list[DihedralElement]:
    """All 2m elements: m shifts then m reflections, by offset.

    Requires m >= 3; smaller m degenerates (the group is no longer faithful
    on alignments and the leading-term bookkeeping below does not apply).
    """
    if m < 3:
        raise ValueError(f"dihedral calculus needs m >= 3, got {m}")
    group = [DihedralElement(m, "shift", nu, _shift_perm(m, nu))
             for nu in range(m)]
    group += [DihedralElement(m, "reflection", nu, _reflection_perm(m, nu))
              for nu in range(m)]
    return group


# -- domino chaining ---------------------------------------------------------

#: Domino chaining conditions: forward for shifts, reverse for reflections.
CONDITIONS = ("forward", "reverse")
_FORWARD, _REVERSE = CONDITIONS


def _domino_ok(prev: DeltaMatrix, cur: DeltaMatrix, mode: str) -> bool:
    if mode == _FORWARD:
        # second column feeds the next first column
        return (prev.beta, prev.delta) == (cur.alpha, cur.gamma)
    if mode == _REVERSE:
        # top row chains forward, bottom row chains backward
        return cur.alpha == prev.beta and cur.delta == prev.gamma
    raise ValueError(f"unknown domino mode {mode!r}")


def check_domino(deltas: Sequence[DeltaMatrix], mode: str) -> bool:
    """Whether the digit sequence chains cyclically under the given mode."""
    m = len(deltas)
    if m == 0:
        raise ValueError("empty digit sequence")
    return all(_domino_ok(deltas[l], deltas[(l + 1) % m], mode)
               for l in range(m))


# -- digit sequence enumeration ----------------------------------------------

#: Named restrictions of ``enumerate_delta_sequences``.
FILTERS = ("all", "identical-rows", "identical-rows-alpha1", "tau-realizable")


def _passes_filter(seq: tuple[DeltaMatrix, ...], name: str) -> bool:
    if name == "all":
        return True
    if name == "identical-rows":
        return all(d.rows[0] == d.rows[1] for d in seq)
    if name == "identical-rows-alpha1":
        return (seq[0].alpha == 1
                and all(d.rows[0] == d.rows[1] for d in seq))
    if name == "tau-realizable":
        bits = [seq[0].alpha, seq[0].beta] + [d.beta for d in seq[1:-1]]
        rebuilt = complete_reflection_sequence(seq[0], tuple(bits[2:]),
                                               len(seq))
        return rebuilt == seq
    raise ValueError(f"unknown filter {name!r}; expected one of {FILTERS}")


def enumerate_delta_sequences(
    m: int,
    condition: str,
    filter_name: Optional[str] = None,
    first_delta: Optional[DeltaMatrix] = None,
) -> tuple[list[tuple[DeltaMatrix, ...]], int]:
    """All cyclic digit sequences of length m chaining under ``condition``.

    condition is "forward" or "reverse".  filter_name optionally restricts
    to named families (identical rows, identical rows with leading alpha=1,
    or reflection realizability); first_delta pins the first digit.  Returns
    (sequences, count).
    """
    if m < 1:
        raise ValueError("sequence length must be positive")
    if m > 16:
        raise BudgetError(f"2^(m+1) sequences at m={m} exceeds budget")
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be forward or reverse, "
                         f"got {condition!r}")
    name = filter_name or "all"
    if name == "tau-realizable" and (condition != _REVERSE or m < 3):
        raise ValueError(f"tau-realizable needs reverse chains of m >= 3, got {condition}, m={m}")

    starts = [first_delta] if first_delta is not None else list(DELTA_ALPHABET)
    out: list[tuple[DeltaMatrix, ...]] = []
    for head in starts:
        if head not in DELTA_ALPHABET:
            raise ValueError(f"{head} is not an admissible digit")
        stack = [(head,)]
        while stack:
            seq = stack.pop()
            if len(seq) == m:
                if _domino_ok(seq[-1], seq[0], condition):
                    out.append(seq)
                continue
            for nxt in DELTA_ALPHABET:
                if _domino_ok(seq[-1], nxt, condition):
                    stack.append(seq + (nxt,))
    out = [seq for seq in out if _passes_filter(seq, name)]
    out.sort()
    return out, len(out)


def complete_reflection_sequence(
    delta1: DeltaMatrix,
    upper_bits: Sequence[int],
    m: int,
) -> tuple[DeltaMatrix, ...]:
    """The unique reverse-chaining completion of delta1 by free top-row bits.

    The top rows of a reverse chain trace a single cyclic bit walk s, and the
    bottom rows trace a second walk t read through the reversal l -> m+1-l.
    delta1 pins s_1, s_2, t_m, t_1; the m-2 entries of ``upper_bits`` supply
    s_3..s_m; each remaining t bit is then forced right to left by the even
    entry-sum requirement, and the final evenness constraint holds
    automatically by parity.  The recombined walk matrices
    (s_l, s_{l+1} / t_l, t_{l+1}) always chain forward, though they need not
    themselves have even sum.
    """
    if m < 3:
        raise ValueError(f"reflection completion needs m >= 3, got {m}")
    if delta1 not in DELTA_ALPHABET:
        raise ValueError(f"{delta1} is not an admissible digit")
    if len(upper_bits) != m - 2:
        raise ValueError(f"need exactly {m - 2} free bits, got "
                         f"{len(upper_bits)}")
    if any(b not in (0, 1) for b in upper_bits):
        raise ValueError("free bits must be 0 or 1")

    s = [delta1.alpha, delta1.beta] + list(upper_bits)  # s[i] = s_{i+1}
    t = [None] * m
    t[0] = delta1.delta
    t[m - 1] = delta1.gamma
    for j in range(m - 1, 1, -1):  # fill t_j for j = m-1 .. 2
        l = m + 1 - j
        t[j - 1] = (s[l - 1] + s[l % m] + t[j % m]) % 2

    # closing evenness constraint is implied by the others
    assert (s[m - 1] + s[0] + t[0] + t[1]) % 2 == 0

    seq = []
    for l in range(1, m + 1):
        tau_l = m + 1 - l
        d = DeltaMatrix(s[l - 1], s[l % m],
                        t[tau_l - 1], t[tau_l % m])
        seq.append(d)
    result = tuple(seq)
    assert all(d in DELTA_ALPHABET for d in result)
    assert check_domino(result, _REVERSE)
    return result


# -- leading-order signs ------------------------------------------------------

# Digits whose sign differs from the rest: the mixed plateaus.
_MIXED_PLATEAUS = frozenset({DeltaMatrix(0, 0, 1, 1), DeltaMatrix(1, 1, 0, 0)})


def delta_sign(symmetry_class: SymmetryClass, condition: str,
               delta: DeltaMatrix) -> int:
    """Leading-order sign contributed by one digit of a chain.

    condition is "forward" for the forward chains of shifts (the A sign
    table) and "reverse" for the reverse chains of reflections (the R
    table).  For the imaginary-entry class the two tables are opposite;
    for the real-entry class conjugation plays no role and they agree.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be forward or reverse, got {condition!r}")
    if delta not in DELTA_ALPHABET:
        raise ValueError(f"{delta} is not an admissible digit")
    mixed = delta in _MIXED_PLATEAUS
    if symmetry_class is SymmetryClass.DIII and condition == _FORWARD:
        return 1 if mixed else -1
    # the DIII R table is the negation, which coincides with both CI tables.
    return -1 if mixed else 1


def per_g_leading_term(symmetry_class: SymmetryClass, g: DihedralElement,
                       sigma: float = 1.0) -> float:
    """Leading-order weight of one dihedral element, by direct enumeration.

    Sums the digit-sign products over every admissible cyclic chain for the
    element's condition (shifts chain forward, reflections in reverse) and
    scales by sigma^(2m).  The enumeration is asserted against the closed
    form: zero for odd m and 2^(m+1) sigma^(2m) for even m, identically in
    the symmetry class and the element.
    """
    m = g.m
    if m < 3:
        raise ValueError(f"leading term defined for m >= 3, got {m}")
    condition = _FORWARD if g.kind == "shift" else _REVERSE
    seqs, _ = enumerate_delta_sequences(m, condition)
    total = 0
    for seq in seqs:
        prod = 1
        for d in seq:
            prod *= delta_sign(symmetry_class, condition, d)
        total += prod
    expected = 0 if m % 2 else 2 ** (m + 1)
    assert total == expected, (total, expected, g)
    return float(total) * float(sigma) ** (2 * m)
