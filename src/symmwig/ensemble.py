"""Matrix spaces for symmetry classes DIII and CI.

A matrix in either space has the block form [[X1, X2], [X2, -X1]] with
X1, X2 purely imaginary skew-symmetric (DIII) or real symmetric (CI).
The symmetries force entries at different index pairs to agree up to
sign; the maximal sets of pairs tied together this way are the
equivalence classes built here.  One independent scalar draw per class,
scattered through sign tables, produces a sample of the normalized
ensemble (1/sqrt(2n)) * (a(p, q)).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SymmetryClass",
    "IndexPair",
    "EquivClass",
    "EntryModel",
    "ScaleMismatch",
    "MatrixSample",
    "BlockLayout",
    "block_layout",
    "build_equivalence_classes",
    "class_of",
    "class_tables",
    "sample_matrix",
    "symmetry_stats",
    "derive_rng",
]


class SymmetryClass(Enum):
    DIII = "DIII"
    CI = "CI"

    @classmethod
    def parse(cls, text: str) -> "SymmetryClass":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown symmetry class {text!r} (expected DIII or CI)")

    @property
    def pair_unit(self) -> int:
        """E a(P) a(Q) within one class is (sign product) * pair_unit * E g^2:
        the DIII entries are i g, so the unit is i^2 = -1; in CI it is 1."""
        return -1 if self is SymmetryClass.DIII else 1


# Index pairs are 1-based (p, q) tuples with 1 <= p, q <= 2n.
IndexPair = tuple[int, int]


@dataclass(frozen=True)
class EquivClass:
    """One signed equivalence class of index pairs.

    The entry at members[i] equals signs[i] times the entry at the
    representative members[0].
    """

    index: int
    kind: str  # "C1" or "C2"
    a: int
    b: int
    members: tuple[IndexPair, ...]
    signs: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


# Sign of each member relative to the representative, in the member order
# of _members_c1/_members_c2 (off-diagonal classes, a < b); _DIAG_SIGNS
# does the same for the two members of a CI diagonal class.  The signs
# follow from Hermiticity plus the block relations and are verified
# exhaustively in the test suite.
_SIGNS = {
    (SymmetryClass.DIII, "C1"): (1, -1, -1, 1),
    (SymmetryClass.DIII, "C2"): (1, -1, 1, -1),
    (SymmetryClass.CI, "C1"): (1, 1, -1, -1),
    (SymmetryClass.CI, "C2"): (1, 1, 1, 1),
}
_DIAG_SIGNS = {"C1": (1, -1), "C2": (1, 1)}


def _members_c1(n: int, a: int, b: int) -> tuple[IndexPair, ...]:
    return ((a, b), (b, a), (n + a, n + b), (n + b, n + a))


def _members_c2(n: int, a: int, b: int) -> tuple[IndexPair, ...]:
    return ((n + a, b), (n + b, a), (a, n + b), (b, n + a))


def _check_size(symmetry_class: SymmetryClass, n: int) -> None:
    """Raise ValueError unless the 2n x 2n space of the class is nonzero."""
    if n < 1:
        raise ValueError("n must be positive")
    if symmetry_class is SymmetryClass.DIII and n < 2:
        raise ValueError("degenerate space: DIII with n=1 is identically zero")


def build_equivalence_classes(
    symmetry_class: SymmetryClass, n: int
) -> tuple[EquivClass, ...]:
    """All signed entry classes of the 2n x 2n space, in canonical order.

    Order: C1(a,b) for a<b lexicographic, then C2(a,b), then (CI only)
    the diagonal classes C1(a,a) and C2(a,a).  DIII has n(n-1) classes
    of size 4; CI has n(n-1) + 2n classes.
    """
    _check_size(symmetry_class, n)
    classes: list[EquivClass] = []
    for kind, maker in (("C1", _members_c1), ("C2", _members_c2)):
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                classes.append(
                    EquivClass(
                        index=len(classes),
                        kind=kind,
                        a=a,
                        b=b,
                        members=maker(n, a, b),
                        signs=_SIGNS[(symmetry_class, kind)],
                    )
                )
    if symmetry_class is SymmetryClass.CI:
        for kind in ("C1", "C2"):
            for a in range(1, n + 1):
                members = (
                    ((a, a), (n + a, n + a)) if kind == "C1" else ((n + a, a), (a, n + a))
                )
                classes.append(
                    EquivClass(
                        index=len(classes),
                        kind=kind,
                        a=a,
                        b=a,
                        members=members,
                        signs=_DIAG_SIGNS[kind],
                    )
                )
    return tuple(classes)


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
    if r == s:
        if symmetry_class is SymmetryClass.DIII:
            return None
        noff = n * (n - 1) // 2
        idx = 2 * noff + (0 if kind == "C1" else n) + (r - 1)
        members = ((r, r), (n + r, n + r)) if kind == "C1" else ((n + r, r), (r, n + r))
        sign = _DIAG_SIGNS[kind][members.index(pair)]
        return idx, sign
    a, b = min(r, s), max(r, s)
    noff = n * (n - 1) // 2
    idx = (0 if kind == "C1" else noff) + _offdiag_rank(n, a, b)
    members = _members_c1(n, a, b) if kind == "C1" else _members_c2(n, a, b)
    sign = _SIGNS[(symmetry_class, kind)][members.index(pair)]
    return idx, sign


def class_tables(
    symmetry_class: SymmetryClass, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0-based lookup: (class id or -1, sign) per (p-1, q-1)."""
    dim = 2 * n
    cls_id = np.full((dim, dim), -1, dtype=np.int32)
    sign = np.zeros((dim, dim), dtype=np.int8)
    for c in build_equivalence_classes(symmetry_class, n):
        for (p, q), s in zip(c.members, c.signs):
            cls_id[p - 1, q - 1] = c.index
            sign[p - 1, q - 1] = s
    return cls_id, sign


def _to_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}")


class ScaleMismatch(ValueError):
    """A scale ``sigma`` given to an atom law whose own scale differs."""

    def __init__(self, scale: float, sigma: float) -> None:
        super().__init__(f"the atom law has scale {scale:g}; sigma {sigma:g} differs")
        self.scale, self.sigma = scale, sigma


@dataclass(frozen=True)
class EntryModel:
    """Law of one representative entry: real, centered, E g^2 = sigma2.

    For DIII the matrix entry at a representative is i*g with g drawn
    from this law; for CI it is g itself.
    """

    family: str
    sigma2: float = 1.0
    atoms: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        if self.family not in ("gaussian", "rademacher", "atoms"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "atoms":
            if not self.atoms:
                raise ValueError("atoms family requires an atom list")
            if not all(math.isfinite(x) for atom in self.atoms for x in atom):
                raise ValueError("atom values and probabilities must be finite")
            probs = [p for _, p in self.atoms]
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError("atom probabilities must be nonnegative and sum to 1")
            mean = sum(v * p for v, p in self.atoms)
            var = sum(v * v * p for v, p in self.atoms)
            if abs(mean) > 1e-12:
                raise ValueError("atoms must be centered")
            if abs(var - self.sigma2) > 1e-9 * max(1.0, self.sigma2):
                raise ValueError("atom second moment must equal sigma2")
        elif self.atoms is not None:
            raise ValueError("atom list only valid for the atoms family")

    @classmethod
    def parse(cls, family: str, sigma: Optional[float] = None) -> "EntryModel":
        """The law named by ``family`` at scale ``sigma``: the one rule from
        a family name and a scale to a law.

        Gaussian and Rademacher laws have scale ``sigma``, default 1.  An
        ``atoms:v:p,...`` law has its own scale, and a ``sigma`` that
        differs from it is an error.  Atom lists are only parsed here;
        ``__post_init__`` checks them.
        """
        # the law keeps sigma^2, so its square must be a positive normal float
        if sigma is not None and not (sigma > 0 and sys.float_info.min <= sigma * sigma < math.inf):
            raise ValueError("sigma must be positive and finite")
        if family in ("gaussian", "rademacher"):
            s = 1.0 if sigma is None else sigma
            return cls(family=family, sigma2=s * s)
        if not family.startswith("atoms:"):
            raise ValueError(f"unknown family {family!r}")
        atoms = []
        for item in family[len("atoms:") :].split(","):
            v, sep, p = item.partition(":")
            if not sep:
                raise ValueError(f"bad atom {item!r} (want value:prob)")
            atoms.append((_to_float(v), _to_float(p)))
        model = cls.from_atoms(atoms)
        if sigma is not None and not math.isclose(sigma, model.sigma, rel_tol=1e-9):
            raise ScaleMismatch(model.sigma, sigma)
        return model

    @classmethod
    def gaussian(cls, sigma2: float = 1.0) -> "EntryModel":
        return cls(family="gaussian", sigma2=sigma2)

    @classmethod
    def rademacher(cls, sigma2: float = 1.0) -> "EntryModel":
        return cls(family="rademacher", sigma2=sigma2)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "EntryModel":
        sigma2 = sum(v * v * p for v, p in atoms)
        return cls(family="atoms", sigma2=sigma2, atoms=tuple(atoms))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def finite_support(self) -> Optional[tuple[tuple[float, float], ...]]:
        """Atom list (value, prob) for finite-support families, else None."""
        if self.family == "rademacher":
            s = self.sigma
            return ((-s, 0.5), (s, 0.5))
        if self.family == "atoms":
            return self.atoms
        return None

    def exact_moment(self, k: int) -> Fraction:
        """E[g^k] as an exact rational in the float sigma2 and atoms.

        Gaussian and Rademacher laws are in closed form in sigma2:
        (k-1)!! sigma2^(k/2) and sigma2^(k/2) for even k, 0 for odd k.  So a
        Rademacher law has E g^4 = (E g^2)^2 exactly, at every sigma.
        """
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if k % 2 == 1 and self.family != "atoms":
            return Fraction(0)
        if self.family == "gaussian":
            return Fraction(self.sigma2) ** (k // 2) * math.prod(range(k - 1, 0, -2))
        if self.family == "rademacher":
            return Fraction(self.sigma2) ** (k // 2)
        return sum((Fraction(p) * Fraction(v) ** k for v, p in self.atoms), Fraction(0))

    def moment(self, k: int) -> float:
        """E[g^k], ``exact_moment`` rounded once."""
        return float(self.exact_moment(k))

    def odd_moments_vanish(self, up_to: int) -> bool:
        return all(self.exact_moment(k) == 0 for k in range(1, up_to + 1, 2))

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "gaussian":
            return rng.normal(0.0, self.sigma, size)
        if self.family == "rademacher":
            s = self.sigma
            return np.array([-s, s]).take(rng.integers(0, 2, size))
        values = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        return rng.choice(values, size=size, p=probs)


@dataclass(frozen=True)
class MatrixSample:
    symmetry_class: SymmetryClass
    n: int
    model: EntryModel
    seed: int
    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.n


def derive_rng(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Stable seed splitting: stream keys give independent generators.

    Disjoint spawn keys yield independent, reproducible streams, which
    is the whole concurrency story: workers never share a generator.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)))


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Where the class draws land in the 2n x 2n matrix.

    Flat entry k is gathered from ext = [draws, -draws, 0] at gather[k]:
    the class id where the sign is +1, id + n_classes where it is -1, and
    2 * n_classes where the entry is forced to zero.  The normalized sample
    is unit * assemble(draws) / sqrt(dim), unit being i for DIII and 1 for CI.
    """

    dim: int
    n_classes: int
    unit: complex
    gather: np.ndarray = field(repr=False)

    def assemble(self, draws: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Signed real W of shape (..., dim, dim) from draws (..., n_classes),
        gathered into ``out`` (C-contiguous, that shape) when it is given."""
        if draws.shape[-1] != self.n_classes:
            raise ValueError(f"expected {self.n_classes} class draws, got {draws.shape[-1]}")
        lead = draws.shape[:-1]
        ext = np.concatenate([draws, -draws, np.zeros(lead + (1,))], axis=-1)
        flat = None if out is None else out.reshape(lead + (self.dim * self.dim,))
        # every index is in range by construction; "clip" skips the bounds
        # check and lets np.take write straight into ``flat``
        W = np.take(ext, self.gather, axis=-1, out=flat, mode="clip")
        return W.reshape(lead + (self.dim, self.dim))


def block_layout(symmetry_class: SymmetryClass, n: int) -> BlockLayout:
    """Signed gather index from the class draws of (symmetry_class, n) to
    the entries of the 2n x 2n matrix; built from ``class_tables``."""
    cls_id, sign = class_tables(symmetry_class, n)
    n_classes = int(cls_id.max()) + 1
    gather = np.where(sign < 0, cls_id + n_classes, cls_id)
    gather[cls_id < 0] = 2 * n_classes
    return BlockLayout(
        dim=2 * n,
        n_classes=n_classes,
        unit=1j if symmetry_class is SymmetryClass.DIII else 1.0,
        gather=gather.ravel().astype(np.intp),
    )


def sample_matrix(
    symmetry_class: SymmetryClass, n: int, model: EntryModel, seed: int
) -> MatrixSample:
    """One normalized Hermitian draw; deterministic given the seed."""
    layout = block_layout(symmetry_class, n)
    draws = model.draw(derive_rng(seed), layout.n_classes)
    W = layout.assemble(draws)
    matrix = (layout.unit * W / math.sqrt(layout.dim)).astype(np.complex128)
    return MatrixSample(
        symmetry_class=symmetry_class, n=n, model=model, seed=seed, matrix=matrix,
    )


def symmetry_stats(symmetry_class: SymmetryClass, n: int) -> tuple[int, int]:
    """(alpha2, alpha0_hat) by exhaustive scan of [2n]^2.

    alpha2 is the largest class size; alpha0_hat counts triples
    (p, q, r) with p != r and (p, q) ~ (q, r).
    """
    if n < 1:
        raise ValueError("n must be positive")
    classes = build_equivalence_classes(symmetry_class, n)
    alpha2 = max(c.size for c in classes)
    cls_id, _ = class_tables(symmetry_class, n)
    dim = 2 * n
    alpha0 = 0
    for q in range(dim):
        col = cls_id[:, q]
        row = cls_id[q, :]
        for p in range(dim):
            cpq = col[p]
            if cpq < 0:
                continue
            # (q, r) in the same class, r != p
            matches = np.nonzero(row == cpq)[0]
            alpha0 += int(np.count_nonzero(matches != p))
    return alpha2, alpha0
