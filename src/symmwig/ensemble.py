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
    "BlockLayout",
    "block_layout",
    "build_equivalence_classes",
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


# Class (kind, a, b), 1 <= a <= b <= n, holds the index pairs
#   C1: (a, b), (b, a), (n + a, n + b), (n + b, n + a)
#   C2: (n + a, b), (n + b, a), (a, n + b), (b, n + a)
# and the entry at each is its sign below times the entry at the first.
# The signs follow from Hermiticity plus the block relations and are
# verified exhaustively in the test suite.  A diagonal class (a == b) lists
# its first and third pairs twice each: with one sign in CI, where it is a
# class of size 2, and with opposite signs in DIII, where those entries are
# zero and there is no class.  As arrays: pair j is (b, a) rather than
# (a, b) where _SWAP[j]; its column is in the lower block where _LOWER[j],
# and so is its row in C1, while C2 has its rows in the other block.
_KINDS = ("C1", "C2")
_SIGNS = {
    SymmetryClass.DIII: np.array([[1, -1, -1, 1], [1, -1, 1, -1]], dtype=np.int8),
    SymmetryClass.CI: np.array([[1, 1, -1, -1], [1, 1, 1, 1]], dtype=np.int8),
}
_SWAP = np.array([False, True, False, True])
_LOWER = np.array([0, 0, 1, 1])


def _check_size(symmetry_class: SymmetryClass, n: int) -> None:
    """Raise ValueError unless the 2n x 2n space of the class is nonzero."""
    if n < 1:
        raise ValueError("n must be positive")
    if symmetry_class is SymmetryClass.DIII and n < 2:
        raise ValueError("degenerate space: DIII with n=1 is identically zero")


def _class_rows(symmetry_class: SymmetryClass, n: int) -> tuple[np.ndarray, ...]:
    """The member rule for every class at once, in canonical order, 0-based.

    Order: C1(a,b) for a<b lexicographic, then C2(a,b), then (CI only)
    the diagonal classes C1(a,a) and C2(a,a).  Returns (kind, a, b, p, q,
    s): per class its kind (0 for C1, 1 for C2), a and b; per class and
    member, in the order of the rule, the pair (p, q) and the sign s.
    """
    _check_size(symmetry_class, n)
    i = np.arange(n)
    a, b = np.nonzero(i[:, None] < i)
    noff = len(a)
    if symmetry_class is SymmetryClass.CI:
        a, b = np.concatenate([a, a, i, i]), np.concatenate([b, b, i, i])
        kind = np.repeat([0, 1, 0, 1], [noff, noff, n, n])
    else:
        a, b = np.concatenate([a, a]), np.concatenate([b, b])
        kind = np.repeat([0, 1], noff)
    x, y = a[:, None], b[:, None]
    p = np.where(_SWAP, y, x) + n * (kind[:, None] ^ _LOWER)
    q = np.where(_SWAP, x, y) + n * _LOWER
    return kind, a, b, p, q, _SIGNS[symmetry_class][kind]


def build_equivalence_classes(
    symmetry_class: SymmetryClass, n: int
) -> tuple[EquivClass, ...]:
    """All signed entry classes of the 2n x 2n space, in the canonical order
    of ``_class_rows``.  DIII has n(n-1) classes of size 4; CI has
    n(n-1) + 2n classes."""
    kind, a, b, p, q, s = _class_rows(symmetry_class, n)
    rows = zip(kind.tolist(), (a + 1).tolist(), (b + 1).tolist(),
               (p + 1).tolist(), (q + 1).tolist(), s.tolist())
    classes = []
    for index, (k, ai, bi, pi, qi, si) in enumerate(rows):
        keep = slice(None) if ai < bi else slice(None, None, 2)  # first and third
        members = tuple(zip(pi[keep], qi[keep]))
        classes.append(EquivClass(index, _KINDS[k], ai, bi, members, tuple(si[keep])))
    return tuple(classes)


def class_tables(
    symmetry_class: SymmetryClass, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0-based lookup: (class id or -1, sign) per (p-1, q-1)."""
    _, _, _, p, q, s = _class_rows(symmetry_class, n)
    cls_id = np.full((2 * n, 2 * n), -1, dtype=np.int32)
    sign = np.zeros((2 * n, 2 * n), dtype=np.int8)
    cls_id[p, q] = np.arange(len(p))[:, None]
    sign[p, q] = s
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
            if abs(mean) > 1e-12 * max(abs(v) for v, p in self.atoms if p > 0):
                raise ValueError("atoms must be centered")
            if abs(var - self.sigma2) > 1e-9 * self.sigma2:
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


def derive_rng(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Stable seed splitting: stream keys give independent generators.

    Disjoint spawn keys yield independent, reproducible streams, which
    is the whole concurrency story: workers never share a generator.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)))


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Where the class draws land in the 2n x 2n matrix.

    Flat entry k is gathered from ext = [draws, -draws, 0] at gather[k]:
    the class id where the sign is +1, id + n_classes where it is -1, and
    2 * n_classes where the entry is forced to zero.  ``assemble`` gives the
    real float64 W in either class, and Y = W / sqrt(dim) is the real block
    matrix that every computation of the package runs on.  The normalized
    sample is unit * Y: complex128 for DIII, where unit is i, and float64
    for CI, where unit is 1.0.
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
) -> np.ndarray:
    """One normalized Hermitian draw, the 2n x 2n array unit * Y of
    ``BlockLayout``: complex128 for DIII, float64 for CI; deterministic
    given the seed."""
    layout = block_layout(symmetry_class, n)
    draws = model.draw(derive_rng(seed), layout.n_classes)
    return layout.unit * layout.assemble(draws) / math.sqrt(layout.dim)


def symmetry_stats(symmetry_class: SymmetryClass, n: int) -> tuple[int, int]:
    """(alpha2, alpha0_hat) by exhaustive scan of [2n]^2.

    alpha2 is the largest class size; alpha0_hat counts triples
    (p, q, r) with p != r and (p, q) ~ (q, r).
    """
    cls_id, _ = class_tables(symmetry_class, n)
    live = cls_id >= 0
    alpha2 = int(np.bincount(cls_id[live]).max())
    # same[p, q, r]: (p, q) is a live entry in the class of (q, r)
    same = (cls_id[:, :, None] == cls_id[None, :, :]) & live[:, :, None]
    same &= ~np.eye(2 * n, dtype=bool)[:, None, :]
    return alpha2, int(np.count_nonzero(same))
