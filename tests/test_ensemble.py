import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiindex import class_of
from symmwig.ensemble import (
    EntryModel,
    ScaleMismatch,
    SymmetryClass,
    block_layout,
    build_equivalence_classes,
    class_tables,
    derive_rng,
    sample_matrix,
    symmetry_stats,
)

CLASSES = (SymmetryClass.DIII, SymmetryClass.CI)


def test_parse():
    assert SymmetryClass.parse(" diii ") is SymmetryClass.DIII
    assert SymmetryClass.parse("ci") is SymmetryClass.CI
    with pytest.raises(ValueError):
        SymmetryClass.parse("AII")


@pytest.mark.parametrize("cls", CLASSES)
def test_pair_unit_is_the_square_of_the_entry_unit(cls):
    """E a(P) a(Q) within one class carries the square of the factor that
    turns a drawn value into a matrix entry: i in DIII, 1 in CI."""
    assert cls.pair_unit == {SymmetryClass.DIII: -1, SymmetryClass.CI: 1}[cls]
    assert block_layout(cls, 3).unit ** 2 == cls.pair_unit


def test_diii_n1_rejected():
    with pytest.raises(ValueError):
        build_equivalence_classes(SymmetryClass.DIII, 1)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("cls", CLASSES)
def test_class_counts(cls, n):
    classes = build_equivalence_classes(cls, n)
    expected = n * (n - 1) if cls is SymmetryClass.DIII else n * (n - 1) + 2 * n
    assert len(classes) == expected
    assert [c.index for c in classes] == list(range(expected))


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("cls", CLASSES)
def test_classes_partition_index_pairs(cls, n):
    """Every index pair lies in exactly one class, or is forced to zero."""
    seen = {}
    for c in build_equivalence_classes(cls, n):
        assert len(c.members) == len(c.signs) in (2, 4)
        for pair in c.members:
            assert pair not in seen
            seen[pair] = c.index
    dim = 2 * n
    for p in range(1, dim + 1):
        for q in range(1, dim + 1):
            hit = class_of(cls, n, (p, q))
            if hit is None:
                assert cls is SymmetryClass.DIII
                assert (p - q) % n == 0  # skew block diagonal
                assert (p, q) not in seen
            else:
                idx, sign = hit
                assert seen[(p, q)] == idx
                assert sign in (-1, 1)


def test_class_of_range_check():
    with pytest.raises(ValueError):
        class_of(SymmetryClass.CI, 2, (0, 1))
    with pytest.raises(ValueError):
        class_of(SymmetryClass.CI, 2, (1, 5))


@pytest.mark.parametrize(
    "cls,n", [(c, n) for c in CLASSES for n in (1, 2, 3, 5, 8) if (c, n) != (CLASSES[0], 1)]
)
def test_class_tables_match_class_of(cls, n):
    cid, sign = class_tables(cls, n)
    for p in range(1, 2 * n + 1):
        for q in range(1, 2 * n + 1):
            hit = class_of(cls, n, (p, q))
            if hit is None:
                assert (cid[p - 1, q - 1], sign[p - 1, q - 1]) == (-1, 0)
            else:
                assert (cid[p - 1, q - 1], sign[p - 1, q - 1]) == hit


@pytest.mark.parametrize("cls,n,seed", [(c, n, s) for c in CLASSES for n, s in ((2, 0), (4, 7))])
def test_sample_structure(cls, n, seed):
    X = sample_matrix(cls, n, EntryModel.gaussian(), seed)
    dim = 2 * n
    assert X.shape == (dim, dim)
    assert np.array_equal(X, X.conj().T)
    # diagonal halves cancel entry by entry; the summed trace only
    # vanishes to rounding for CI (DIII diagonals are identically zero)
    assert np.array_equal(np.diag(X)[:n], -np.diag(X)[n:])
    assert abs(X.trace()) <= 1e-12
    X1, X2 = X[:n, :n], X[:n, n:]
    assert np.array_equal(X[n:, :n], X2)
    assert np.array_equal(X[n:, n:], -X1)
    if cls is SymmetryClass.DIII:
        assert np.all(X1.real == 0) and np.all(X2.real == 0)
        assert np.array_equal(X1.T, -X1) and np.array_equal(X2.T, -X2)
    else:
        assert np.all(X.imag == 0)
        assert np.array_equal(X1.T, X1) and np.array_equal(X2.T, X2)


@pytest.mark.parametrize("cls", CLASSES)
def test_sample_respects_class_signs(cls):
    """All members of a class carry one draw, up to the tabulated sign."""
    n = 3
    X = sample_matrix(cls, n, EntryModel.gaussian(), seed=13)
    unit = 1j if cls is SymmetryClass.DIII else 1.0
    for c in build_equivalence_classes(cls, n):
        p0, q0 = c.members[0]
        base = X[p0 - 1, q0 - 1] / (unit * c.signs[0])
        for (p, q), s in zip(c.members, c.signs):
            assert X[p - 1, q - 1] == unit * s * base


def test_parity_conjugation():
    """J X J^{-1} = -X for J = [[0, I], [-I, 0]], both classes."""
    for cls in CLASSES:
        n = 4
        X = sample_matrix(cls, n, EntryModel.gaussian(), seed=3)
        J = np.block(
            [[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]]
        )
        assert np.allclose(J @ X @ np.linalg.inv(J), -X, atol=0, rtol=0)


def test_normalization_scale():
    # raw entries have scale sigma; the matrix is divided by sqrt(2n)
    n, reps = 6, 400
    acc = 0.0
    for seed in range(reps):
        X = sample_matrix(SymmetryClass.CI, n, EntryModel.rademacher(), seed)
        acc += X[0, 1] ** 2
    assert acc / reps == pytest.approx(1.0 / (2 * n), rel=1e-12)


def test_derive_rng_streams():
    a = derive_rng(42, (1,)).normal(size=8)
    b = derive_rng(42, (1,)).normal(size=8)
    c = derive_rng(42, (2,)).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_entry_model_moments():
    g = EntryModel.gaussian(0.49)
    assert float(g.exact_moment(0)) == 1.0
    assert float(g.exact_moment(1)) == 0.0
    assert float(g.exact_moment(2)) == pytest.approx(0.49)
    assert float(g.exact_moment(4)) == pytest.approx(3 * 0.49**2)
    assert float(g.exact_moment(6)) == pytest.approx(15 * 0.49**3)
    r = EntryModel.rademacher()
    assert r.finite_support == ((-1.0, 0.5), (1.0, 0.5))
    assert (float(r.exact_moment(2)) == 1.0 and float(r.exact_moment(4)) == 1.0
            and float(r.exact_moment(3)) == 0.0)
    atoms = EntryModel.from_atoms([(-1.0, 2 / 3), (2.0, 1 / 3)])
    assert float(atoms.exact_moment(1)) == pytest.approx(0.0)
    assert atoms.sigma2 == pytest.approx(2.0)
    assert float(atoms.exact_moment(3)) == pytest.approx(2.0)
    assert g.odd_moments_vanish(9) and r.odd_moments_vanish(9)
    assert not atoms.odd_moments_vanish(3)


def test_exact_moments():
    """Rational in the float sigma2 and atoms: Gaussian and Rademacher in
    closed form, so a Rademacher law has E g^4 = (E g^2)^2 at any sigma."""
    for sigma2 in (0.49, 0.81, 1.69, 1.0):
        s2 = Fraction(sigma2)
        r = EntryModel.rademacher(sigma2)
        assert r.exact_moment(4) == r.exact_moment(2) ** 2 == s2**2
        assert r.exact_moment(3) == 0 and r.exact_moment(0) == 1
        g = EntryModel.gaussian(sigma2)
        assert g.exact_moment(6) == 15 * s2**3 and g.exact_moment(5) == 0
        assert float(g.exact_moment(4)) == float(3 * s2**2)
    atoms = EntryModel.from_atoms([(-0.3, 0.25), (0.0, 0.5), (0.3, 0.25)])
    assert atoms.exact_moment(4) == Fraction(0.3) ** 4 * 2 * Fraction(0.25)
    assert atoms.exact_moment(3) == 0


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("n", range(2, 9))
def test_symmetry_stats(cls, n):
    alpha2, alpha0 = symmetry_stats(cls, n)
    assert alpha2 == 4
    assert alpha0 == 0


def test_symmetry_stats_counts_triples(monkeypatch):
    """On tables where alpha0 is not 0, the broadcast count equals the
    literal scan over (p, q, r) and the largest class size."""
    import symmwig.ensemble as ensemble

    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        dim = 2 * n
        cls_id = rng.integers(-1, 3, (dim, dim)).astype(np.int32)
        monkeypatch.setattr(ensemble, "class_tables", lambda c, m: (cls_id, None))
        alpha0 = sum(
            1
            for p in range(dim) for q in range(dim) for r in range(dim)
            if p != r and cls_id[p, q] >= 0 and cls_id[q, r] == cls_id[p, q]
        )
        alpha2 = max(np.count_nonzero(cls_id == c) for c in range(3))
        assert alpha0 > 0
        assert symmetry_stats(SymmetryClass.CI, n) == (alpha2, alpha0)


@settings(max_examples=25, deadline=None)
@given(
    cls=st.sampled_from(CLASSES),
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_invariants_property(cls, n, seed):
    X = sample_matrix(cls, n, EntryModel.gaussian(), seed)
    assert np.array_equal(X, X.conj().T)
    assert np.array_equal(np.diag(X)[:n], -np.diag(X)[n:])
    assert np.array_equal(X[n:, n:], -X[:n, :n])
    assert np.array_equal(X[:n, n:], X[n:, :n])


@pytest.mark.parametrize("cls", CLASSES)
def test_block_layout_assembles_batches_row_by_row(cls):
    layout = block_layout(cls, 4)
    draws = EntryModel.gaussian().draw(derive_rng(5), (7, layout.n_classes))
    W = layout.assemble(draws)
    assert W.shape == (7, layout.dim, layout.dim)
    for b in range(7):
        assert np.array_equal(W[b], layout.assemble(draws[b]))
    with pytest.raises(ValueError):
        layout.assemble(draws[:, 1:])


@pytest.mark.parametrize(
    "atoms, message",
    (
        ([(-1.0, 0.5), (1.0, 0.4)], "sum to 1"),
        ([(-1.0, 1.5), (1.0, -0.5)], "nonnegative"),
        ([(-1.0, 0.25), (1.0, 0.75)], "centered"),
        ([(float("nan"), 1.0)], "finite"),
        ([(-1.0, float("nan")), (1.0, 0.5)], "finite"),
        ([(0.0, 1.0)], "positive"),
    ),
)
def test_entry_model_rejects_bad_atoms(atoms, message):
    with pytest.raises(ValueError, match=message):
        EntryModel.from_atoms(atoms)


@pytest.mark.parametrize("sigma2", (0.0, -1.0, float("nan"), float("inf")))
def test_entry_model_rejects_bad_scale(sigma2):
    with pytest.raises(ValueError, match="sigma2"):
        EntryModel.gaussian(sigma2)


def test_entry_model_parse():
    """One rule from a family name and a scale to a law: gaussian and
    rademacher take the scale (default 1), an atom law has its own."""
    assert EntryModel.parse("gaussian") == EntryModel.gaussian()
    assert EntryModel.parse("rademacher", 0.7) == EntryModel.rademacher(0.7 * 0.7)
    atoms = EntryModel.from_atoms([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    assert EntryModel.parse("atoms:-1:0.25,0:0.5,1:0.25") == atoms
    assert EntryModel.parse("atoms:-1:0.25,0:0.5,1:0.25", atoms.sigma) == atoms


@pytest.mark.parametrize("family, sigma, message", (
    ("lognormal", None, "unknown family"),
    ("atoms:1", None, "bad atom"),
    ("atoms:x:1", None, "expected a number"),
    ("atoms:-1:0.5,1:0.5", 2.0, "differs"),
))
def test_entry_model_parse_rejects(family, sigma, message):
    with pytest.raises(ValueError, match=message):
        EntryModel.parse(family, sigma)


def test_entry_model_scale_error_names_no_flag():
    """The API names the scale by its parameter; only the command line
    speaks of --sigma."""
    with pytest.raises(ScaleMismatch) as info:
        EntryModel.parse("atoms:-1:0.5,1:0.5", 2.0)
    assert str(info.value) == "the atom law has scale 1; sigma 2 differs"
    assert "--" not in str(info.value)
    assert (info.value.scale, info.value.sigma) == (1.0, 2.0)


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("n", (2, 3, 5))
def test_signed_gather_equals_literal_scatter(cls, n):
    layout = block_layout(cls, n)
    cls_id, sign = class_tables(cls, n)
    draws = EntryModel.gaussian().draw(derive_rng(8, (n,)), (3, layout.n_classes))
    want = np.zeros((3, layout.dim, layout.dim))
    for b in range(3):
        for p in range(layout.dim):
            for q in range(layout.dim):
                if cls_id[p, q] >= 0:
                    want[b, p, q] = sign[p, q] * draws[b, cls_id[p, q]]
    assert np.array_equal(layout.assemble(draws), want)


@pytest.mark.parametrize("sigma", (1.0, 0.7, 1.3))
def test_rademacher_draw_is_the_signed_scale(sigma):
    """A Rademacher draw reads the stream of one integers(0, 2) call and
    gives exactly sigma * (2k - 1), sign bits included."""
    model = EntryModel.rademacher(sigma * sigma)
    got = model.draw(derive_rng(5, (2,)), (64, 9))
    want = model.sigma * (2.0 * derive_rng(5, (2,)).integers(0, 2, (64, 9)) - 1.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("model", (
    EntryModel.gaussian(0.49),
    EntryModel.rademacher(2.0),
    EntryModel.parse("atoms:-1:0.25,0:0.5,1:0.25"),
    EntryModel.parse("atoms:-0.5:0.6,0.75:0.4"),
))
@pytest.mark.parametrize("chunk", (1, 63, 200, 736))
def test_draws_are_chunk_invariant(model, chunk):
    """Drawing rows in consecutive chunks reads the same stream as one
    draw; the Monte Carlo sub-batches rely on it."""
    rows, width = 736, 12
    whole = model.draw(derive_rng(21, (4,)), (rows, width))
    rng = derive_rng(21, (4,))
    parts = [model.draw(rng, (min(chunk, rows - lo), width)) for lo in range(0, rows, chunk)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("cls", CLASSES)
def test_block_layout_assembles_into_a_buffer(cls):
    layout = block_layout(cls, 3)
    draws = EntryModel.gaussian().draw(derive_rng(6), (5, layout.n_classes))
    buf = np.full((5, layout.dim, layout.dim), np.nan)
    W = layout.assemble(draws, out=buf)
    assert np.shares_memory(W, buf)
    assert np.array_equal(buf, layout.assemble(draws))
