import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmwig.ensemble import SymmetryClass
from symmwig.patterns import (
    DELTA_ALPHABET,
    DeltaMatrix,
    check_domino,
    complete_reflection_sequence,
    delta_sign,
    dihedral_group,
    enumerate_delta_sequences,
    per_g_leading_term,
)

CLASSES = (SymmetryClass.DIII, SymmetryClass.CI)
STEPS = {"01/01", "10/10", "01/10", "10/01"}
PLATEAUS = {"00/00", "11/11", "00/11", "11/00"}


def D(text: str) -> DeltaMatrix:
    return DeltaMatrix.from_string(text)


def test_alphabet():
    assert len(DELTA_ALPHABET) == 8
    assert all(sum(d) % 2 == 0 for d in DELTA_ALPHABET)
    assert {str(d) for d in DELTA_ALPHABET} == STEPS | PLATEAUS
    # the other 8 binary matrices have odd entry sum and are rejected
    for bits in itertools.product((0, 1), repeat=4):
        d = DeltaMatrix(*bits)
        if sum(bits) % 2 == 1:
            assert d not in DELTA_ALPHABET
            with pytest.raises(ValueError):
                enumerate_delta_sequences(4, "forward", first_delta=d)


def test_roundtrip_and_classification():
    for d in DELTA_ALPHABET:
        assert DeltaMatrix.from_string(str(d)) == d
        want = "step" if str(d) in STEPS else "plateau"
        assert ((d.alpha, d.gamma) == (d.beta, d.delta)) == (want == "plateau")


def test_from_string_rejects_garbage():
    for bad in ("0011", "0/0", "02/00", "00/1", ""):
        with pytest.raises(ValueError):
            DeltaMatrix.from_string(bad)


# -- dihedral group -----------------------------------------------------------


@pytest.mark.parametrize("m", (3, 4, 5, 6, 8))
def test_dihedral_group_basics(m):
    group = dihedral_group(m)
    assert len(group) == 2 * m
    perms = {g.perm for g in group}
    assert len(perms) == 2 * m  # all distinct
    for g in group:
        inv = g.inverse_perm()
        assert all(g(inv[l - 1]) == l for l in range(1, m + 1))
    # composition stays inside the group
    import random

    rnd = random.Random(m)
    for _ in range(10):
        g, h = rnd.choice(group), rnd.choice(group)
        comp = tuple(g(h(l)) for l in range(1, m + 1))
        assert comp in perms


@pytest.mark.parametrize("m", (3, 4, 5, 7))
def test_tau_conjugates_shift_to_inverse(m):
    group = dihedral_group(m)
    gamma = next(g for g in group if g.kind == "shift" and g.nu == 1)
    tau = next(g for g in group if g.kind == "reflection" and g.nu == 0)
    conj = tuple(tau(gamma(tau(l))) for l in range(1, m + 1))
    assert conj == gamma.inverse_perm()


# -- domino chaining ----------------------------------------------------------


def brute_chains(m: int, mode: str) -> list[tuple[DeltaMatrix, ...]]:
    out = []
    for seq in itertools.product(DELTA_ALPHABET, repeat=m):
        if check_domino(seq, mode):
            out.append(seq)
    return out


@pytest.mark.parametrize("m", (3, 4, 5))
@pytest.mark.parametrize("condition", ("forward", "reverse"))
def test_enumeration_matches_brute_force(m, condition):
    seqs, count = enumerate_delta_sequences(m, condition)
    brute = brute_chains(m, condition)
    assert count == len(seqs) == len(brute) == 2 ** (m + 1)
    assert sorted(map(tuple, seqs)) == sorted(brute)


@pytest.mark.parametrize("m", (3, 4, 5, 6))
def test_filtered_counts(m):
    _, ident = enumerate_delta_sequences(m, "forward", "identical-rows")
    assert ident == 2**m
    _, alpha1 = enumerate_delta_sequences(m, "forward", "identical-rows-alpha1")
    assert alpha1 == 2 ** (m - 1)
    total = 0
    for d in DELTA_ALPHABET:
        _, per = enumerate_delta_sequences(m, "reverse", "tau-realizable", d)
        assert per == 2 ** (m - 2)
        total += per
    assert total == 2 ** (m + 1)


def test_tau_realizable_needs_reverse():
    with pytest.raises(ValueError):
        enumerate_delta_sequences(4, "forward", "tau-realizable")


def test_check_domino_examples():
    assert check_domino((D("00/00"), D("01/01"), D("10/10")), "forward")
    assert check_domino((D("00/00"),) * 3, "reverse")
    # chains neither way
    broken = (D("01/01"), D("00/00"), D("00/00"))
    assert not check_domino(broken, "forward")
    assert not check_domino(broken, "reverse")


def test_identical_rows_filter_is_literal():
    seqs, _ = enumerate_delta_sequences(4, "forward", "identical-rows")
    for seq in seqs:
        assert all(d.rows[0] == d.rows[1] for d in seq)


# -- reflection completion ----------------------------------------------------


@pytest.mark.parametrize("m", (3, 4, 5, 6))
def test_completion_bijects_onto_tau_realizable(m):
    for d1 in DELTA_ALPHABET:
        want, count = enumerate_delta_sequences(m, "reverse", "tau-realizable", d1)
        got = set()
        for bits in itertools.product((0, 1), repeat=m - 2):
            seq = complete_reflection_sequence(d1, bits, m)
            assert seq[0] == d1
            assert all(d in DELTA_ALPHABET for d in seq)
            assert check_domino(seq, "reverse")
            got.add(tuple(seq))
        assert len(got) == 2 ** (m - 2) == count
        assert got == set(map(tuple, want))


def test_completion_recombines_rows():
    # the recombined chain is a reverse-domino walk even when the raw
    # lower bit walk would leave the alphabet; this is the case that
    # settles how the completion is to be read
    seq = complete_reflection_sequence(D("01/01"), (0,), 3)
    assert check_domino(seq, "reverse")
    assert all(sum(d) % 2 == 0 for d in seq)


# -- signs and leading terms --------------------------------------------------


def test_delta_sign_tables():
    mixed = {D("00/11"), D("11/00")}
    for d in DELTA_ALPHABET:
        is_mixed = d in mixed
        assert delta_sign(SymmetryClass.DIII, "forward", d) == (1 if is_mixed else -1)
        for cls, condition in (
            (SymmetryClass.DIII, "reverse"),
            (SymmetryClass.CI, "forward"),
            (SymmetryClass.CI, "reverse"),
        ):
            assert delta_sign(cls, condition, d) == (-1 if is_mixed else 1)
    # the direction is a chaining condition; any other string is refused
    with pytest.raises(ValueError, match="condition must be forward or reverse"):
        delta_sign(SymmetryClass.CI, "forward-A", D("00/11"))


@pytest.mark.parametrize("m", (3, 4, 5, 6))
@pytest.mark.parametrize("cls", CLASSES)
def test_per_g_leading_term(cls, m):
    for g in dihedral_group(m):
        value = per_g_leading_term(cls, g)
        want = 0.0 if m % 2 == 1 else float(2 ** (m + 1))
        assert value == want


def test_per_g_leading_term_sigma_scaling():
    for cls in CLASSES:
        g = dihedral_group(4)[1]
        assert per_g_leading_term(cls, g, sigma=0.5) == pytest.approx(
            0.5**8 * per_g_leading_term(cls, g), rel=1e-12
        )


# -- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=7),
    condition=st.sampled_from(("forward", "reverse")),
    data=st.data(),
)
def test_enumerated_chains_chain(m, condition, data):
    seqs, count = enumerate_delta_sequences(m, condition)
    seq = data.draw(st.sampled_from(seqs))
    assert check_domino(seq, condition)
    assert len(seq) == m
    # rotating a cyclic chain keeps it a chain
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    rotated = seq[k:] + seq[:k]
    assert check_domino(rotated, condition)
