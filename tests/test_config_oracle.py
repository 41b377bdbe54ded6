"""The configuration oracle against per-configuration assembly.

``cov_traces_config_oracle`` builds the matrices of the low digits once
and adds one matrix per value of the high digits.  The reference here
assembles every configuration from its own digits, runs the literal
recurrence and takes the weighted sums over the same windows of 2^13
configurations.
"""
import math

import numpy as np
import pytest

from symmwig.covariance import _config_blocks, cov_traces_config_oracle
from symmwig.ensemble import EntryModel, SymmetryClass, block_layout
from test_chebyshev import literal_traces

DIII, CI = SymmetryClass.DIII, SymmetryClass.CI
RADEM = EntryModel.rademacher()
THREE_ATOMS = EntryModel.from_atoms([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
SKEWED = EntryModel.from_atoms([(-1.0, 2 / 3), (2.0, 1 / 3)])
WINDOW = 1 << 13  # configurations per partial dot product
CELLS = [(CI, 1), (CI, 2), (CI, 3), (DIII, 2), (DIII, 3)]
DEGREES = [(m, mu) for mu in range(1, 7) for m in range(1, mu + 1)]


def digits_of(layout, A, lo, hi):
    idx = np.arange(lo, hi)
    return idx[:, None] // A ** np.arange(layout.n_classes) % A


def reference_config_oracle(cls, n, m, mu, model):
    atoms = model.finite_support
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    layout = block_layout(cls, n)
    n_cfg = len(atoms) ** layout.n_classes
    sx, sy, sxy = [], [], []
    for lo in range(0, n_cfg, WINDOW):
        digits = digits_of(layout, len(atoms), lo, min(lo + WINDOW, n_cfg))
        w = probs[digits].prod(axis=1)
        X = (layout.unit / math.sqrt(layout.dim)) * layout.assemble(values[digits])
        t = literal_traces(X, max(m, mu), model.sigma)
        tx = np.ascontiguousarray(t[:, m - 1])
        ty = np.ascontiguousarray(t[:, mu - 1])
        sx.append(float(np.dot(w, tx)))
        sy.append(float(np.dot(w, ty)))
        sxy.append(float(np.dot(w, tx * ty)))
    ex, ey, exy = math.fsum(sx), math.fsum(sy), math.fsum(sxy)
    return exy - ex * ey


@pytest.mark.parametrize("cls,n", [(CI, 2), (CI, 3), (DIII, 2), (DIII, 3)])
@pytest.mark.parametrize("model", (RADEM, THREE_ATOMS, SKEWED), ids=("two", "three", "skewed"))
def test_low_high_blocks_match_assembly(cls, n, model):
    """Low block plus high matrix equals the assembled configuration (==
    ignores the sign of zero), in index order; weights are exact products
    for dyadic atoms."""
    atoms = model.finite_support
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    layout = block_layout(cls, n)
    scale = layout.unit / math.sqrt(layout.dim)
    lo = 0
    for X, w in _config_blocks(layout, atoms):
        digits = digits_of(layout, len(atoms), lo, lo + len(w))
        assert np.array_equal(X, scale * layout.assemble(values[digits]))
        want = probs[digits].prod(axis=1)
        if model is SKEWED:
            assert np.allclose(w, want, rtol=1e-15, atol=0)
        else:
            assert np.array_equal(w, want)
        lo += len(w)
    assert lo == len(atoms) ** layout.n_classes


@pytest.mark.parametrize("cls,n", CELLS)
def test_rademacher_values_unchanged(cls, n):
    for m, mu in DEGREES:
        assert cov_traces_config_oracle(cls, n, m, mu, RADEM) == reference_config_oracle(
            cls, n, m, mu, RADEM
        ), (m, mu)


def test_blocks_straddling_windows():
    """5^6 configurations in blocks of 5^3: the first 2^13 window ends
    inside a block.  The atoms are not dyadic, so the window sums round
    and their edges matter; the weights are dyadic and exact."""
    five = EntryModel.from_atoms(
        [(-0.6, 1 / 16), (-0.3, 1 / 4), (0.0, 3 / 8), (0.3, 1 / 4), (0.6, 1 / 16)]
    )
    for m, mu in ((2, 2), (4, 6), (3, 5)):
        assert cov_traces_config_oracle(CI, 2, m, mu, five) == reference_config_oracle(
            CI, 2, m, mu, five
        ), (m, mu)
