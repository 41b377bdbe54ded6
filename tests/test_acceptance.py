"""Release gate: one test per acceptance criterion, each emitting a verdict line.

The paper's CLT statements are limits: Var(Tr T_m) -> 4m for even m >= 4,
odd degrees vanish, both classes share the limit, and distinct degrees
decorrelate.  Criteria 4, 5 and 6 work at a fixed size (n = 5 or n = 64),
where the covariances still carry O(1/n) terms that the prescribed sample
count resolves.  So those criteria grade each finite-n quantity against its
exact finite-n value, computed during the run by exact interpolation of the
moment oracle (``finite_n.exact_finite_n``), and check the limit statements
themselves exactly, on the interpolated polynomials.
"""
import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import conftest
from finite_n import exact_finite_n
from symmwig import (
    EntryModel,
    SimulationConfig,
    SymmetryClass,
    V_asymptotic,
    V_n_exact,
    clt_report,
    cov_cheb_moment_oracle,
    cov_traces_config_oracle,
    dihedral_group,
    enumerate_delta_sequences,
    per_g_leading_term,
    run_simulation,
    symmetry_stats,
    theory_vector,
)
from symmwig.covariance import _exact_cell
from symmwig.montecarlo import _zscore as zscore

DIII = SymmetryClass.parse("DIII")
CI = SymmetryClass.parse("CI")
GAUSS = EntryModel(family="gaussian")
RADEM = EntryModel(family="rademacher")

DESK = dict(n=64, sigma=1.0, M=6, samples=10_000, seed=20260819,
            family="gaussian", parallelism=1)


@pytest.fixture(scope="session")
def desk_diii():
    return run_simulation(SimulationConfig("DIII", **DESK))


@pytest.fixture(scope="session")
def desk_ci():
    return run_simulation(SimulationConfig("CI", **DESK))


def verdict(k: int, ok: bool, details: str) -> None:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {details}"
    conftest.VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_combinatorial_counts():
    problems = []
    for m in (4, 6, 8, 10):
        _, total = enumerate_delta_sequences(m, "forward")
        if total != 2 ** (m + 1):
            problems.append(f"m={m} total {total} != 2^{m + 1}")
        _, pinned = enumerate_delta_sequences(m, "forward", "identical-rows-alpha1")
        if pinned != 2 ** (m - 1):
            problems.append(f"m={m} identical-rows-alpha1 {pinned} != 2^{m - 1}")
        firsts = {seq[0] for seq in enumerate_delta_sequences(m, "reverse")[0]}
        if len(firsts) != 8:
            problems.append(f"m={m} alphabet size {len(firsts)}")
        for d in firsts:
            _, per = enumerate_delta_sequences(m, "reverse", "tau-realizable", d)
            if per != 2 ** (m - 2):
                problems.append(f"m={m} completions at {d} = {per} != 2^{m - 2}")
        group = dihedral_group(m)
        if len({g.perm for g in group}) != 2 * m:
            problems.append(f"m={m} |D_2m| != {2 * m}")
        tau = next(g for g in group if g.kind == "reflection" and g.nu == 0)
        for gamma in (g for g in group if g.kind == "shift"):
            conj = tuple(tau(gamma(tau(l))) for l in range(1, m + 1))
            if conj != gamma.inverse_perm():
                problems.append(f"m={m} tau.{gamma.nu}.tau != inverse")
    verdict(1, not problems,
            problems[0] if problems else
            "counts 2^(m+1), 2^(m-1), 2^(m-2) and dihedral relations exact "
            "for m in {4,6,8,10}")


def test_criterion_2_symmetry_constants():
    bad = []
    for cls, n in product((DIII, CI), range(2, 21)):
        a2, a0 = symmetry_stats(cls, n)
        if (a2, a0) != (4, 0):
            bad.append(f"{cls.value} n={n}: alpha2={a2} alpha0_hat={a0}")
    verdict(2, not bad,
            bad[0] if bad else "alpha2 = 4 and alpha0_hat = 0 for both classes, n = 2..20")


def test_criterion_3_oracle_cross_validation():
    worst = 0.0
    for cls in (DIII, CI):
        cache: dict = {}
        for m, mu in product(range(1, 5), repeat=2):
            a = cov_traces_config_oracle(cls, 2, m, mu, RADEM)
            b = cov_cheb_moment_oracle(cls, 2, m, mu, RADEM, cache=cache)
            worst = max(worst, abs(a - b))
    verdict(3, worst <= 1e-12,
            f"config vs moment oracle, n=2, both classes, m,mu <= 4: "
            f"max |diff| = {worst:.3e} (tol 1e-12)")


def test_criterion_4_formula_convergence(exact):
    # gap = oracle - V_n on the diagonal, oracle alone off it; V_n is the
    # leading-order dihedral formula evaluated at n, so the gap is O(1/n)
    # exactly when its polynomial D has degree below k
    ns = (2, 3, 4, 5)
    pairs = [(m, mu) for m in range(1, 5) for mu in range(m, 5)]
    vn = {
        m: exact_finite_n(lambda n, m=m: _exact_cell(CI, n, m, RADEM, 10**8)[0], m)
        for m in range(1, 5)
    }
    gap = {}
    for m, mu in pairs:
        cov = exact.cov(CI, RADEM, m, mu)
        gap[m, mu] = cov - vn[m] if m == mu else cov
    mono_bad = [
        (m, mu) for m, mu in pairs
        if any(abs(gap[m, mu](b)) > abs(gap[m, mu](a)) for a, b in zip(ns, ns[1:]))
    ]
    slow = [(m, mu) for m, mu in pairs if gap[m, mu].degree >= gap[m, mu].k]
    ok = not mono_bad and not slow

    def within(n):
        return all(abs(gap[m, mu](n)) <= Fraction(15, 100) * max(1, vn[m](n))
                   for m, mu in pairs)

    scan = range(2, 201)
    settled = max((n for n in scan if not within(n)), default=1) + 1
    nonzero = [f"({m},{mu}): {gap[m, mu]}" for m, mu in pairs if gap[m, mu].degree >= 0]
    details = (
        f"gap = oracle - V_n (diagonal) or oracle (off-diagonal), CI Rademacher, "
        f"exact in n: {len(pairs) - len(nonzero)} of {len(pairs)} pairs identically 0; "
        + "; ".join(nonzero)
        + f"; V_n(4) = {vn[4]}; "
        + ("every gap polynomial has degree < k, so every gap is O(1/n)"
           if not slow else f"gap not O(1/n) at {slow}")
        + ("; |gap| nonincreasing over n = 2..5" if not mono_bad
           else f"; monotonicity broken at {mono_bad}")
        + f"; information only: every gap within 15% of V_n from n = {settled} on "
          f"(scanned to n = {scan[-1]})")
    verdict(4, ok, details)


def test_criterion_5_desk_scale(desk_ci, exact):
    clauses = []

    grid = (4, 6, 8, 10, 12)
    even = {n: V_n_exact(CI, n, 4, GAUSS) for n in grid}
    gaps = [abs(even[n] - 16.0) for n in grid]
    exact_ok = all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 0.25 * 16
    clauses.append((exact_ok,
                    f"V_12(4) = {even[12]:.4f} ({gaps[-1] / 16:.1%} from 16, "
                    f"gap monotone over n=4..12)"))
    odd_vals = {m: [abs(V_n_exact(CI, n, m, GAUSS)) for n in grid] for m in (3, 5)}
    odd_ok = all(
        vs[-1] <= 0.5 and all(b <= a for a, b in zip(vs, vs[1:]))
        for vs in odd_vals.values()
    )
    clauses.append((odd_ok, f"V_12(3) = {odd_vals[3][-1]}, V_12(5) = {odd_vals[5][-1]}"))

    est = desk_ci.estimates
    var = {m: float(est.cov[m - 1, m - 1]) for m in range(1, 7)}
    mc_ok = (14.4 <= var[4] <= 17.6 and 20.4 <= var[6] <= 27.6
             and var[3] <= 0.5 and var[5] <= 0.5 and var[1] == 0.0)
    clauses.append((mc_ok,
                    f"MC: Var(T4) = {var[4]:.3f} in [14.4, 17.6], "
                    f"Var(T6) = {var[6]:.3f} in [20.4, 27.6], odd = 0 exactly"))

    # off-diagonal covariances against their exact finite-n values
    n = DESK["n"]
    shown, zeros, hot = [], [], []
    for m, mu in combinations(range(1, 7), 2):
        target = exact.cov(CI, GAUSS, m, mu)
        c, se = float(est.cov[m - 1, mu - 1]), float(est.cov_se[m - 1, mu - 1])
        z = zscore(c, float(target(n)), se)
        if abs(z) > 3.0:
            hot.append(f"({m},{mu})")
        if target.degree < 0:
            zeros.append(abs(z))
            continue
        shown.append(
            f"Cov(T{m},T{mu}) = {target} = {float(target(n)):.4f} at n = {n}, "
            f"estimate {c:.3f} +- {se:.3f}, z = {z:.2f} "
            f"(z against the limit 0: {zscore(c, 0.0, se):.2f}, information only)")
    clauses.append((not hot,
                    "off-diagonal |z| <= 3 against exact finite-n CI values: "
                    + "; ".join(shown)
                    + f"; the other {len(zeros)} pairs are 0 at every n, "
                      f"max |z| = {max(zeros):.2f}"
                    + (f"; EXCEEDED at {', '.join(hot)}" if hot else "")))

    time_ok = desk_ci.wall_time <= 600.0
    clauses.append((time_ok, f"runtime {desk_ci.wall_time:.1f}s <= 600s"))

    ok = all(c for c, _ in clauses)
    verdict(5, ok, "; ".join(text for _, text in clauses))


def test_criterion_6_class_equality(desk_diii, desk_ci, exact):
    n = DESK["n"]
    desk = {CI: desk_ci.estimates, DIII: desk_diii.estimates}
    lines = []

    # the equality itself is a limit statement, checked exactly
    var = {(cls, m): exact.cov(cls, GAUSS, m, m) for cls in desk for m in (4, 6)}
    lead_bad = [m for m in (4, 6) if var[CI, m].limit != var[DIII, m].limit]
    lines.extend(f"Var_n(T{m}): CI {var[CI, m]}, DIII {var[DIII, m]}, common limit "
                 f"{var[CI, m].limit}" + (" DIFFERS" if m in lead_bad else "")
                 for m in (4, 6))
    per_g_bad = [
        (cls.value, m) for cls in desk for m in range(3, 7)
        if sum(per_g_leading_term(cls, g) for g in dihedral_group(m)) / 2**m
        != V_asymptotic(cls, m, GAUSS)[0]
    ]
    lines.append("sum_g per_g_leading_term / 2^m = V_asymptotic for m = 3..6, "
                 "both classes" + (f"; FAILS at {per_g_bad}" if per_g_bad else ""))

    # m = 4 and m = 6 at the desk size, against the exact finite-n values
    def se_of(e, m):
        return float(e.cov_se[m - 1, m - 1])

    checks = [(f"{cls.value} Var(T{m})", float(e.cov[m - 1, m - 1]), se_of(e, m), var[cls, m])
              for m in (4, 6) for cls, e in desk.items()]
    checks.append(("CI - DIII Var(T4)", float(desk[CI].cov[3, 3] - desk[DIII].cov[3, 3]),
                   math.hypot(se_of(desk[CI], 4), se_of(desk[DIII], 4)),
                   var[CI, 4] - var[DIII, 4]))
    sample_ok = True
    for name, value, se, target in checks:
        z = zscore(value, float(target(n)), se)
        sample_ok &= abs(z) <= 3.0
        lines.append(f"{name} = {value:.3f} +- {se:.3f} vs exact {float(target(n)):.4f} "
                     f"at n = {n}, z = {z:.2f} (z against the limit "
                     f"{target.limit}: {zscore(value, float(target.limit), se):.2f}, "
                     f"information only)" + ("" if abs(z) <= 3.0 else " EXCEEDED"))

    odd_ok = all(e.cov[m - 1, m - 1] == 0.0 for e in desk.values() for m in (3, 5))
    lines.append("Var(T3) = Var(T5) = 0 exactly in both classes" if odd_ok
                 else "odd-degree variance not exactly 0")

    band = {cls: clt_report(res, theory_vector(cls, 6, GAUSS)).rows[5]
            for cls, res in ((CI, desk_ci), (DIII, desk_diii))}
    band_ok = all(row.passed for row in band.values())
    lines.append(
        "m = 6 inside clt_report's even-degree band: "
        + ", ".join(f"{cls.value} {row.var_est:.3f} +- {row.var_se:.3f} vs {row.theory:g} "
                    f"(z against the limit {row.z:.2f})" + ("" if row.passed else " OUTSIDE")
                    for cls, row in band.items()))

    verdict(6, not lead_bad and not per_g_bad and sample_ok and odd_ok and band_ok,
            "; ".join(lines))


def test_criterion_7_gaussianity(desk_diii):
    est = desk_diii.estimates
    k3, k4 = float(est.k3[3]), float(est.k4[3])
    ok = abs(k3) <= 0.1 and abs(k4) <= 0.3
    verdict(7, ok, f"Tr T_4 standardized |k3| = {abs(k3):.4f} <= 0.1, "
                   f"|k4| = {abs(k4):.4f} <= 0.3")


def test_criterion_8_derived_v2(desk_diii):
    exact_bad = [
        n for n in range(2, 13)
        if V_n_exact(DIII, n, 2, GAUSS) != 8 * (n - 1) / n
    ]
    est = desk_diii.estimates
    var2, se2 = float(est.cov[1, 1]), float(est.cov_se[1, 1])
    target = 8 * 63 / 64
    mc_ok = abs(var2 - target) <= 3 * se2
    verdict(8, not exact_bad and mc_ok,
            f"V_n(2) = 8(n-1)/n bit-exact for n = 2..12"
            + ("" if not exact_bad else f" FAILS at {exact_bad}")
            + f"; MC Var(T2) = {var2:.4f} vs {target:.4f} "
              f"({abs(var2 - target) / se2 if se2 else 0.0:.2f} SE)")


def test_criterion_9_determinism():
    base = SimulationConfig("CI", n=8, samples=1000, seed=7, M=6)
    a = run_simulation(base)
    b = run_simulation(replace(base, parallelism=8))
    c = run_simulation(base)

    def same(x, y):
        ea, eb = x.estimates, y.estimates
        pairs = [(ea.mean, eb.mean), (ea.cov, eb.cov), (ea.cov_se, eb.cov_se),
                 (ea.k3, eb.k3), (ea.k3_se, eb.k3_se),
                 (ea.k4, eb.k4), (ea.k4_se, eb.k4_se)]
        if not all(np.array_equal(u, v, equal_nan=True) for u, v in pairs):
            return False
        return len(x.blocks) == len(y.blocks) and all(
            p.count == q.count
            and np.array_equal(p.s1, q.s1) and np.array_equal(p.s2, q.s2)
            and np.array_equal(p.s3, q.s3) and np.array_equal(p.s4, q.s4)
            and np.array_equal(p.cross, q.cross)
            for p, q in zip(x.blocks, y.blocks)
        )

    verdict(9, same(a, b) and same(a, c),
            "parallelism 1 and 8 bit-identical (all moments, blocks, jackknife), "
            "rerun identical")
