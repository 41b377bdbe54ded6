"""The benchmark's four workloads: job inputs made from the workload seed,
one job as a user would call the package, and the checks on its output.

Outputs are plain JSON-able values so that references can be stored and
repeated jobs compared bit for bit.  Why each workload exists, and which
layers it stresses or bypasses, is written down in README.md.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from symmwig import cli, covariance, montecarlo
from symmwig.ensemble import EntryModel, SymmetryClass

GAUSSIAN = EntryModel.gaussian()
RADEMACHER = EntryModel.rademacher()

# The set-up job of the Monte Carlo workloads runs at this seed, and its
# estimates are stored.  They are compared within float rounding, not by
# bytes, so a kernel that sums in another order still passes.
REFERENCE_SEED = 2017
MC_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-12
MAX_JOBS = 64  # job inputs made per run; the run stops long before


@dataclass(frozen=True)
class Workload:
    name: str
    # Exact cells must not be computed twice in one process, so that a
    # result cache cannot turn a timed job into lookups.
    one_job_per_process: bool
    inputs: Callable[[int], list]  # job inputs, from the workload seed
    warmup: Any  # fixed input of the short set-up job
    run: Callable[[Any, str], dict]  # one job; second argument: scratch dir
    check: Callable[[Any, dict, dict], list[str]]  # problems, given references


# -- Monte Carlo -----------------------------------------------------------

DESK_SAMPLES = 10_000
WIDE_SAMPLES = 10**6


def _mc_inputs(samples: int) -> Callable[[int], list]:
    def inputs(seed: int) -> list:
        rng = random.Random(seed)
        return [(rng.getrandbits(32), samples) for _ in range(MAX_JOBS)]
    return inputs


def mc_key(inp) -> str:
    seed, samples = inp
    return f"seed={seed}/samples={samples}"


def _desk_run(inp, scratch: str) -> dict:
    seed, samples = inp
    out = os.path.join(scratch, f"desk-{seed}-{samples}")
    argv = ["report", "--class", "CI", "--n", "64", "--samples", str(samples),
            "--M", "6", "--seed", str(seed), "--out", out]
    code = cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"symmwig {' '.join(argv)} exited with {code}")
    with open(out + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    for suffix in ("", ".json", ".manifest.json"):
        os.remove(out + suffix)
    return {"mean": doc["mean"], "cov": doc["cov"]}


def _wide_run(inp, scratch: str) -> dict:
    seed, samples = inp
    config = montecarlo.SimulationConfig(
        "DIII", n=8, samples=samples, M=6, family="rademacher",
        parallelism=2, seed=seed,
    )
    est = montecarlo.run_simulation(config).estimates
    return {"mean": est.mean.tolist(), "cov": est.cov.tolist()}


def _mc_check(inp, out: dict, refs: dict) -> list[str]:
    problems = []
    mean = np.array(out["mean"], dtype=float)
    cov = np.array(out["cov"], dtype=float)
    # degrees 1, 3, 5 sit at indices 0, 2, 4 and vanish sample-wise
    if mean[0::2].any() or cov[0::2].any() or cov[:, 0::2].any():
        problems.append("odd-degree coordinates are not exactly 0.0")
    even = cov[1::2, 1::2]
    # >= 0, not > 0: under Rademacher entries Tr T_2 of DIII is a constant
    if not (np.isfinite(even).all() and (np.diag(even) >= 0).all()):
        problems.append("even-degree covariance is not finite with nonnegative variances")
    ref = refs.get(mc_key(inp))
    if ref is not None:
        for name in ("mean", "cov"):
            want = np.array(ref[name], dtype=float)
            got = np.array(out[name], dtype=float)
            if np.abs(got - want).max() > MC_TOLERANCE * np.abs(want).max():
                problems.append(f"{name} at the reference seed differs from the stored one")
    return problems


# -- exact grid ------------------------------------------------------------

# ("V", class, n, m) is V_n_exact, ("R", class, n, m) is cov_report.
# CI at n=12, m=5 is left out: that one cell takes longer than the rest.
GRID = (
    [("V", "CI", n, m) for n in (4, 6, 8, 10, 12) for m in (3, 4)]
    + [("V", "CI", n, 5) for n in (4, 6, 8, 10)]
    + [("V", "DIII", n, 4) for n in (4, 6, 8, 10, 12)]
    + [("R", "CI", 10, 4), ("R", "DIII", 10, 4)]
)
# Odd n never occurs in GRID, so set-up computes none of its cells.
GRID_WARMUP = [("V", "CI", 7, 3), ("V", "DIII", 7, 4), ("R", "CI", 7, 4),
               ("V", "CI", 5, 5), ("R", "DIII", 9, 4)]


def _key(cell) -> str:
    return "/".join(str(x) for x in cell)


def _grid_inputs(seed: int) -> list:
    cells = list(GRID)
    random.Random(seed).shuffle(cells)
    return [cells]


def _grid_run(cells, scratch: str) -> dict:
    out = {}
    for kind, cls, n, m in cells:
        sym = SymmetryClass[cls]
        if kind == "V":
            out[_key((kind, cls, n, m))] = covariance.V_n_exact(sym, n, m, GAUSSIAN)
        else:
            rep = covariance.cov_report(sym, n, m, GAUSSIAN)
            out[_key((kind, cls, n, m))] = {
                "v_n": rep.v_n,
                "sign_sums": {t.label: t.sign_sum for t in rep.per_g},
            }
    return out


def _grid_check(cells, out: dict, refs: dict) -> list[str]:
    problems = []
    for cell in cells:
        key = _key(cell)
        if cell[0] == "V" and cell[3] % 2 == 1 and out[key] != 0.0:
            problems.append(f"{key}: odd degree is not exactly 0.0")
        if key not in refs:
            problems.append(f"{key}: no stored reference")
        elif out[key] != refs[key]:
            problems.append(f"{key}: differs from the stored exact value")
    return problems


# -- oracles ---------------------------------------------------------------

# (class, n, m, mu).  CI at n=4 enumerates 2^20 configurations.
ORACLES = [("CI", 4, 6, 6), ("DIII", 4, 4, 4), ("DIII", 4, 4, 6), ("DIII", 4, 6, 6)]
ORACLE_WARMUP = [("CI", 3, 4, 4), ("CI", 3, 4, 6), ("CI", 3, 6, 6)]


def _oracle_inputs(seed: int) -> list:
    cells = list(ORACLES)
    random.Random(seed).shuffle(cells)
    return [cells]


def _oracle_run(cells, scratch: str) -> dict:
    caches: dict = {}  # the moment oracle's power covariances, per (class, n)
    out = {}
    for cls, n, m, mu in cells:
        sym = SymmetryClass[cls]
        out[_key((cls, n, m, mu))] = {
            "config": covariance.cov_traces_config_oracle(sym, n, m, mu, RADEMACHER),
            "moment": covariance.cov_cheb_moment_oracle(
                sym, n, m, mu, RADEMACHER, cache=caches.setdefault((cls, n), {})
            ),
        }
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_TOLERANCE * max(abs(a), abs(b))


def _oracle_check(cells, out: dict, refs: dict) -> list[str]:
    problems = []
    for cell in cells:
        key = _key(cell)
        got = out[key]
        if not all(math.isfinite(v) for v in got.values()):
            problems.append(f"{key}: oracle value is not finite")
        elif not _close(got["config"], got["moment"]):
            problems.append(f"{key}: config and moment oracles disagree")
        if key not in refs:
            problems.append(f"{key}: no stored reference")
        elif not all(_close(got[k], refs[key][k]) for k in ("config", "moment")):
            problems.append(f"{key}: differs from the stored value")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_desk", False, _mc_inputs(DESK_SAMPLES),
                 (REFERENCE_SEED, 800), _desk_run, _mc_check),
        Workload("mc_wide", False, _mc_inputs(WIDE_SAMPLES),
                 (REFERENCE_SEED, 100_000), _wide_run, _mc_check),
        Workload("exact_grid", True, _grid_inputs, GRID_WARMUP, _grid_run, _grid_check),
        Workload("oracles", True, _oracle_inputs, ORACLE_WARMUP, _oracle_run, _oracle_check),
    )
}
