"""Regenerate references.json from the package as it is now.

    python3 perfbench/make_references.py

Run it only on a commit whose numbers are trusted: every later benchmark
run checks its outputs against this file.  The exact grid and oracle
cells, set-up cells included, are stored in full; the Monte Carlo
workloads store the estimates of their set-up job, which runs at a fixed
seed.
"""

import json
import os
import sys
import tempfile

import run  # noqa: F401  (pins BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402


def main() -> None:
    wl = workloads.WORKLOADS
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        refs = {
            name: {workloads.mc_key(wl[name].warmup): wl[name].run(wl[name].warmup, scratch)}
            for name in ("mc_desk", "mc_wide")
        }
        refs["exact_grid"] = wl["exact_grid"].run(workloads.GRID + workloads.GRID_WARMUP, scratch)
        refs["oracles"] = wl["oracles"].run(workloads.ORACLES + workloads.ORACLE_WARMUP, scratch)
    for cls in ("CI", "DIII"):  # cov_report's total is V_n_exact at the same cell
        grid = refs["exact_grid"]
        assert grid[f"R/{cls}/10/4"]["v_n"] == grid[f"V/{cls}/10/4"]
    path = os.path.join(run.HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
