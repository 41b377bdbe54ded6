"""symmwig benchmark: one workload in one process, tracing off or on.

    python3 perfbench/run.py --workload mc_desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Set-up (imports, input generation, a short set-up job at a fixed input)
is timed; input generation and the set-up job are repeated.  Timed jobs
run until --seconds have passed, except in the exact workloads, whose one
job per process computes every cell once.  With --trace 1 a single job
runs with spans recorded around the calls into each module (see
tracing.py), then again untraced at the same input, which gives the
tracing overhead and a repeat check.

Every output is checked (workloads.py); the last line of standard
output is one JSON object: correct, attempted, failed and the metrics
that BENCHMARK.json lists for the chosen mode.  Spans, counts and a full
record of the run go to .perfbench_out/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads: mc_wide's two workers then
# share the two cores without oversubscription, and mc_desk is the
# single-threaded baseline.  symmwig's own pin is a no-op when
# threadpoolctl is missing, so the environment has to do it.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"
os.environ["SYMMWIG_THREADS"] = "1"  # the CLI's worker count for mc_desk

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5


@dataclass
class Job:
    out: Optional[dict]
    wall: float
    cpu: float


class Ledger:
    """Runs jobs, checks their outputs and keeps the tally."""

    def __init__(self, workload, refs: dict, scratch: str) -> None:
        self.workload = workload
        self.refs = refs
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, inp: Any) -> Job:
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = self.workload.run(inp, self.scratch)
        except Exception:  # a job that raises is counted, the run goes on
            self.failed += 1
            self.problems.append(traceback.format_exc())
            return Job(None, time.perf_counter() - t0, time.process_time() - c0)
        job = Job(out, time.perf_counter() - t0, time.process_time() - c0)
        problems = self.workload.check(inp, out, self.refs)
        if problems:
            self.failed += 1
            self.problems += problems
        return job


def _blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, asked through numpy's loaded library."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:
        from numpy.core import _multiarray_umath as core
    lib = ctypes.CDLL(core.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    from symmwig import montecarlo

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threadpoolctl_imports": importlib.util.find_spec("threadpoolctl") is not None,
        "run_simulation_pins_blas": montecarlo.threadpool_limits is not None,
        "env": {v: os.environ[v] for v in BLAS_PINS + ("SYMMWIG_THREADS",)},
    }


def _code_hash() -> str:
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _write_json(path: str, doc) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def counts_repeat(name: str, counts: dict) -> list[str]:
    """The exact counts of this traced run against the last traced run of
    the same workload on the same code (benchmark and package)."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path, encoding="utf-8") as fh:
            book = json.load(fh)
    except FileNotFoundError:
        book = {}
    code = _code_hash()
    last = book.get(name)
    book[name] = {"code": code, "counts": counts}
    _write_json(path, book)
    if last is not None and last["code"] == code and last["counts"] != counts:
        return [f"exact counts changed between runs: {last['counts']} then {counts}"]
    return []


def timed_run(workload, ledger: Ledger, inputs: list, seconds: float) -> tuple[dict, list]:
    walls = []
    start = time.perf_counter()
    for inp in inputs:
        walls.append(ledger.run(inp).wall)
        if workload.one_job_per_process or time.perf_counter() - start >= seconds:
            break
    return {"wall_s": statistics.median(walls)}, walls


def traced_run(workload, ledger: Ledger, inputs: list, spans_path: str) -> tuple[dict, list]:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = ledger.run(inputs[0])
    finally:
        tracer.restore()
    # Untraced second, so the traced job is the one that does the work even
    # if a later version caches results within a process.
    plain = ledger.run(inputs[0])
    if traced.out != plain.out:
        ledger.problems.append("traced and untraced jobs at the same input differ")
    metrics = tracing.layer_metrics(tracer)
    metrics["montecarlo.cpu_per_wall"] = plain.cpu / plain.wall
    metrics["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
    ledger.problems += counts_repeat(
        workload.name, {k: metrics[k] for k in tracing.EXACT_COUNTS}
    )
    _write_json(spans_path, {
        "spans": [s.to_json() for s in tracer.spans],
        "counters": dict(tracer.counters),
        "missing": tracer.missing,
    })
    for name in tracer.missing:
        print(f"not traced: {name} no longer exists; its metrics read 0", file=sys.stderr)
    return metrics, [traced.wall, plain.wall]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import symmwig

    if not os.path.abspath(symmwig.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"symmwig imported from {symmwig.__file__}, not from {SRC}")
    import workloads

    import_s = time.perf_counter() - _T0
    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[workload.name]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        ledger = Ledger(workload, refs, scratch)
        # All set-up repeats run before the first timed job: after a large
        # job the heap is already grown and the set-up job runs up to twice
        # as fast, which is not the cost a fresh process pays.
        setup, warm = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.inputs(args.seed)
            warm.append(ledger.run(workload.warmup).out)
            setup.append(time.perf_counter() - t0)
        if any(out != warm[0] for out in warm):
            ledger.problems.append("set-up job repeated at one input is not bit-identical")
        if args.trace:
            values, walls = traced_run(workload, ledger, inputs, os.path.join(OUT, f"spans-{tag}.json"))
            wanted = spec["per_layer"]
        else:
            values, walls = timed_run(workload, ledger, inputs, args.seconds)
            values["setup_s"] = import_s + statistics.median(setup)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["ok_frac"] = (ledger.attempted - ledger.failed) / ledger.attempted
            wanted = spec["end_to_end"]

    env = environment()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    _write_json(os.path.join(OUT, f"result-{tag}.json"), {
        **result,
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "failed_frac": ledger.failed / ledger.attempted,
        "import_s": import_s, "setup_repeats_s": setup, "job_walls_s": walls,
        "problems": ledger.problems, "environment": env,
    })
    for problem in ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"jobs timed: {len(walls)}, walls (s): {walls}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
