"""Command-line front door: subcommands, config files, CSV/JSON artifacts.

Every table is CSV with '.' decimals and 12 significant digits, so runs
can be diffed. With --out, the table lands at the given path, a JSON
result document (where the subcommand produces one) at <out>.json, and
the run manifest at <out>.manifest.json; without --out the table goes
to stdout and no files are written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .chebyshev import trace_cheb_vector
from .covariance import (
    BudgetError,
    V_asymptotic,
    V_n_exact,
    cov_cheb_moment_oracle,
    cov_traces_config_oracle,
)
from .ensemble import (
    EntryModel,
    ScaleMismatch,
    SymmetryClass,
    _to_float,
    build_equivalence_classes,
    sample_matrix,
)
from .montecarlo import (
    SimulationConfig,
    _blas_threads,
    _check_thresholds,
    clt_report,
    run_simulation,
    theory_vector,
    threadpool_limits,
)
from .patterns import CONDITIONS, FILTERS, DeltaMatrix, enumerate_delta_sequences

SCHEMA = "symmwig/1"

VARIANCE_MODES = ("exact", "asymptotic", "oracle")
ORACLE_KINDS = ("config", "moment")


def _environment() -> dict:
    """Python, numpy and BLAS behind a run, the BLAS thread count outside
    a run, and whether run_simulation pins BLAS to one thread (it can
    wherever numpy's OpenBLAS thread functions were found)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_pinned": threadpool_limits is not None,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.12g" % value
    return str(value)


def _write_csv(stream, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])


# ---------------------------------------------------------------------------
# option resolution: defaults < config file < explicit flags


@dataclass(frozen=True)
class _Opt:
    name: str
    conv: Callable[[str], object]
    default: object = None
    required: bool = False
    help: str = ""


def _to_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}")


def _to_class(raw: str) -> SymmetryClass:
    return SymmetryClass.parse(raw)


def _choice(*allowed: str) -> Callable[[str], str]:
    def conv(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}; got {raw!r}")
        return raw

    return conv


def _to_delta(raw: str) -> DeltaMatrix:
    return DeltaMatrix.from_string(raw)


def _to_family(raw: str) -> str:
    EntryModel.parse(raw)
    return raw


def load_config(path: str) -> dict[str, tuple[int, str]]:
    """Parse a key=value config file into {key: (line number, raw value)}.

    '#' starts a comment, blank lines are skipped, later duplicates win.
    """
    entries: dict[str, tuple[int, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, eq, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not eq or not key or not raw:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            entries[key] = (lineno, raw)
    return entries


def _resolve(opts: Sequence[_Opt], ns: argparse.Namespace) -> dict:
    by_name = {o.name: o for o in opts}
    values: dict = {}
    if ns.config is not None:
        for key, (lineno, raw) in load_config(ns.config).items():
            opt = by_name.get(key)
            if opt is None:
                raise ValueError(f"{ns.config}:{lineno}: unknown key {key!r}")
            try:
                values[key] = opt.conv(raw)
            except ValueError as exc:
                raise ValueError(f"{ns.config}:{lineno}: {key}: {exc}")
    for opt in opts:
        raw = getattr(ns, opt.name.replace("-", "_"))
        if raw is not None:
            try:
                values[opt.name] = opt.conv(raw)
            except ValueError as exc:
                raise ValueError(f"--{opt.name}: {exc}")
    for opt in opts:
        if opt.name not in values:
            if opt.required:
                raise ValueError(f"missing required --{opt.name}")
            values[opt.name] = opt.default
    return values


def _resolve_threads(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("SYMMWIG_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SYMMWIG_THREADS={env!r} is not an integer")
    return 1


# ---------------------------------------------------------------------------
# artifact emission


def _manifest_params(values: dict) -> dict:
    params = {}
    for key, val in values.items():
        if isinstance(val, SymmetryClass):
            params[key] = val.value
        elif isinstance(val, DeltaMatrix):
            params[key] = str(val)
        else:
            params[key] = val
    return params


def _emit(
    subcommand: str,
    values: dict,
    header: Sequence[str],
    rows: Sequence[Sequence],
    json_doc: Optional[dict] = None,
    seed: Optional[int] = None,
) -> None:
    out = values.get("out")
    if out is None:
        _write_csv(sys.stdout, header, rows)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, header, rows)
    if json_doc is not None:
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(json_doc, fh, indent=2)
            fh.write("\n")
    # what was run, with every parameter resolved: replaying the manifest of
    # an exact-mode command reproduces its table byte for byte, and for Monte
    # Carlo commands the seed makes reruns bit-identical as well
    manifest = {
        "schema": SCHEMA,
        "subcommand": subcommand,
        "parameters": _manifest_params(values),
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": _environment(),
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classes(values: dict) -> int:
    cls, n = values["class"], values["n"]
    rows = []
    for c in build_equivalence_classes(cls, n):
        members = ";".join(f"{p}:{q}" for p, q in c.members)
        signs = ";".join(str(s) for s in c.signs)
        rows.append([cls.value, n, c.index, c.kind, c.a, c.b, len(c.members), members, signs])
    header = ["class", "n", "index", "kind", "a", "b", "size", "members", "signs"]
    _emit("classes", values, header, rows)
    return 0


def _patterns_closed_form(m: int, condition: str, filt: str, pinned: bool) -> Optional[int]:
    if filt == "all":
        return 2 ** (m + 1)
    if condition == "forward" and filt == "identical-rows":
        return 2**m
    if condition == "forward" and filt == "identical-rows-alpha1":
        return 2 ** (m - 1)
    if filt == "tau-realizable" and pinned:
        return 2 ** (m - 2)
    return None


def _cmd_patterns(values: dict) -> int:
    m, condition, filt = values["m"], values["condition"], values["filter"]
    first = values["first-delta"]
    filter_name = None if filt == "all" else filt
    _, count = enumerate_delta_sequences(m, condition, filter_name, first)
    expected = _patterns_closed_form(m, condition, filt, first is not None)
    match = None if expected is None else (count == expected)
    rows = [[m, condition, filt, count, expected, match]]
    header = ["m", "condition", "filter", "count", "closed_form", "match"]
    _emit("patterns", values, header, rows)
    return 0


def _cmd_variance(values: dict) -> int:
    cls, m, mode = values["class"], values["m"], values["mode"]
    model = EntryModel.parse(values["family"], values["sigma"])
    budget = {} if values["budget"] is None else {"budget": values["budget"]}
    n = values["n"]
    if mode == "asymptotic":
        value, flag = V_asymptotic(cls, m, model)
    else:
        if n is None:
            raise ValueError(f"--n is required for mode {mode!r}")
        if mode == "exact":
            value = V_n_exact(cls, n, m, model, **budget)
        else:
            value = cov_cheb_moment_oracle(cls, n, m, m, model, **budget)
        flag = "finite-n"
    rows = [[cls.value, n, m, value, mode, flag]]
    header = ["class", "n", "m", "value", "mode", "flag"]
    _emit("variance", values, header, rows)
    return 0


def _cmd_oracle(values: dict) -> int:
    cls, n, m, mu = values["class"], values["n"], values["m"], values["mu"]
    model = EntryModel.parse(values["family"], values["sigma"])
    budget = {} if values["budget"] is None else {"budget": values["budget"]}
    if values["kind"] == "config":
        value = cov_traces_config_oracle(cls, n, m, mu, model, **budget)
    else:
        value = cov_cheb_moment_oracle(cls, n, m, mu, model, **budget)
    rows = [[cls.value, n, m, mu, value, values["kind"]]]
    header = ["class", "n", "m", "mu", "value", "oracle"]
    _emit("oracle", values, header, rows)
    return 0


def _simulation(values: dict):
    config = SimulationConfig(
        symmetry_class=values["class"],
        n=values["n"],
        sigma=values["sigma"],
        M=values["M"],
        samples=values["samples"],
        seed=values["seed"],
        family=values["family"],
        parallelism=_resolve_threads(values["threads"]),
    )
    # the limits first: a scale whose powers overflow fails before sampling
    theory = theory_vector(config.symmetry_class, config.M, config.model)
    return config, run_simulation(config), theory


def _clean(x):
    """x with arrays and tuples as lists, walked through dicts, and NaN/inf,
    which have no JSON spelling, as null."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _report_json(subcommand: str, config, result, report) -> dict:
    return _clean({
        "schema": SCHEMA,
        "subcommand": subcommand,
        "config": {
            "class": config.symmetry_class.value,
            "n": config.n,
            "sigma": config.model.sigma,
            "M": config.M,
            "samples": config.samples,
            "seed": config.seed,
            "family": config.family,
            "parallelism": config.parallelism,
        },
        "wall_time": result.wall_time,
        **asdict(result.estimates),
        "report": asdict(report),
    })


def _cmd_simulate(values: dict) -> int:
    config, result, theory = _simulation(values)
    report = clt_report(result, theory)
    rows = [
        [r.degree, r.var_est, r.var_se, r.theory, r.flag, r.z, r.k3, r.k4]
        for r in report.rows
    ]
    header = ["degree", "var_est", "var_se", "theory", "flag", "z", "k3", "k4"]
    doc = _report_json("simulate", config, result, report)
    _emit("simulate", values, header, rows, json_doc=doc, seed=config.seed)
    return 0


def _cmd_report(values: dict) -> int:
    thresholds = {k.replace("-", "_"): values[k] for k in ("z-max", "odd-ceiling", "rel-window")}
    _check_thresholds(**thresholds)  # a bad threshold fails before sampling
    config, result, theory = _simulation(values)
    report = clt_report(result, theory, **thresholds)
    rows = [
        ["var", r.degree, None, r.var_est, r.var_se, r.theory, r.flag, r.z, r.k3, r.k4, r.passed, r.note]
        for r in report.rows
    ]
    for p in report.offdiag:
        rows.append(
            ["cov", p.m, p.mu, p.cov_est, p.cov_se, 0.0, "theorem", p.z, None, None, p.passed, ""]
        )
    header = [
        "kind", "degree", "mu", "estimate", "se", "target",
        "flag", "z", "k3", "k4", "passed", "note",
    ]
    doc = _report_json("report", config, result, report)
    _emit("report", values, header, rows, json_doc=doc, seed=config.seed)
    return 0


def _cmd_traces(values: dict) -> int:
    model = EntryModel.parse(values["family"], values["sigma"])
    X = sample_matrix(values["class"], values["n"], model, values["seed"])
    traces = trace_cheb_vector(X, values["M"], model.sigma)
    rows = [[m + 1, float(t)] for m, t in enumerate(traces)]
    _emit("traces", values, ["degree", "trace"], rows, seed=values["seed"])
    return 0


_OUT_OPT = _Opt("out", str, help="write the table here (plus .json/.manifest.json)")
_SIGMA_OPT = _Opt("sigma", _to_float, help="entry scale (default 1; an atoms: law has its own)")

_SIMULATE_OPTS = [
    _Opt("class", _to_class, required=True),
    _Opt("n", _to_int, required=True),
    _SIGMA_OPT,
    _Opt("M", _to_int, default=6, help="highest Chebyshev degree"),
    _Opt("samples", _to_int, default=10_000),
    _Opt("seed", _to_int, default=0),
    _Opt("family", _to_family, default="gaussian"),
    _Opt("threads", _to_int, help="worker processes (default SYMMWIG_THREADS or 1)"),
]

# name -> (handler, description, options); handlers take the resolved values
_SUBCOMMANDS: dict[str, tuple[Callable[[dict], int], str, list[_Opt]]] = {
    "classes": (_cmd_classes, "list the signed entry equivalence classes", [
        _Opt("class", _to_class, required=True, help="symmetry class, DIII or CI"),
        _Opt("n", _to_int, required=True, help="half block size (matrices are 2n x 2n)"),
        _OUT_OPT,
    ]),
    "patterns": (_cmd_patterns, "count chained offset-matrix sequences against closed forms", [
        _Opt("m", _to_int, required=True, help="sequence length"),
        _Opt(
            "condition",
            _choice(*CONDITIONS),
            required=True,
            help="chaining condition",
        ),
        _Opt("filter", _choice(*FILTERS), default="all", help="count filter"),
        _Opt("first-delta", _to_delta, help="pin the first offset matrix, e.g. 01/10"),
        _OUT_OPT,
    ]),
    "variance": (_cmd_variance, "finite-n or limiting variance of a Chebyshev trace", [
        _Opt("class", _to_class, required=True),
        _Opt("m", _to_int, required=True, help="Chebyshev degree"),
        _Opt("mode", _choice(*VARIANCE_MODES), default="asymptotic"),
        _Opt("n", _to_int, help="required for exact/oracle modes"),
        _SIGMA_OPT,
        _Opt("family", _to_family, default="gaussian"),
        _Opt("budget", _to_int, help="enumeration budget: Bell(m)*2^(m-1) shape walks "
             "for exact mode (m >= 3), least-index walks for oracle mode"),
        _OUT_OPT,
    ]),
    "oracle": (_cmd_oracle, "exact covariance of two Chebyshev traces, by enumeration", [
        _Opt("class", _to_class, required=True),
        _Opt("n", _to_int, required=True),
        _Opt("m", _to_int, required=True, help="first Chebyshev degree"),
        _Opt("mu", _to_int, required=True, help="second Chebyshev degree"),
        _Opt("kind", _choice(*ORACLE_KINDS), default="moment"),
        _SIGMA_OPT,
        _Opt("family", _to_family, default="rademacher"),
        _Opt("budget", _to_int),
        _OUT_OPT,
    ]),
    "simulate": (_cmd_simulate, "Monte Carlo trace statistics with theory comparison", [
        *_SIMULATE_OPTS,
        _OUT_OPT,
    ]),
    "traces": (_cmd_traces, "Chebyshev traces of a single sampled matrix", [
        _Opt("class", _to_class, required=True),
        _Opt("n", _to_int, required=True),
        _Opt("seed", _to_int, default=0),
        _SIGMA_OPT,
        _Opt("M", _to_int, default=6),
        _Opt("family", _to_family, default="gaussian"),
        _OUT_OPT,
    ]),
    "report": (_cmd_report, "simulate, then grade against the limiting covariance", [
        *_SIMULATE_OPTS,
        _Opt("z-max", _to_float, default=3.0, help="z threshold"),
        _Opt("odd-ceiling", _to_float, default=0.5, help="variance ceiling, odd degrees"),
        _Opt("rel-window", _to_float, default=0.10, help="finite-size allowance, even degrees"),
        _OUT_OPT,
    ]),
}


class _Parser(argparse.ArgumentParser):
    # exit codes: 1 = bad usage/validation, 2 = budget exhaustion
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symmwig", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"symmwig {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, (_, description, opts) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, description=description)
        sub.add_argument("--config", help="key=value file; flags override it")
        for opt in opts:
            extra = " (required)" if opt.required else ""
            sub.add_argument(f"--{opt.name}", type=str, help=opt.help + extra)
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handler, _, opts = _SUBCOMMANDS[ns.subcommand]
    try:
        return handler(_resolve(opts, ns))
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: the result overflows a float", file=sys.stderr)
        return 1
    except ScaleMismatch as exc:
        # the command line sets the scale with --sigma
        print(f"error: the atom law has scale {exc.scale:g}; --sigma {exc.sigma:g} differs",
              file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
