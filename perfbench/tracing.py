"""Outside-in tracing for the benchmark's traced run.

Nothing under src/ knows about this module.  `install` replaces names at
the boundaries between symmwig's modules with wrappers that record a span
(name, start, end, parent, thread) per call, and proxies the `np` name in
symmwig.montecarlo so that `matmul` and `einsum` calls are timed and
counted.  Spans stay in memory until the run writes them out; per-layer
metrics, self times included, are derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = math.nan
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "thread": self.thread, "start": self.start, "end": self.end,
        }


class Tracer:
    """Span store plus timed leaf calls and counters, safe across threads.

    A span opened on a worker thread whose own stack is empty takes the
    innermost open span of the installing thread as its parent: the pool
    runs that work on the caller's behalf.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enclosing(self, name: str) -> Optional[Span]:
        """Innermost open span of this name on the calling thread."""
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def _open(self, name: str, args: dict) -> Span:
        stack = self._stack()
        cause = stack or self._main_stack
        parent = cause[-1].id if cause else None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(),
                        time.perf_counter(), args=args)
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        keep_args: tuple[str, ...] = (),
        on_return: Optional[Callable[[Span, object], None]] = None,
    ) -> None:
        """Replace owner.attr by a span-recording wrapper.

        A name the program no longer has is listed in `missing`; the
        metrics that depend on it then read 0.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        sig = inspect.signature(original) if keep_args else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            kept = {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                kept = {k: bound.arguments[k] for k in keep_args}
            span = self._open(name, kept)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(span, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set owner.attr until `restore`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class NumpyProxy:
    """Stands in for `np` inside one module; times matmul and einsum."""

    def __init__(self, numpy_module, tracer: Tracer) -> None:
        self._np = numpy_module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._np, name)

    def matmul(self, a, b, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._np.matmul(a, b, *args, **kwargs)
        dt = time.perf_counter() - t0
        # computed, not measured: 2 flop per multiply-add, out.size * inner
        flop = 2 * out.size * self._np.shape(a)[-1]
        self._tracer.add("matmul.calls", 1)
        self._tracer.add("matmul.s", dt)
        self._tracer.add("matmul.flop", flop)
        return out

    def einsum(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._np.einsum(*args, **kwargs)
        self._tracer.add("einsum.s", time.perf_counter() - t0)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import numpy as np
    from symmwig import cli, covariance, ensemble, montecarlo
    from symmwig.chebyshev import cheb_coefficients

    def count_draw(span: Span, values) -> None:
        tracer.add("draw.values", np.size(values))

    def count_walks(span: Span, group) -> None:
        # one dihedral_group call per enumeration pass; computed count
        for owner in ("covariance.V_n_exact", "covariance.cov_report"):
            cell = tracer.enclosing(owner)
            if cell is not None:
                tracer.add("walks", len(group) * (2 * cell.args["n"]) ** span.args["m"])
                return

    def count_configs(span: Span, value) -> None:
        cls, n, model = (span.args[k] for k in ("symmetry_class", "n", "model"))
        classes = len(ensemble.build_equivalence_classes(cls, n))
        tracer.add("configs", len(model.finite_support) ** classes)

    def count_terms(span: Span, value) -> None:
        nonzero = [
            sum(1 for c in cheb_coefficients(d, 1.0).coeffs[1:] if c)
            for d in (span.args["m"], span.args["mu"])
        ]
        tracer.add("power_cov.requested", nonzero[0] * nonzero[1])

    tracer.replace(montecarlo, "np", NumpyProxy(np, tracer))

    w = tracer.wrap
    w(cli, "dispatch", "cli.dispatch")
    w(cli, "run_simulation", "montecarlo.run_simulation")
    w(cli, "clt_report", "montecarlo.grade")
    w(cli, "theory_vector", "montecarlo.grade")
    w(montecarlo, "run_simulation", "montecarlo.run_simulation")
    w(montecarlo, "_run_block", "montecarlo.block")
    w(montecarlo, "estimate_cumulants", "montecarlo.estimate_cumulants")
    w(montecarlo.MomentAccumulator, "add_batch", "montecarlo.add_batch")
    w(montecarlo, "derive_rng", "ensemble.derive_rng")
    w(montecarlo, "class_tables", "ensemble.class_tables")
    w(ensemble.EntryModel, "draw", "ensemble.draw", on_return=count_draw)
    w(covariance, "class_tables", "ensemble.class_tables")
    w(covariance, "build_equivalence_classes", "ensemble.build_equivalence_classes")
    w(covariance, "dihedral_group", "patterns.dihedral_group",
      keep_args=("m",), on_return=count_walks)
    w(covariance, "cheb_coefficients", "chebyshev.cheb_coefficients")
    w(covariance, "V_n_exact", "covariance.V_n_exact", keep_args=("n", "m"))
    w(covariance, "cov_report", "covariance.cov_report", keep_args=("n", "m"))
    w(covariance, "cov_traces_config_oracle", "covariance.config_oracle",
      keep_args=("symmetry_class", "n", "model"), on_return=count_configs)
    w(covariance, "cov_cheb_moment_oracle", "covariance.moment_oracle",
      keep_args=("m", "mu"), on_return=count_terms)
    w(covariance, "cov_traces_moment_oracle", "covariance.power_cov")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its direct children
    (children on other threads included, overlaps counted once)."""
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _union_length(
            [(max(lo, s.start), min(hi, s.end)) for lo, hi in kids[s.id]]
        )
        for s in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, by the names BENCHMARK.json lists."""
    spans = tracer.spans
    own = self_times(spans)
    c = tracer.counters
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    v_exact: dict[int, float] = defaultdict(float)
    exact_top = 0.0
    for s in spans:
        busy[s.name] += s.duration
        calls[s.name] += 1
        selfs[s.name] += own[s.id]
        if s.name in ("covariance.V_n_exact", "covariance.cov_report"):
            if s.parent is None or spans[s.parent].name != "covariance.cov_report":
                exact_top += s.duration
            if s.name == "covariance.V_n_exact":
                v_exact[s.args["m"]] += s.duration

    kernel_self = selfs["montecarlo.run_simulation"] + selfs["montecarlo.block"]
    requested = c["power_cov.requested"]
    power_calls = calls["covariance.power_cov"]
    return {
        "montecarlo.run_simulation_s": busy["montecarlo.run_simulation"],
        "montecarlo.kernel_self_s": kernel_self,
        "montecarlo.matmul_s": c["matmul.s"],
        "montecarlo.matmul_calls": int(c["matmul.calls"]),
        "montecarlo.matmul_gflop": c["matmul.flop"] / 1e9,
        "montecarlo.matmul_gflop_per_s": _ratio(c["matmul.flop"] / 1e9, c["matmul.s"]),
        "montecarlo.trace_s": c["einsum.s"],
        "montecarlo.assemble_s": kernel_self - c["matmul.s"] - c["einsum.s"],
        "montecarlo.accumulate_s": busy["montecarlo.add_batch"],
        "montecarlo.jackknife_s": busy["montecarlo.estimate_cumulants"],
        "montecarlo.grade_s": busy["montecarlo.grade"],
        "ensemble.draw_s": busy["ensemble.draw"],
        "ensemble.draw_values": int(c["draw.values"]),
        "ensemble.derive_rng_s": busy["ensemble.derive_rng"],
        "ensemble.class_tables_calls": calls["ensemble.class_tables"],
        "ensemble.class_tables_s": busy["ensemble.class_tables"],
        "ensemble.equiv_classes_calls": calls["ensemble.build_equivalence_classes"],
        "patterns.dihedral_group_calls": calls["patterns.dihedral_group"],
        "covariance.v_exact_m3_s": v_exact[3],
        "covariance.v_exact_m4_s": v_exact[4],
        "covariance.v_exact_m5_s": v_exact[5],
        "covariance.cov_report_s": busy["covariance.cov_report"],
        "covariance.walks": int(c["walks"]),
        "covariance.walks_per_s": _ratio(c["walks"], exact_top),
        "covariance.config_oracle_s": busy["covariance.config_oracle"],
        "covariance.configs": int(c["configs"]),
        "covariance.configs_per_s": _ratio(c["configs"], busy["covariance.config_oracle"]),
        "covariance.moment_oracle_s": busy["covariance.moment_oracle"],
        "covariance.power_cov_calls": power_calls,
        "covariance.power_cov_s": busy["covariance.power_cov"],
        "covariance.power_cache_hit_ratio": _ratio(requested - power_calls, requested),
        "chebyshev.cheb_coefficients_calls": calls["chebyshev.cheb_coefficients"],
        "cli.self_s": selfs["cli.dispatch"],
    }


# Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = (
    "montecarlo.matmul_calls",
    "montecarlo.matmul_gflop",
    "covariance.walks",
    "covariance.configs",
    "ensemble.class_tables_calls",
    "patterns.dihedral_group_calls",
    "covariance.power_cov_calls",
)
