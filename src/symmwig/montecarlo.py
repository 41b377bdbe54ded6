"""Parallel, reproducible sampling of trace-fluctuation vectors.

A run draws N independent matrices, evaluates the vector
(Tr T_1, ..., Tr T_M) on each, and accumulates power and cross sums of its
deviation from one fixed shift in fixed blocks.  Blocks are the unit of
everything: each owns an independent seed stream derived from the run seed
and its index, workers may compute them in any order, and the reduction
always merges them in index order, so the result is bit-identical at any
parallelism level.
The blocks double as jackknife resamples for the standard errors.
At parallelism p > 1 the blocks run in a pool of min(p, blocks) worker
processes forked from the caller (threads would serialise on the
interpreter lock between the kernel's many short numpy calls); where the
fork start method is unavailable they run in-process, with the same result.

Both symmetry classes are conjugation-odd (J X J^{-1} = -X), so odd-degree
traces vanish sample-wise and are emitted as exact zeros.  Every sample is
W = [[X1, X2], [X2, -X1]] (X = i W / sqrt(2n) in DIII, W / sqrt(2n) in CI),
so W^2 = [[P, Q], [-Q, P]] with P = X1^2 + X2^2 symmetric and
Q = X1 X2 - X2 X1 antisymmetric, in either class.  Every even T_{2j} is a
polynomial in W^2 and keeps that form, so its top n rows [P | Q] fix it:
Tr T = 2 Tr P and <T, T'>_F = 2 <top T, top T'>_F.  The kernel therefore
holds only top halves, and every product yields n rows, never 2n:

- top(T_2) is top(W) W, scaled and shifted in place: half the flops of W W.
- The product rule T_a T_b = T_{a+b} + sigma^{2b} T_{a-b} (a >= b >= 1,
  T_0 = 2I) gives Tr T_{a+b} = <T_a, T_b>_F - sigma^{2b} Tr T_{a-b}, since
  the trace of a product of symmetric matrices is their Frobenius inner
  product.  So Tr T_4 takes no product at all.
- Tr T_6 follows the cube rule T_6 = T_2^3 - 3 sigma^4 T_2 with
  Tr T_2^3 = 2(<P P, P> + 3 <P Q, Q>), P and Q the blocks of T_2: one
  n x n by n x 2n product P [P | Q], a quarter of a full one.  At the
  default M = 6 a sample costs 12 n^3 flops instead of the 32 n^3 of two
  full 2n x 2n products.
- Beyond degree 7, top(T_{2j}) = top(T_{2j-2}) full(T_2) - sigma^4
  top(T_{2j-4}) for j <= h = ceil(floor(M/2) / 2), and the even traces
  beyond 2h come from Frobenius products of top halves.  Every T_{2j}
  commutes with T_2 (both are polynomials in W^2), so the right factor is
  always full(T_2) = [[P, Q], [-Q, P]]: it is the only full matrix, written
  once per call over the spent W.  Either way a call forms h products.

Each block is walked in sub-batches of SUB_BATCH_ENTRIES matrix entries per
stack, drawn one after another from the block's own generator.  Every
family's draws are chunk-invariant, so the sample stream is the one a
block-wide draw would give, and memory does not grow with the sample count.
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .covariance import V_asymptotic
from .ensemble import (
    BlockLayout,
    EntryModel,
    SymmetryClass,
    _check_size,
    block_layout,
    derive_rng,
)

__all__ = [
    "SimulationConfig",
    "MomentAccumulator",
    "SimulationResult",
    "CumulantEstimates",
    "CLTRow",
    "CLTPair",
    "CLTReport",
    "run_simulation",
    "merge",
    "estimate_cumulants",
    "clt_report",
]

N_BLOCKS = 100  # fixed work/seed/jackknife unit
SUB_BATCH_ENTRIES = 2**16  # matrix entries per stack in one kernel call


def _openblas_thread_calls():
    """numpy's OpenBLAS get_num_threads and set_num_threads, through ctypes;
    without OpenBLAS (an MKL or BLIS build), a get of None and a no-op set."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        lib = None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                           ("openblas_", "64_"), ("openblas_", "")):
        calls = [getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
                 for verb in ("get", "set")]
        if None not in calls:
            return calls  # int(void) and void(int): ctypes' defaults fit
    return (lambda: None), (lambda count: None)


_blas_threads, _set_blas_threads = _openblas_thread_calls()  # once per process


@contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside, the caller's count back on exit."""
    before = _blas_threads()
    _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(before)


# the name stays because perfbench/run.py reads it to report the pin
threadpool_limits = None if _blas_threads() is None else _one_blas_thread


@dataclass(frozen=True)
class SimulationConfig:
    """One run's inputs; ``EntryModel.parse(family, sigma)`` resolves the law
    once into ``model`` (sigma None: scale 1, or an atom law's own)."""

    symmetry_class: SymmetryClass
    n: int
    sigma: Optional[float] = None
    M: int = 6
    samples: int = 10_000
    seed: int = 0
    family: str = "gaussian"
    parallelism: int = 1
    model: EntryModel = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.symmetry_class, str):
            object.__setattr__(
                self, "symmetry_class", SymmetryClass.parse(self.symmetry_class)
            )
        if self.samples < 3:  # every jackknife replicate keeps 2 samples
            raise ValueError("need at least 3 samples")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.M > 512:  # the block sums hold 100 M x M floats, 200 MiB at 512
            raise ValueError("M must be <= 512")
        _check_size(self.symmetry_class, self.n)
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        # a bad law is rejected here, not inside a worker
        object.__setattr__(self, "model", EntryModel.parse(self.family, self.sigma))


@dataclass
class MomentAccumulator:
    """Mergeable sums of an M-vector stream, through fourth order, taken
    about a fixed ``shift`` (zero by default): s1 sums t - shift, s2 its
    square, and so on.  A shift near the mean keeps the sums small, and a
    coordinate equal to its shift sums to exactly zero."""

    M: int
    count: int = 0
    s1: np.ndarray = field(default=None)  # type: ignore[assignment]
    s2: np.ndarray = field(default=None)  # type: ignore[assignment]
    s3: np.ndarray = field(default=None)  # type: ignore[assignment]
    s4: np.ndarray = field(default=None)  # type: ignore[assignment]
    cross: np.ndarray = field(default=None)  # type: ignore[assignment]
    shift: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for name in ("s1", "s2", "s3", "s4", "shift"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.M))
        if self.cross is None:
            self.cross = np.zeros((self.M, self.M))

    @np.errstate(over="ignore", invalid="ignore")  # overflow is caught on the merged sums
    def add_batch(self, t: np.ndarray) -> None:
        """Accumulate a (batch, M) matrix of sample vectors."""
        if t.ndim != 2 or t.shape[1] != self.M:
            raise ValueError("batch shape disagrees with accumulator")
        self.count += t.shape[0]
        d = t - self.shift  # the odd and fourth powers overwrite d and d2
        self.s1 += d.sum(axis=0)
        self.cross += d.T @ d
        d2 = d * d
        self.s2 += d2.sum(axis=0)
        self.s3 += np.multiply(d2, d, out=d).sum(axis=0)
        self.s4 += np.multiply(d2, d2, out=d2).sum(axis=0)


def _sums(acc: MomentAccumulator) -> tuple:
    """s1..s4 and cross, in the constructor's order."""
    return acc.s1, acc.s2, acc.s3, acc.s4, acc.cross


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught on the merged sums
def merge(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    """Combine two accumulators; equals accumulating both streams."""
    if a.M != b.M:
        raise ValueError("accumulator shapes disagree")
    if not np.array_equal(a.shift, b.shift):
        raise ValueError("accumulator shifts disagree")
    sums = (x + y for x, y in zip(_sums(a), _sums(b)))
    return MomentAccumulator(a.M, a.count + b.count, *sums, a.shift)


@dataclass(frozen=True)
class CumulantEstimates:
    count: int
    mean: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray
    k3: np.ndarray
    k3_se: np.ndarray
    k4: np.ndarray
    k4_se: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig
    estimates: CumulantEstimates
    blocks: tuple[MomentAccumulator, ...] = field(repr=False)
    wall_time: float = 0.0


# -- trace evaluation ----------------------------------------------------------


def _trace_vectors(
    symmetry_class: SymmetryClass,
    draws: np.ndarray,
    sigma: float,
    M: int,
    layout: BlockLayout,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(batch, M) traces of T_1..T_M at each assembled sample.

    ``work`` is scratch from ``_workspace`` for at least batch rows; W and
    the top halves are built in it, and it is allocated here when None.
    """
    dim = layout.dim
    n = dim // 2
    B = draws.shape[0]
    out = np.zeros((B, M))
    K = M // 2  # even degrees 2, 4, ..., 2K
    if K == 0:
        return out
    h = _half_stacks(M)
    if work is None:
        work = _workspace(M, B, dim)
    W = work[: B * dim * dim].reshape(B, dim, dim)
    tops = work[B * dim * dim : B * dim * (dim + h * n)].reshape(h, B, n, dim)
    s2 = sigma * sigma
    s4 = s2 * s2
    layout.assemble(draws, out=W)
    # X = i W / sqrt(dim) or W / sqrt(dim); either way the top rows of
    # T_2 = X^2 - 2 sigma^2 I are [P | Q] = top(W W) scaled and shifted in place
    T2 = np.matmul(W[:, :n], W, out=tops[0])
    T2 *= symmetry_class.pair_unit / dim
    _diagonal(T2)[...] -= 2.0 * s2
    P, Q = T2[..., :n], T2[..., n:]
    # tops[j - 1] holds top(T_{2j}) for j <= f; for floor(M/2) > 3 every
    # top(T_{2j}), j <= h, is top(T_{2j-2}) full(T_2) - sigma^4 top(T_{2j-4}),
    # with full(T_2) = [[P, Q], [-Q, P]] written over the spent W
    f = h if K > 3 else 1
    if K > 3:
        W[:, :n] = T2
        np.negative(Q, out=W[:, n:, :n])
        W[:, n:, n:] = P
        for j in range(2, h + 1):
            nxt = np.matmul(tops[j - 2], W, out=tops[j - 1])
            if j == 2:
                _diagonal(nxt)[...] -= 2.0 * s4  # sigma^4 top(T_0)
            else:
                nxt -= s4 * tops[j - 3]
    # half traces, Tr P for every T = [[P, Q], [-Q, P]]; doubled at the end
    for d in range(1, min(K, 2 * f) + 1):
        if d <= f:
            np.einsum("bii->b", tops[d - 1][..., :n], out=out[:, 2 * d - 1])
        else:
            # row by row, (T_{a+b})_ii = <row_i T_a, row_i T_b> - sigma^{2b} (T_{a-b})_ii
            # with a = 2f, b = 2d - 2f; shifting each row before the sum keeps
            # the cancellation per row (one shift of the total made the error
            # of Tr T_4 about 20 times larger)
            a, b = 2 * f, 2 * d - 2 * f
            rows = np.einsum("bij,bij->bi", tops[f - 1], tops[d - f - 1])
            rows -= s2**b * (2.0 if a == b else _diagonal(tops[f - (d - f) - 1]))
            rows.sum(axis=1, out=out[:, 2 * d - 1])
    if K == 3:
        # cube rule: T_6 = T_2^3 - 3 sigma^4 T_2 and Tr T_2^3 = 2(<PP, P> + 3<PQ, Q>)
        R = np.matmul(P, T2, out=tops[1])
        cube = np.einsum("bij,bij->b", R[..., :n], P) + 3.0 * np.einsum(
            "bij,bij->b", R[..., n:], Q
        )
        out[:, 5] = cube - 3.0 * s4 * out[:, 1]
    out *= 2.0
    return out


def _half_stacks(M: int) -> int:
    """Top-half stacks of ``_trace_vectors`` at degree M, which is also its
    product count: ceil(floor(M/2) / 2)."""
    return -(-(M // 2) // 2)


def _workspace(M: int, rows: int, dim: int) -> np.ndarray:
    """Flat scratch for ``_trace_vectors``: one stack of rows dim x dim
    matrices and ``_half_stacks(M)`` stacks of their top dim/2 rows, reused
    across sub-batches (fresh stacks per sub-batch cost page faults at
    every allocation)."""
    return np.empty(rows * dim * (dim + _half_stacks(M) * (dim // 2)))


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Writable view of the leading square diagonals of a C-contiguous
    (batch, rows, cols) stack, rows <= cols."""
    cols = stack.shape[-1]
    return stack.reshape(stack.shape[0], -1)[:, :: cols + 1]


def _first_trace(config: SimulationConfig, layout: BlockLayout) -> np.ndarray:
    """The trace vector of block 0's first sample, from its own stream."""
    draws = config.model.draw(derive_rng(config.seed, (0,)), (1, layout.n_classes))
    return _trace_vectors(config.symmetry_class, draws, config.model.sigma, config.M, layout)[0]


def _run_block(config: SimulationConfig, block: int, bounds: tuple[int, int],
               layout: BlockLayout, shift: np.ndarray) -> MomentAccumulator:
    lo, hi = bounds
    acc = MomentAccumulator(config.M, shift=shift)
    rng = derive_rng(config.seed, (block,))
    # Every stack holds at most SUB_BATCH_ENTRIES entries: the matrix stacks
    # of one kernel call, and the trace vectors of one add_batch.  A block
    # that fits one add_batch accumulates in the same order as an unsplit one.
    rows = max(1, SUB_BATCH_ENTRIES // layout.dim**2)
    per_add = max(1, SUB_BATCH_ENTRIES // config.M)
    work = _workspace(config.M, min(rows, hi - lo), layout.dim)
    for add_lo in range(lo, hi, per_add):
        t = np.empty((min(per_add, hi - add_lo), config.M))
        for start in range(0, len(t), rows):
            # every family's draws are chunk-invariant: consecutive
            # sub-batches read the stream one block-wide draw would read
            draws = config.model.draw(rng, (min(rows, len(t) - start), layout.n_classes))
            t[start:start + len(draws)] = _trace_vectors(
                config.symmetry_class, draws, config.model.sigma, config.M, layout, work
            )
        acc.add_batch(t)
    return acc


def _fork_context():
    """The fork start method's context, or None where the platform has
    none.  Imported here, so that runs at one worker never load
    multiprocessing."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


_block_args: Optional[tuple] = None  # set in pool workers only, once each


def _init_block_worker(*args) -> None:
    """Pool initializer: (config, bounds, layout, shift), inherited through
    fork rather than pickled, kept for every block this worker runs."""
    global _block_args
    _block_args = args


def _pool_block(b: int) -> MomentAccumulator:
    config, bounds, layout, shift = _block_args
    return _run_block(config, b, bounds[b], layout, shift)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Sample N trace vectors; deterministic given (config, seed).

    Work is split into N_BLOCKS fixed blocks regardless of parallelism;
    block b draws from the seed stream (seed, b) and the reduction merges
    blocks in index order, so the output is bit-identical at any worker
    count.  The whole run holds numpy's OpenBLAS at one thread, so that no
    worker oversubscribes the cores, and gives the caller's count back at
    the end, also when a block raises (no pin where numpy has no OpenBLAS).
    At parallelism p > 1 the blocks run in min(p, blocks) worker processes
    forked inside that pin, so every worker inherits it; no worker outlives
    the call.  Where fork is unavailable, they run in-process.
    Every block accumulates about one shift, the first trace vector of
    block 0, computed before the blocks start: merging and leaving one block
    out stay plain sums, and a coordinate that is constant bit for bit
    (Tr T_2 under Rademacher entries) sums to exactly zero.
    """
    t0 = time.monotonic()
    layout = block_layout(config.symmetry_class, config.n)
    N = config.samples
    B = min(N_BLOCKS, N)
    base, extra = divmod(N, B)
    bounds = []
    lo = 0
    for b in range(B):
        hi = lo + base + (1 if b < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    workers = min(config.parallelism, B)

    with _one_blas_thread():
        shift = _first_trace(config, layout)
        fork = _fork_context() if workers > 1 else None
        if fork is None:
            blocks = [_run_block(config, b, bounds[b], layout, shift) for b in range(B)]
        else:
            # leaving the pool terminates and joins every worker, also when
            # a block raises (map re-raises the worker's exception here)
            with fork.Pool(workers, _init_block_worker,
                           (config, bounds, layout, shift)) as pool:
                blocks = pool.map(_pool_block, range(B), chunksize=1)
    estimates = estimate_cumulants(blocks)
    return SimulationResult(
        config=config,
        estimates=estimates,
        blocks=tuple(blocks),
        wall_time=time.monotonic() - t0,
    )


# -- estimation ------------------------------------------------------------------


def _point_estimates(count, s1, s2, s3, s4, cross, shift):
    """Mean, covariance, k3 and k4 from the sums about ``shift``: of one run
    (an int count), or of B replicates at once (a (B,) count and a leading
    axis B on every sum).  The covariances overwrite ``cross``."""
    # central moments; d is the mean's distance from the shift
    N = np.asarray(count)[..., None]
    d = s1 / N
    mean = shift + d
    # d_i d_j over a stack of d_i, so that numpy buffers one operand, not two
    dd = np.repeat(d[..., :, None], d.shape[-1], axis=-1)
    dd *= d[..., None, :]
    dd *= N[..., None]
    cov = np.subtract(cross, dd, out=cross)
    cov /= N[..., None] - 1
    m2 = s2 / N - d**2
    m3 = s3 / N - 3 * d * s2 / N + 2 * d**3
    m4 = s4 / N - 4 * d * s3 / N + 6 * d**2 * s2 / N - 3 * d**4
    with np.errstate(divide="ignore", invalid="ignore"):
        k3 = np.where(m2 > 0, m3 / np.maximum(m2, 1e-300) ** 1.5, np.nan)
        k4 = np.where(m2 > 0, m4 / np.maximum(m2, 1e-300) ** 2 - 3.0, np.nan)
    return mean, cov, k3, k4


def estimate_cumulants(blocks: Sequence[MomentAccumulator]) -> CumulantEstimates:
    """Mean, unbiased covariance, standardized k3/k4, and their
    leave-one-block-out jackknife SEs, from the per-block accumulators.

    Empty blocks are skipped; at least two must hold samples, and leaving
    out any one block must leave at least two.  A merged sum that is not
    finite raises OverflowError.  Constant coordinates get exact-zero
    covariance rows and not-applicable (NaN) higher cumulants.
    """
    blocks = [a for a in blocks if a.count > 0]
    if len(blocks) < 2:
        raise ValueError("need at least 2 blocks with samples")
    total = blocks[0]
    for b in blocks[1:]:
        total = merge(total, b)
    if total.count - max(b.count for b in blocks) < 2:
        raise ValueError("leaving out a block leaves fewer than 2 samples")
    sums = _sums(total)
    if not all(np.isfinite(x).all() for x in sums):
        raise OverflowError("the moment sums overflow a float")
    # replicate i is the merged sums less block i's, one stack per sum, and
    # one call values all of them
    rest = [np.stack(part) for part in zip(*map(_sums, blocks))]
    for whole, part in zip(sums, rest):
        np.subtract(whole, part, out=part)
    n_rest = total.count - np.array([b.count for b in blocks])
    mean, cov, k3, k4 = _point_estimates(total.count, *sums, total.shift)
    _, covs, k3s, k4s = _point_estimates(n_rest, *rest, total.shift)
    fac = (len(blocks) - 1) / len(blocks)

    def jse(samples, center):
        # the replicates are spent: their deviations overwrite them
        dev = np.subtract(samples, center, out=samples)
        dev *= dev
        return np.sqrt(fac * np.nansum(dev, axis=0))

    def nan_center(samples):
        # column-wise mean ignoring NaN, 0 where a column is all NaN
        # (those columns are re-masked to NaN below anyway)
        filled = np.where(np.isnan(samples), 0.0, samples)
        counts = np.maximum((~np.isnan(samples)).sum(axis=0), 1)
        return filled.sum(axis=0) / counts

    cov_se = jse(covs, covs.mean(axis=0))
    # keep NaN marking for degenerate coordinates
    k3_se = np.where(np.isnan(k3), np.nan, jse(k3s, nan_center(k3s)))
    k4_se = np.where(np.isnan(k4), np.nan, jse(k4s, nan_center(k4s)))
    return CumulantEstimates(
        count=total.count, mean=mean, cov=cov, cov_se=cov_se,
        k3=k3, k3_se=k3_se, k4=k4, k4_se=k4_se,
    )


# -- grading ---------------------------------------------------------------------


@dataclass(frozen=True)
class CLTRow:
    degree: int
    var_est: float
    var_se: float
    theory: float
    flag: str
    z: float
    k3: float
    k3_se: float
    k4: float
    k4_se: float
    passed: bool
    note: str


@dataclass(frozen=True)
class CLTPair:
    m: int
    mu: int
    cov_est: float
    cov_se: float
    z: float  # against the limit 0
    passed: bool


@dataclass(frozen=True)
class CLTReport:
    rows: tuple[CLTRow, ...]
    offdiag: tuple[CLTPair, ...]
    max_offdiag_z: float
    passed: bool
    z_max: float
    rel_window: float


def _zscore(est: float, target: float, se: float) -> float:
    if se == 0.0 or math.isnan(se):
        return 0.0 if est == target else math.inf
    return (est - target) / se


def _check_thresholds(z_max: float, rel_window: float) -> None:
    """Raise ValueError unless every grading threshold is finite and >= 0."""
    for name, value in (("z_max", z_max), ("rel_window", rel_window)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0")


def clt_report(
    result: SimulationResult,
    theory: Sequence[tuple[float, str]],
    z_max: float = 3.0,
    rel_window: float = 0.10,
) -> CLTReport:
    """Grade a simulation against the limiting covariance, degree by degree.

    theory[m-1] is (value, flag) for degree m, as produced by V_asymptotic.
    Every odd degree must be exactly zero: both classes are
    conjugation-odd, so each odd trace vanishes in every sample, and the
    sampler emits exact zeros for it.  Even degrees pass when
    |var - theory| <= rel_window * theory + z_max * se: the variance
    estimator is consistent for the finite-n variance, not for the limit,
    so the pass band must absorb the finite-size gap as well as sampling
    noise. The raw z-score against the limit is reported regardless.
    Off-diagonal entries have limit 0, but at finite n they carry a
    finite-size term of their own (nonzero at every n the exact oracles
    reach), so they get the same allowance on the correlation scale:
    |cov| <= rel_window * sqrt(|theory_m * theory_mu|) + z_max * se.  Their
    z-score against 0 is reported regardless.  A pair with an odd member
    has theory 0 and se 0, so its band is 0 and it, too, must be exactly
    zero.  Each threshold must be finite and >= 0.
    """
    _check_thresholds(z_max, rel_window)
    est = result.estimates
    M = result.config.M
    if len(theory) != M:
        raise ValueError("need one theory value per degree")
    rows = []
    all_pass = True
    for m in range(1, M + 1):
        var = float(est.cov[m - 1, m - 1])
        se = float(est.cov_se[m - 1, m - 1])
        tval, flag = theory[m - 1]
        k3 = float(est.k3[m - 1])
        k3se = float(est.k3_se[m - 1])
        k4 = float(est.k4[m - 1])
        k4se = float(est.k4_se[m - 1])
        if m % 2 == 1:
            ok = var == 0.0
            z = _zscore(var, 0.0, se)
            note = "identically zero"
        else:
            z = _zscore(var, tval, se)
            band = rel_window * abs(tval) + z_max * se
            ok = abs(var - tval) <= band
            note = "derived target" if flag == "derived" else "theorem target"
        rows.append(CLTRow(m, var, se, tval, flag, z, k3, k3se, k4, k4se, ok, note))
        all_pass &= ok
    offdiag = []
    for m in range(1, M + 1):
        for mu in range(m + 1, M + 1):
            c = float(est.cov[m - 1, mu - 1])
            se = float(est.cov_se[m - 1, mu - 1])
            scale = math.sqrt(abs(theory[m - 1][0] * theory[mu - 1][0]))
            band = rel_window * scale + z_max * se
            ok = abs(c) <= band
            offdiag.append(CLTPair(m, mu, c, se, _zscore(c, 0.0, se), ok))
            all_pass &= ok
    return CLTReport(
        rows=tuple(rows),
        offdiag=tuple(offdiag),
        max_offdiag_z=max((abs(p.z) for p in offdiag), default=0.0),
        passed=all_pass,
        z_max=z_max,
        rel_window=rel_window,
    )


def theory_vector(
    symmetry_class: SymmetryClass, M: int, model: EntryModel
) -> list[tuple[float, str]]:
    """(value, flag) per degree 1..M, from the asymptotic formulas."""
    return [V_asymptotic(symmetry_class, m, model) for m in range(1, M + 1)]
