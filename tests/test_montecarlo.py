import math
import multiprocessing
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from symmwig import montecarlo
from symmwig.chebyshev import trace_cheb_vector
from symmwig.ensemble import EntryModel, SymmetryClass, block_layout, derive_rng
from symmwig.montecarlo import (
    N_BLOCKS,
    CumulantEstimates,
    MomentAccumulator,
    SimulationConfig,
    SimulationResult,
    _trace_vectors,
    clt_report,
    estimate_cumulants,
    merge,
    run_simulation,
    theory_vector,
)

DIII, CI = SymmetryClass.DIII, SymmetryClass.CI


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(CI, 4, samples=1)
    with pytest.raises(ValueError, match="need at least 3 samples"):
        SimulationConfig(CI, 2, samples=2)  # a jackknife replicate keeps 2 samples
    with pytest.raises(ValueError):
        SimulationConfig(CI, 4, M=0)
    with pytest.raises(ValueError, match="M must be <= 512"):
        SimulationConfig(CI, 4, M=513)  # 100 block cross sums of M x M floats
    with pytest.raises(ValueError):
        SimulationConfig(CI, 0)
    with pytest.raises(ValueError):
        SimulationConfig(CI, 4, sigma=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(CI, 4, parallelism=0)
    with pytest.raises(ValueError):
        SimulationConfig(CI, 4, family="lognormal")
    assert SimulationConfig("diii", 4).symmetry_class is DIII


@pytest.mark.parametrize("cls,n,message", [
    (CI, 0, "n must be positive"),
    (DIII, 0, "n must be positive"),
    (DIII, 1, "degenerate space: DIII with n=1 is identically zero"),
])
def test_config_rejects_degenerate_size(cls, n, message):
    """A size with no nonzero matrix is rejected when the config is built,
    with the message of the ensemble's own check; CI n = 1 is a space."""
    with pytest.raises(ValueError, match=message):
        SimulationConfig(cls, n)
    assert SimulationConfig(CI, 1).n == 1


@pytest.mark.parametrize("sigma", (-1.0, float("nan"), float("inf"), 1e200, 1e-170, 1e-160))
def test_config_rejects_bad_sigma(sigma):
    """A sigma whose square overflows, underflows to zero or is subnormal
    is rejected too."""
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        SimulationConfig(CI, 4, sigma=sigma)


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("sigma", (1.0, 0.7))
def test_trace_path_matches_literal_recurrence(cls, sigma):
    """The even-only batched path equals the full matrix recurrence."""
    n, M, B = 3, 6, 10
    layout = block_layout(cls, n)
    rng = derive_rng(99, (0,))
    draws = EntryModel.gaussian().draw(rng, (B, layout.n_classes))
    got = _trace_vectors(cls, draws, sigma, M, layout)
    dim = layout.dim
    for b in range(B):
        X = layout.unit * layout.assemble(draws[b]) / math.sqrt(dim)
        want = trace_cheb_vector(X, M, sigma)
        for m in range(1, M + 1):
            if m % 2 == 1:
                assert got[b, m - 1] == 0.0
                assert abs(want[m - 1]) <= 1e-9 * dim
            else:
                assert got[b, m - 1] == pytest.approx(want[m - 1], rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("sigma", (1.0, 0.7))
@pytest.mark.parametrize("M", range(1, 11))
def test_trace_kernel_matches_literal_recurrence_at_every_degree(cls, sigma, M):
    """Half-block traces (direct, Frobenius, cube rule) agree with the
    literal recurrence on the assembled stack."""
    layout = block_layout(cls, 3)
    draws = EntryModel.gaussian().draw(derive_rng(98, (M,)), (6, layout.n_classes))
    got = _trace_vectors(cls, draws, sigma, M, layout)
    X = layout.unit * layout.assemble(draws) / math.sqrt(layout.dim)
    want = trace_cheb_vector(X, M, sigma)
    assert got.shape == (6, M)
    assert np.all(got[:, 0::2] == 0.0)
    assert np.allclose(got[:, 1::2], want[:, 1::2], rtol=1e-10, atol=1e-10)


class _CountingNumpy:
    def __init__(self):
        self.products = []  # (shape of a, shape of the output) per matmul

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, *args, **kwargs):
        out = np.matmul(a, *args, **kwargs)
        self.products.append((np.shape(a), out.shape))
        return out

    @property
    def matmuls(self):
        return len(self.products)

    @property
    def flops(self):
        # 2 flop per multiply-add: output entries times the inner dimension
        return sum(2 * math.prod(out) * a[-1] for a, out in self.products)


@pytest.mark.parametrize("M", range(1, 11))
def test_trace_kernel_matmul_count(M, monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(montecarlo, "np", counting)
    layout = block_layout(CI, 3)
    draws = EntryModel.gaussian().draw(derive_rng(1), (4, layout.n_classes))
    _trace_vectors(CI, draws, 1.0, M, layout)
    assert counting.matmuls == -(-(M // 2) // 2)


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("n", (3, 8))
@pytest.mark.parametrize("M", range(1, 11))
def test_trace_kernel_products_are_half_blocks(cls, n, M, monkeypatch):
    """Every product yields only the top n rows of a 2n x 2n matrix, and
    the default M = 6 costs 12 n^3 flops per sample (two full 2n x 2n
    products would cost 32 n^3)."""
    counting = _CountingNumpy()
    monkeypatch.setattr(montecarlo, "np", counting)
    layout = block_layout(cls, n)
    B = 5
    draws = EntryModel.gaussian().draw(derive_rng(2), (B, layout.n_classes))
    _trace_vectors(cls, draws, 1.0, M, layout)
    assert all(out[-2:] == (n, 2 * n) for _, out in counting.products)
    if M in (6, 7):
        assert counting.flops == 12 * n**3 * B


@pytest.mark.parametrize("cls", (DIII, CI))
@pytest.mark.parametrize("family", ("rademacher", "gaussian"))
def test_square_of_sample_is_fixed_by_its_top_rows(cls, family):
    """W W = [[P, Q], [-Q, P]] with P symmetric and Q antisymmetric, so its
    top n rows fix it; exact for integer entries, to rounding otherwise."""
    n = 5
    layout = block_layout(cls, n)
    draws = EntryModel(family=family).draw(derive_rng(3), (4, layout.n_classes))
    W = layout.assemble(draws)
    S = np.matmul(W, W)
    P, Q = S[:, :n, :n], S[:, :n, n:]
    full = np.block([[P, Q], [-Q, P]])
    if family == "rademacher":
        assert np.array_equal(S, full)
        assert np.array_equal(P, P.swapaxes(1, 2))
        assert np.array_equal(Q, -Q.swapaxes(1, 2))
    else:
        tol = 1e-13 * np.abs(S).max()
        assert np.abs(S - full).max() <= tol
        assert np.abs(P - P.swapaxes(1, 2)).max() <= tol
        assert np.abs(Q + Q.swapaxes(1, 2)).max() <= tol


@pytest.mark.parametrize("cls, family", (
    (CI, "gaussian"), (DIII, "rademacher"), (CI, "atoms:-0.5:0.6,0.75:0.4"),
))
def test_sub_batches_change_rounding_only(cls, family, monkeypatch):
    """Splitting each block into kernel sub-batches and accumulation chunks
    keeps the sample stream; only the summation order moves."""
    cfg = SimulationConfig(cls, 4, samples=8000, seed=17, M=8, family=family)
    monkeypatch.setattr(montecarlo, "SUB_BATCH_ENTRIES", 10**9)
    whole = run_simulation(cfg).estimates
    # 7 rows of 8 x 8 per kernel call, 56 rows of M = 8 per add_batch; 80 per block
    monkeypatch.setattr(montecarlo, "SUB_BATCH_ENTRIES", 7 * 64)
    split = run_simulation(cfg).estimates
    for a, b in ((whole.mean, split.mean), (whole.cov, split.cov), (whole.cov_se, split.cov_se)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_memory_does_not_grow_with_samples(monkeypatch):
    monkeypatch.setattr(montecarlo, "SUB_BATCH_ENTRIES", 40 * 64)  # 40 rows of 8 x 8
    run_simulation(SimulationConfig(CI, 4, samples=200, seed=3))  # first-call allocations

    def peak(samples):
        tracemalloc.start()
        try:
            run_simulation(SimulationConfig(CI, 4, samples=samples, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(1_000)
    assert peak(100_000) <= 2 * small


def test_determinism_across_parallelism():
    base = dict(symmetry_class=CI, n=8, samples=600, seed=31, M=6)
    r1 = run_simulation(SimulationConfig(**base, parallelism=1))
    r8 = run_simulation(SimulationConfig(**base, parallelism=8))
    assert np.array_equal(r1.estimates.mean, r8.estimates.mean)
    assert np.array_equal(r1.estimates.cov, r8.estimates.cov)
    assert np.array_equal(r1.estimates.cov_se, r8.estimates.cov_se)
    r1b = run_simulation(SimulationConfig(**base, parallelism=1))
    assert np.array_equal(r1.estimates.cov, r1b.estimates.cov)
    other = run_simulation(SimulationConfig(**dict(base, seed=32), parallelism=1))
    assert not np.array_equal(r1.estimates.cov, other.estimates.cov)


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cls", (CI, DIII))
@pytest.mark.parametrize("family", ("gaussian", "rademacher", "atoms:-1:0.245,0:0.51,1:0.245"))
def test_worker_processes_are_bit_identical(cls, family, monkeypatch):
    """Every estimate array and every per-block sum is the same bytes at 1,
    2 and 3 worker processes, and in-process where fork is unavailable."""
    base = SimulationConfig(cls, 5, sigma=0.7, M=7, samples=3001, seed=12, family=family)
    ref = run_simulation(base)
    runs = [run_simulation(replace(base, parallelism=p)) for p in (2, 3)]
    monkeypatch.setattr(montecarlo, "_fork_context", lambda: None)
    runs.append(run_simulation(replace(base, parallelism=3)))
    for run in runs:
        for name in ("mean", "cov", "cov_se", "k3", "k3_se", "k4", "k4_se"):
            assert _same_bytes(getattr(ref.estimates, name), getattr(run.estimates, name)), name
        assert len(run.blocks) == len(ref.blocks) == N_BLOCKS
        for a, b in zip(ref.blocks, run.blocks):
            assert a.count == b.count
            for name in ("s1", "s2", "s3", "s4", "cross", "shift"):
                assert _same_bytes(getattr(a, name), getattr(b, name)), name


def test_worker_count_is_capped_by_blocks(monkeypatch):
    """The pool gets min(parallelism, blocks) processes; the recording
    factory starts none."""
    sizes = []

    class Recorded(Exception):
        pass

    class RecordingContext:
        def Pool(self, processes, initializer, initargs):
            sizes.append(processes)
            raise Recorded

    monkeypatch.setattr(montecarlo, "_fork_context", RecordingContext)
    for samples, parallelism in ((3, 64), (10_000, 100_000), (500, 2)):
        with pytest.raises(Recorded):
            run_simulation(SimulationConfig(CI, 2, samples=samples, parallelism=parallelism))
    assert sizes == [3, N_BLOCKS, 2]


def test_no_worker_outlives_the_run(monkeypatch):
    cfg = SimulationConfig(DIII, 3, samples=400, seed=8, parallelism=3)
    run_simulation(cfg)
    assert multiprocessing.active_children() == []

    run_block = montecarlo._run_block

    def failing(config, block, *args):
        if block == 37:
            raise RuntimeError("block 37 failed")
        return run_block(config, block, *args)

    # the forked workers inherit the patched module
    monkeypatch.setattr(montecarlo, "_run_block", failing)
    with pytest.raises(RuntimeError, match="^block 37 failed$") as raised:
        run_simulation(cfg)
    assert type(raised.value.__cause__).__name__ == "RemoteTraceback"  # raised in a worker
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(montecarlo._blas_threads() is None, reason="numpy has no OpenBLAS")
def test_run_simulation_pins_blas_to_one_thread(monkeypatch):
    """Every trace, in-process and in forked workers, runs with OpenBLAS at
    one thread, whatever the caller set; the caller's count comes back after
    the run, also when a block raises."""
    trace_vectors = montecarlo._trace_vectors

    def checked(*args):
        threads = montecarlo._blas_threads()
        if threads != 1:
            raise RuntimeError(f"traced with {threads} BLAS threads")
        return trace_vectors(*args)

    # the forked workers inherit the patched module
    monkeypatch.setattr(montecarlo, "_trace_vectors", checked)
    before = montecarlo._blas_threads()
    montecarlo._set_blas_threads(2)
    try:
        for parallelism in (1, 2):
            run_simulation(SimulationConfig(DIII, 4, samples=300, seed=2, parallelism=parallelism))
            assert montecarlo._blas_threads() == 2

        def failing(config, block, *args):
            raise RuntimeError(f"block {block} failed")

        monkeypatch.setattr(montecarlo, "_run_block", failing)
        for parallelism in (1, 2):
            with pytest.raises(RuntimeError, match=r"^block \d+ failed$"):
                run_simulation(SimulationConfig(DIII, 4, samples=300, seed=2,
                                                parallelism=parallelism))
            assert montecarlo._blas_threads() == 2
    finally:
        montecarlo._set_blas_threads(before)


def test_block_split_covers_all_samples():
    for samples in (7, 100, 257):
        res = run_simulation(SimulationConfig(CI, 3, samples=samples, seed=1, M=2))
        assert res.estimates.count == samples
        assert len(res.blocks) == min(N_BLOCKS, samples)
        assert sum(b.count for b in res.blocks) == samples


def test_degree_one_trace_is_exactly_zero():
    res = run_simulation(SimulationConfig(DIII, 6, samples=300, seed=3))
    est = res.estimates
    assert est.mean[0] == 0.0
    assert np.all(est.cov[0, :] == 0.0) and np.all(est.cov[:, 0] == 0.0)
    # all odd degrees ride the same exactness
    assert est.mean[2] == 0.0 and est.mean[4] == 0.0


def test_merge_laws():
    rng = np.random.default_rng(0)
    accs = []
    for _ in range(3):
        a = MomentAccumulator(4)
        a.add_batch(rng.normal(size=(50, 4)))
        accs.append(a)
    a, b, c = accs
    empty = MomentAccumulator(4)

    def same(x, y, exact=True):
        cmp = np.array_equal if exact else np.allclose
        return (
            x.count == y.count
            and cmp(x.s1, y.s1)
            and cmp(x.s2, y.s2)
            and cmp(x.s3, y.s3)
            and cmp(x.s4, y.s4)
            and cmp(x.cross, y.cross)
        )

    assert same(merge(a, empty), a)
    assert same(merge(a, b), merge(b, a))
    assert same(merge(merge(a, b), c), merge(a, merge(b, c)), exact=False)
    with pytest.raises(ValueError):
        merge(a, MomentAccumulator(3))


def test_merge_equals_sequential():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 3))
    whole = MomentAccumulator(3)
    whole.add_batch(x)
    parts = MomentAccumulator(3), MomentAccumulator(3)
    parts[0].add_batch(x[:37])
    parts[1].add_batch(x[37:])
    merged = merge(*parts)
    assert merged.count == whole.count
    assert np.allclose(merged.cross, whole.cross, atol=1e-9)


def _stream_blocks(draw, blocks=N_BLOCKS, per=200, M=2):
    accs = []
    for b in range(blocks):
        a = MomentAccumulator(M)
        a.add_batch(draw(b, per, M))
        accs.append(a)
    return accs


def test_cumulants_on_normal_stream():
    def draw(b, per, M):
        return derive_rng(7, (b,)).normal(size=(per, M))

    est = estimate_cumulants(_stream_blocks(draw))
    for j in range(2):
        assert abs(est.k3[j]) <= 3 * est.k3_se[j]
        assert abs(est.k4[j]) <= 3 * est.k4_se[j]
        assert abs(est.cov[j, j] - 1.0) <= 3 * est.cov_se[j, j]


def test_cumulants_on_exponential_stream():
    def draw(b, per, M):
        return derive_rng(11, (b,)).exponential(size=(per, M)) - 1.0

    est = estimate_cumulants(_stream_blocks(draw))
    for j in range(2):
        assert abs(est.k3[j] - 2.0) <= 3 * est.k3_se[j]  # exponential skewness


def test_fewer_than_two_blocks_with_samples_is_an_error():
    """Standard errors need two blocks: one block, or two of which one is
    empty, raise the same error; an empty block beside two full ones is
    skipped."""
    a, b = MomentAccumulator(2), MomentAccumulator(2)
    a.add_batch(np.random.default_rng(1).normal(size=(40, 2)))
    b.add_batch(np.random.default_rng(2).normal(size=(40, 2)))
    for blocks in ([], [a], [a, MomentAccumulator(2)], [MomentAccumulator(2)] * 2):
        with pytest.raises(ValueError, match="need at least 2 blocks with samples"):
            estimate_cumulants(blocks)
    est = estimate_cumulants([a, MomentAccumulator(2), b])
    assert est.count == 80
    assert np.array_equal(est.cov_se, estimate_cumulants([a, b]).cov_se)


def test_jackknife_replicates_need_two_samples():
    """Leaving out a block must leave two samples for the covariance's
    N - 1: two one-sample blocks, or a one-sample block beside a full one,
    raise instead of giving NaN replicates and a standard error of 0."""
    rng = np.random.default_rng(3)
    one = [MomentAccumulator(2) for _ in range(3)]
    for acc in one:
        acc.add_batch(rng.normal(size=(1, 2)))
    full = MomentAccumulator(2)
    full.add_batch(rng.normal(size=(40, 2)))
    for blocks in (one[:2], [full, one[0]]):
        with pytest.raises(ValueError, match="fewer than 2 samples"):
            estimate_cumulants(blocks)
    assert estimate_cumulants(one).count == 3


def test_degenerate_coordinate_handling():
    a = [MomentAccumulator(2) for _ in range(4)]
    rng = np.random.default_rng(2)
    for acc in a:
        x = rng.normal(size=(30, 2))
        x[:, 0] = 0.0  # constant coordinate
        acc.add_batch(x)
    est = estimate_cumulants(a)
    assert np.all(est.cov[0, :] == 0.0)
    assert math.isnan(est.k3[0]) and math.isnan(est.k4[0])
    assert math.isnan(est.k3_se[0])
    assert not math.isnan(est.k3[1])


def test_shifted_sums_keep_a_constant_coordinate_exact():
    """A coordinate constant at a value far from 0 has covariance exactly
    0.0 and NaN k3 and k4 when the sums are taken about one of its
    samples; the mean is that value exactly."""
    rng = np.random.default_rng(4)
    shift = np.array([-31.36, 0.0])
    blocks = []
    for _ in range(4):
        x = rng.normal(size=(30, 2))
        x[:, 0] = -31.36
        acc = MomentAccumulator(2, shift=shift)
        acc.add_batch(x)
        blocks.append(acc)
    est = estimate_cumulants(blocks)
    assert est.mean[0] == -31.36
    assert np.all(est.cov[0, :] == 0.0) and np.all(est.cov_se[0, :] == 0.0)
    assert math.isnan(est.k3[0]) and math.isnan(est.k4[0])
    with pytest.raises(ValueError):
        merge(blocks[0], MomentAccumulator(2))


def _loop_estimates(blocks):
    """The jackknife one replicate at a time: an accumulator of the merged
    sums less one block, and one point estimate of it, per replicate."""

    def point(acc):
        N = acc.count
        d = acc.s1 / N
        cov = (acc.cross - N * np.outer(d, d)) / (N - 1)
        m2 = acc.s2 / N - d**2
        m3 = acc.s3 / N - 3 * d * acc.s2 / N + 2 * d**3
        m4 = acc.s4 / N - 4 * d * acc.s3 / N + 6 * d**2 * acc.s2 / N - 3 * d**4
        with np.errstate(divide="ignore", invalid="ignore"):
            k3 = np.where(m2 > 0, m3 / np.maximum(m2, 1e-300) ** 1.5, np.nan)
            k4 = np.where(m2 > 0, m4 / np.maximum(m2, 1e-300) ** 2 - 3.0, np.nan)
        return acc.shift + d, cov, k3, k4

    blocks = [a for a in blocks if a.count > 0]
    total = blocks[0]
    for b in blocks[1:]:
        total = merge(total, b)
    mean, cov, k3, k4 = point(total)
    reps = [
        point(MomentAccumulator(
            total.M, total.count - b.count, total.s1 - b.s1, total.s2 - b.s2,
            total.s3 - b.s3, total.s4 - b.s4, total.cross - b.cross, total.shift,
        ))[1:]
        for b in blocks
    ]
    covs, k3s, k4s = (np.array(r) for r in zip(*reps))
    fac = (len(blocks) - 1) / len(blocks)

    def jse(samples, center):
        dev = samples - center
        return np.sqrt(fac * np.nansum(dev * dev, axis=0))

    def nan_center(samples):
        filled = np.where(np.isnan(samples), 0.0, samples)
        return filled.sum(axis=0) / np.maximum((~np.isnan(samples)).sum(axis=0), 1)

    return CumulantEstimates(
        count=total.count, mean=mean, cov=cov, cov_se=jse(covs, covs.mean(axis=0)),
        k3=k3, k3_se=np.where(np.isnan(k3), np.nan, jse(k3s, nan_center(k3s))),
        k4=k4, k4_se=np.where(np.isnan(k4), np.nan, jse(k4s, nan_center(k4s))),
    )


def _assert_same_bytes(est, ref):
    assert est.count == ref.count
    for f in ("mean", "cov", "cov_se", "k3", "k3_se", "k4", "k4_se"):
        got, want = getattr(est, f), getattr(ref, f)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f


def test_jackknife_matches_the_per_replicate_loop_byte_for_byte():
    """The stacked replicates value every estimate to the bit of the
    replicate-at-a-time loop: on blocks of unequal sizes with an empty one,
    a constant coordinate (NaN k3 and k4), a coordinate constant at -31.36
    with the shift there, a constant coordinate off its shift, and a
    skewed one."""
    rng = np.random.default_rng(5)
    shift = np.array([0.25, 0.0, -31.36, 0.0, 1.0])
    blocks = []
    for b in range(12):
        acc = MomentAccumulator(5, shift=shift)
        if b != 7:  # block 7 stays empty
            x = rng.normal(size=(20 + 3 * b, 5))
            x[:, 1] = 0.0
            x[:, 2] = -31.36
            x[:, 3] = 0.7
            x[:, 4] = rng.exponential(size=len(x))
            acc.add_batch(x)
        blocks.append(acc)
    est = estimate_cumulants(blocks)
    assert math.isnan(est.k3[1]) and math.isnan(est.k4_se[2])
    _assert_same_bytes(est, _loop_estimates(blocks))


def test_run_jackknife_matches_the_per_replicate_loop_byte_for_byte():
    result = run_simulation(SimulationConfig(CI, 4, samples=600, M=6, seed=8))
    _assert_same_bytes(result.estimates, _loop_estimates(result.blocks))


@pytest.mark.parametrize("cls", (CI, DIII))
def test_rademacher_tr_t2_is_graded_exactly(cls):
    """Under Rademacher entries Tr T_2 is one float in every sample, and its
    limiting variance 4 Var(g^2) is exactly 0.  At sigma = 0.7, 0.9 and 1.3
    the run reports Var(Tr T_2) = 0.0 with SE 0.0, exact-zero covariances
    with every other degree and NaN k3, k4, and the var,2 row passes."""
    for sigma in (0.7, 0.9, 1.3):
        cfg = SimulationConfig(cls, 16, sigma=sigma, samples=2000, seed=5, family="rademacher")
        res = run_simulation(cfg)
        est = res.estimates
        assert np.all(est.cov[1, :] == 0.0) and np.all(est.cov[:, 1] == 0.0)
        assert np.all(est.cov_se[1, :] == 0.0)
        assert math.isnan(est.k3[1]) and math.isnan(est.k4[1])
        rep = clt_report(res, theory_vector(cls, cfg.M, cfg.model))
        row = rep.rows[1]
        assert (row.var_est, row.var_se, row.theory, row.z) == (0.0, 0.0, 0.0, 0.0)
        assert row.passed
        assert all(p.passed for p in rep.offdiag if p.m == 2)


def test_theory_vector_shape_and_flags():
    model = EntryModel.gaussian()
    th = theory_vector(DIII, 6, model)
    assert [flag for _, flag in th] == [
        "theorem", "derived", "theorem", "theorem", "theorem", "theorem"
    ]
    assert th[3][0] == 16.0 and th[5][0] == 24.0 and th[0][0] == 0.0


def test_clt_report_grading():
    cfg = SimulationConfig(CI, 16, samples=2000, seed=7)
    res = run_simulation(cfg)
    th = theory_vector(CI, cfg.M, cfg.model)
    rep = clt_report(res, th)
    assert len(rep.rows) == cfg.M
    assert rep.rows[0].passed and rep.rows[0].var_est == 0.0
    for r in rep.rows:
        if r.degree % 2 == 1:
            assert (r.var_est, r.z, r.passed, r.note) == (0.0, 0.0, True, "identically zero")
        if r.degree % 2 == 0:
            band = rep.rel_window * r.theory + rep.z_max * r.var_se
            assert r.passed == (abs(r.var_est - r.theory) <= band)
    assert len(rep.offdiag) == cfg.M * (cfg.M - 1) // 2
    assert rep.max_offdiag_z == max(abs(p.z) for p in rep.offdiag)
    # absurd targets must fail, generous windows must pass
    bad = [(v if f != "theorem" or v == 0 else 1e6, f) for v, f in th]
    assert not clt_report(res, bad).passed
    wide = clt_report(res, th, z_max=100.0, rel_window=10.0)
    assert all(r.passed for r in wide.rows)
    with pytest.raises(ValueError):
        clt_report(res, th[:-1])


# DIII at n = 64 has Cov(T2,T4) = -32/n + 32/n^2 and Cov(T2,T6) =
# -72/n + 264/n^2 - 192/n^3 exactly (moment oracle), and Cov(T4,T6) near -2;
# 2000 samples resolve them away from their limit 0.
DIII_64 = SimulationConfig(DIII, 64, samples=2000, seed=20260819, M=6)


@pytest.fixture(scope="module")
def diii_64_traces():
    """Per-block trace vectors, drawn from the seed streams run_simulation uses."""
    cfg = DIII_64
    layout = block_layout(DIII, cfg.n)
    per = cfg.samples // N_BLOCKS
    return [
        _trace_vectors(
            DIII, cfg.model.draw(derive_rng(cfg.seed, (b,)), (per, layout.n_classes)),
            cfg.model.sigma, cfg.M, layout,
        )
        for b in range(N_BLOCKS)
    ]


def _result(traces) -> SimulationResult:
    blocks = []
    for t in traces:
        acc = MomentAccumulator(DIII_64.M)
        acc.add_batch(t)
        blocks.append(acc)
    return SimulationResult(DIII_64, estimate_cumulants(blocks), tuple(blocks))


def test_clt_report_passes_finite_n_offdiagonals(diii_64_traces):
    """A correct run passes although its off-diagonals are resolved away
    from 0: they are graded with the finite-size allowance, not |z| alone."""
    rep = clt_report(_result(diii_64_traces), theory_vector(DIII, 6, DIII_64.model))
    assert rep.max_offdiag_z > rep.z_max
    assert rep.passed and all(p.passed for p in rep.offdiag)


def test_clt_report_offdiagonal_band_has_teeth(diii_64_traces):
    """T6 carrying half of T4 leaves every variance inside its band but
    puts Cov(T4, T6) outside the off-diagonal allowance."""
    mixed = [t.copy() for t in diii_64_traces]
    for t in mixed:
        t[:, 5] += 0.5 * t[:, 3]
    rep = clt_report(_result(mixed), theory_vector(DIII, 6, DIII_64.model))
    assert all(r.passed for r in rep.rows)
    assert [(p.m, p.mu) for p in rep.offdiag if not p.passed] == [(4, 6)]
    assert not rep.passed


def test_odd_degree_must_be_exactly_zero(diii_64_traces):
    """A degree-3 trace carrying 1e-3 of Tr T_2 has a variance near 1e-5,
    far below any ceiling a band would set, and its row still fails with a
    finite z: an odd degree passes only at exactly 0.0."""
    leaked = [t.copy() for t in diii_64_traces]
    for t in leaked:
        t[:, 2] = 1e-3 * t[:, 1]
    rep = clt_report(_result(leaked), theory_vector(DIII, 6, DIII_64.model))
    row = rep.rows[2]
    assert 0.0 < row.var_est < 1e-4 and math.isfinite(row.z) and row.z > 0
    assert not row.passed and not rep.passed
    assert [r.degree for r in rep.rows if not r.passed] == [3]
