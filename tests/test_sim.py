import dataclasses
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sdstab import sim
from sdstab.errors import DegenerateEnsemble, DomainError, ValidationError
from sdstab.lmi import load_certificate
from sdstab.models import LinearSampledModel, SamplingSchedule, load_model
from sdstab.sim import (
    EnsembleMoments,
    SimConfig,
    ensemble_moments,
    estimate_as_exponent,
    estimate_ms_decay,
    export_ensemble_stats_csv,
    export_trajectories_csv,
    run_ensemble,
)
from sdstab.sim import _BLOCK, _CHUNK, _SCHEDULE_STREAM, _WINDOW, _noise, _stream

from oracles import (
    build_grid_reference,
    cps_reference,
    em_reference,
    em_second_moment,
    mean_sq_reference,
    noise_reference,
)


def decay_model(n=2):
    return LinearSampledModel(
        name="decay", n=n, A=-np.eye(n), diffusion=(),
        B_bar_explicit=np.zeros((n, n)), x0=np.ones(n),
    )


def cfg_for(model_dt, horizon, **kw):
    defaults = dict(
        schedule=SamplingSchedule.periodic(model_dt), horizon=horizon,
        dt_sim=model_dt / 10, n_paths=1, seed=0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def em_chain(f, g_list, h, n_steps, x0, paths, seed, store_idx):
    """Stored states of the EM chain X_k = X_{k-1} + h F X_{k-1} + sum_j G_j X_{k-1} dB_{j,k}:
    the sampled-data kernel on a uniform grid with no sampling refresh and B_bar = 0."""
    f = np.asarray(f, dtype=float)
    chain = LinearSampledModel("em", len(f), f, tuple(np.asarray(g, dtype=float) for g in g_list),
                               B_bar_explicit=np.zeros_like(f))
    times = h * np.arange(n_steps + 1, dtype=float)
    grid = sim._Grid(times=times, steps=np.full(n_steps, float(h)),
                     refresh=np.zeros(n_steps, dtype=bool), instants=times[:1])
    states = np.empty((len(paths), len(store_idx), len(f)))

    def sink(s0, block, alive):
        states[:, s0:s0 + block.shape[1]] = block

    sim._integrate_chunk(chain, chain.B_bar, grid, x0, paths, seed, store_idx, sink)
    return states


def path_row(model, cfg, p=0):
    """Row p of an ensemble of p + 1 paths, and the ensemble."""
    ens = run_ensemble(model, dataclasses.replace(cfg, n_paths=p + 1))
    return ens.states[p], ens


def noise(seed, paths, step0, nsteps, m):
    """The (nsteps, m, len(paths)) normals of _noise, drawn in one call; a scale of 1 is exact."""
    return _noise(seed, paths, m)(step0, nsteps, np.ones(nsteps), np.empty((nsteps, m, len(paths))))


def em_path(f, g_list, h, n_steps, x0, seed=0):
    """The chain of path 0 at every step, shape (n_steps + 1, n); NaN past the divergence cap."""
    return em_chain(f, g_list, h, n_steps, x0, [0], seed, np.arange(n_steps + 1))[0]


def em_terminal(f, g_list, h, n_steps, x0, n_paths, seed=0):
    """X_N of paths 0 .. n_paths - 1, shape (n_paths, n)."""
    return em_chain(f, g_list, h, n_steps, x0, range(n_paths), seed, np.array([n_steps]))[:, 0, :]


class TestSimConfig:
    def test_substep_cap_enforced(self):
        with pytest.raises(ValidationError):
            SimConfig(schedule=SamplingSchedule.periodic(0.01), horizon=1.0, dt_sim=0.005)

    def test_positive_fields(self):
        with pytest.raises(ValidationError):
            SimConfig(schedule=SamplingSchedule.periodic(1.0), horizon=-1.0, dt_sim=0.01)

    def test_infinite_horizon_rejected(self):
        # a uniform schedule would draw sampling gaps forever
        for horizon in (np.inf, np.nan):
            with pytest.raises(ValidationError):
                SimConfig(schedule=SamplingSchedule.uniform_random(0.01, 0.02), horizon=horizon, dt_sim=0.001)


class TestSampledPath:
    def test_matches_exact_flow(self):
        m = decay_model()
        cfg = cfg_for(0.05, 1.0, dt_sim=1e-3)
        states, ens = path_row(m, cfg)
        exact = np.exp(-ens.times)[:, None] * np.ones(2)
        assert np.abs(states - exact).max() < 5e-3

    def test_zero_initial_state_stays_zero(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = cfg_for(0.0234, 0.5, x0=np.zeros(2), seed=9)
        states, _ = path_row(m, cfg)
        assert np.all(states == 0.0)

    def test_uncontrolled_grows(self, fixtures):
        # open loop has an eigenvalue at -2 + 2*sqrt(2) > 0
        m = dataclasses.replace(load_model(fixtures / "ex1_sub1.json"),
                                B_bar_explicit=np.zeros((2, 2)))
        assert np.max(np.linalg.eigvals(m.A).real) > 0
        ens = run_ensemble(m, cfg_for(0.5, 2.0, dt_sim=5e-3, n_paths=64, seed=5, store_stride=20))
        ms = ens.mean_sq()
        assert ms[-1] > 10 * ms[0] or ens.n_diverged > 0


class TestEnsemble:
    def test_seed_determinism(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = cfg_for(0.0234, 1.0, n_paths=8, seed=13, store_stride=4)
        a = run_ensemble(m, cfg)
        b = run_ensemble(m, cfg)
        assert np.array_equal(np.nan_to_num(a.states), np.nan_to_num(b.states))
        assert np.array_equal(a.alive, b.alive)

    def test_worker_count_invariance(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = cfg_for(0.0234, 1.0, n_paths=10, seed=13, store_stride=4)
        ref = run_ensemble(m, cfg, workers=1)
        for w in (2, 3, 8):
            ens = run_ensemble(m, cfg, workers=w)
            assert np.array_equal(np.nan_to_num(ref.states), np.nan_to_num(ens.states))

    def test_mean_sq_matches_masked_formula_with_divergence(self):
        # mean_sq masks dead rows without zeroing their NaNs first; the means
        # and the decay fit must equal those of the zero-filled formula
        m = LinearSampledModel(
            name="gbm", n=1, A=np.array([[50.0]]), diffusion=(np.array([[10.0]]),),
            B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
        )
        ens = run_ensemble(m, cfg_for(0.1, 20.0, dt_sim=0.01, n_paths=64, seed=2, store_stride=10))
        assert 0 < ens.n_diverged < ens.n_paths
        states = np.nan_to_num(ens.states)
        sq = np.einsum("pti,pti->pt", states, states)
        counts = ens.alive.sum(axis=0).astype(float)
        tot = np.where(ens.alive, sq, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            ref = np.where(counts > 0, tot / counts, np.nan)
        means = ens.mean_sq()
        assert hashlib.sha256(means.tobytes()).hexdigest() == hashlib.sha256(ref.tobytes()).hexdigest()
        zero_filled = dataclasses.replace(ens, sum_sq=tot, alive_counts=counts)
        assert estimate_ms_decay(ens) == estimate_ms_decay(zero_filled)

    @pytest.mark.parametrize("a, horizon, n_paths, stride", [
        (50.0, 20.0, 3000, 1),    # 2,001 stored times in blocks of 21
        (50.0, 20.0, 3000, 10),   # 201 stored times in blocks of 21
        (28.0, 400.0, 8, 1),      # 40,001 stored times in blocks of 8,192
    ])
    def test_mean_sq_streamed_blocks_match_full_formula(self, a, horizon, n_paths, stride):
        # the kernel hands on blocks of max(2, _WINDOW_NORMALS // paths) stored times, and
        # each block's sum starts from the running total, so the means are those of one
        # sum over the full (paths x times) array in path order
        m = LinearSampledModel(
            name="gbm", n=1, A=np.array([[a]]), diffusion=(np.array([[10.0]]),),
            B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
        )
        # seed 0: some paths of each case pass the divergence cap, not all
        cfg = cfg_for(0.1, horizon, dt_sim=0.01, n_paths=n_paths, seed=0, store_stride=stride)
        ens = run_ensemble(m, cfg)
        assert 0 < ens.n_diverged < ens.n_paths
        assert len(ens.times) > 4 * max(2, sim._WINDOW_NORMALS // n_paths)
        assert_stats_match_reference(ens, ensemble_moments(m, cfg))

    def test_unresolved_gain_rejected(self, fixtures):
        m = load_model(fixtures / "ex1_sub1_control.json")
        with pytest.raises(ValidationError):
            run_ensemble(m, cfg_for(0.0234, 1.0))
        with pytest.raises(ValidationError):
            ensemble_moments(m, cfg_for(0.0234, 1.0))


def gbm_model():
    # sigma sqrt(h) = 1.6 at dt_sim = 0.01: at horizon 8 some paths pass the cap, not all
    return LinearSampledModel(
        name="gbm", n=1, A=np.array([[100.0]]), diffusion=(np.array([[16.0]]),),
        B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
    )


def gbm_cfg(**kw):
    return cfg_for(0.1, 8.0, dt_sim=0.01, **{"n_paths": 64, "seed": 2, **kw})


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def usable_cpus(monkeypatch, usable, cores=None):
    """Let the simulator see `usable` CPUs it may run on, in a machine of `cores` (default usable)."""
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: usable if cores is None else cores)


def outcome(call):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call()
    except (DegenerateEnsemble, DomainError) as exc:
        return type(exc), str(exc)


def assert_stats_match_reference(ens, *records):
    """The statistics of each record are mean_sq_reference's on ens's full arrays, bit for bit."""
    means, counts = mean_sq_reference(ens.states, ens.alive)
    for rec in (ens, *records):
        assert same_bits(rec.mean_sq(), means) and same_bits(rec.n_alive(), counts)


class TestEnsembleMoments:
    """ensemble_moments folds each chunk as it comes and drops it; run_ensemble runs the same
    fold and keeps every state.  Both must match the whole-array oracle bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_run_ensemble(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "_CHUNK", 7)   # 64 paths: ten chunks, the last one short
        cfg = gbm_cfg(store_stride=3)
        ens = run_ensemble(gbm_model(), cfg, workers=workers)
        mom = ensemble_moments(gbm_model(), cfg, workers=workers)
        assert 0 < ens.n_diverged < ens.n_paths
        assert (mom.n_paths, mom.n_diverged) == (ens.n_paths, ens.n_diverged)
        for name in ("times", "instants", "diverged_at", "terminal", "terminal_alive"):
            assert same_bits(getattr(ens, name), getattr(mom, name)), name
        assert same_bits(ens.terminal, ens.states[:, -1]) and same_bits(ens.terminal_alive, ens.alive[:, -1])
        assert_stats_match_reference(ens, mom)
        assert mom.seed == ens.seed
        assert outcome(lambda: estimate_ms_decay(mom)) == outcome(lambda: estimate_ms_decay(ens))
        ea, eb = estimate_as_exponent(ens), estimate_as_exponent(mom)
        assert same_bits(ea.values, eb.values)
        assert (ea.t_used, ea.median, ea.max, ea.n_zero, ea.n_diverged) == \
            (eb.t_used, eb.median, eb.max, eb.n_zero, eb.n_diverged)

    @pytest.mark.parametrize("block, stride, workers", [
        (2, 1, 1), (2, 3, 2), (3, 1, 2), (3, 3, 1), (3, 3, 3), (5, 1, 2), (5, 1, 3),
    ])
    def test_block_boundaries_bit_identical(self, monkeypatch, block, stride, workers):
        # the kernel hands on blocks of max(2, _WINDOW_NORMALS // rows) stored times
        # seed 0: paths die at stored times on and off each block boundary
        cfg = dataclasses.replace(gbm_cfg(store_stride=stride, n_paths=22, seed=0), horizon=7.0)
        ens = run_ensemble(gbm_model(), cfg)   # one chunk, one block
        monkeypatch.setattr(sim, "_CHUNK", 7)   # three chunks of 7 paths, then one of 1
        monkeypatch.setattr(sim, "_WINDOW_NORMALS", 7 * block)
        # more workers than this machine may have cores, and frequent thread switches,
        # so that a fold out of path order would show
        usable_cpus(monkeypatch, 4)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mom = ensemble_moments(gbm_model(), cfg, workers=workers)
            kept = run_ensemble(gbm_model(), cfg, workers=workers)
        finally:
            sys.setswitchinterval(switch)
        # every case but (3, 1) leaves a lone last stored time, which numpy would
        # sum pairwise had it a block of its own
        assert len(ens.times) == {1: 701, 3: 235}[stride]
        first_dead = np.argmin(ens.alive[ens.diverged], axis=1)   # first dead stored time
        assert np.any(first_dead % block == 0) and np.any(first_dead % block != 0)
        for rec in (mom, kept):
            for name in ("diverged_at", "terminal", "terminal_alive"):
                assert same_bits(getattr(ens, name), getattr(rec, name)), name
        assert same_bits(ens.states, kept.states) and same_bits(ens.alive, kept.alive)
        assert_stats_match_reference(ens, mom, kept)

    def test_failing_chunk_raises_and_hangs_nothing(self, monkeypatch):
        # the third chunk waits for the second before it hands on its stored times
        kernel = sim._integrate_chunk
        third_started = threading.Event()

        class Boom(Exception):
            pass

        def failing(model, b_bar, grid, x0, path_indices, *args):
            if path_indices[0] == 2 * sim._CHUNK:
                third_started.set()
            elif path_indices[0] == sim._CHUNK:
                third_started.wait(timeout=10)
                raise Boom("second chunk")
            return kernel(model, b_bar, grid, x0, path_indices, *args)

        monkeypatch.setattr(sim, "_CHUNK", 8)   # 64 paths: eight chunks
        monkeypatch.setattr(sim, "_integrate_chunk", failing)
        usable_cpus(monkeypatch, 4)
        for workers in (2, 3):
            third_started.clear()
            raised = []

            def call():
                try:
                    ensemble_moments(gbm_model(), gbm_cfg(), workers=workers)
                except Boom as exc:
                    raised.append(exc)

            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(timeout=20)
            assert not caller.is_alive(), f"workers {workers}: ensemble_moments hangs"
            assert len(raised) == 1 and third_started.is_set()

    def test_pool_clamped_and_chunks_bounded(self, monkeypatch):
        # a fake pool that runs each task when submitted: no thread starts
        record = {"max_workers": [], "in_flight": 0, "peak": 0}

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self):
                record["in_flight"] -= 1
                return self.value

        class Pool:
            def __init__(self, max_workers):
                record["max_workers"].append(max_workers)
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                record["in_flight"] += 1
                record["peak"] = max(record["peak"], record["in_flight"])
                assert record["in_flight"] <= self.max_workers
                return Done(fn(*args))

        monkeypatch.setattr(sim, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(sim, "_CHUNK", 8)
        cfg = gbm_cfg()   # 64 paths: eight chunks
        ref = ensemble_moments(gbm_model(), cfg)
        # the affinity mask, not the core count, bounds the pool
        for usable, cores, want in ((64, 64, 8), (3, 3, 3), (3, 64, 3)):
            usable_cpus(monkeypatch, usable, cores)
            record["max_workers"].clear()
            record["peak"] = 0
            got = ensemble_moments(gbm_model(), cfg, workers=10**6)
            assert record["max_workers"] == [want] and record["peak"] == want
            assert same_bits(got.mean_sq(), ref.mean_sq())
            assert same_bits(run_ensemble(gbm_model(), cfg, workers=10**6).mean_sq(), ref.mean_sq())
        # a process pinned to one CPU, an unknown core count where there is no
        # affinity call, or a single chunk runs serially
        record["max_workers"].clear()
        usable_cpus(monkeypatch, 1, 64)
        assert same_bits(ensemble_moments(gbm_model(), cfg, workers=4).mean_sq(), ref.mean_sq())
        monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        ensemble_moments(gbm_model(), cfg, workers=4)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        ensemble_moments(gbm_model(), dataclasses.replace(cfg, n_paths=8), workers=4)
        assert record["max_workers"] == []

    def test_memory_grows_only_by_per_path_arrays(self, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK", 64)
        m = decay_model()

        def peak(n_paths):
            tracemalloc.start()
            try:
                ensemble_moments(m, cfg_for(0.05, 2.0, dt_sim=0.005, n_paths=n_paths))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(256)   # first-call allocations, such as imports, stay out of the comparison
        extra = 1024 - 256
        growth = peak(1024) - peak(256)
        per_path = extra * (m.n * 8 + 1 + 8)   # terminal state, alive flag, divergence time
        # 401 stored times: keeping every state would grow by 401 x n x 8 bytes a path
        assert growth <= 2 * per_path + 16384 < extra * 401 * m.n * 8

    def test_memory_does_not_grow_with_horizon(self):
        m = decay_model()

        def peak(horizon):
            tracemalloc.start()
            try:
                ensemble_moments(m, cfg_for(0.05, horizon, dt_sim=0.005, n_paths=256))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2.0)   # first-call allocations, such as imports, stay out of the comparison
        extra = 3201 - 401   # stored times the eightfold horizon adds
        growth = peak(16.0) - peak(2.0)
        # the grid, the stored times, the sums and the counts grow, by a few words a stored
        # time; keeping a chunk's states would grow by 256 paths x n x 8 bytes a stored time
        assert growth <= extra * 16 * 8 < extra * 256 * m.n * 8

    def test_unindexable_path_count_refused(self):
        cfg = cfg_for(0.05, 0.5, n_paths=10**18)
        for call in (ensemble_moments, run_ensemble):
            with pytest.raises(DomainError, match="too many to index"):
                call(decay_model(), cfg)


class TestKernelOracle:
    """The kernel is bit-identical to the plain per-step loop of tests/oracles.py."""

    @staticmethod
    def both(monkeypatch, call):
        fast = call()
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_integrate_chunk", em_reference)
            ref = call()
        return fast, ref

    def assert_ensembles(self, fast, ref):
        for field in ("times", "states", "alive", "diverged_at", "instants"):
            assert same_bits(getattr(fast, field), getattr(ref, field)), field

    def test_planar_uniform_gaps(self, monkeypatch, fixtures):
        cert = load_certificate(fixtures / "cert_planar.json")
        model = load_model(fixtures / "planar.json").with_gain(cert.K_hat)
        cfg = SimConfig(schedule=SamplingSchedule.parse("uniform:0.005,0.015"), horizon=2.0,
                        dt_sim=0.0005, n_paths=6, seed=3)
        self.assert_ensembles(*self.both(monkeypatch, lambda: run_ensemble(model, cfg)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sub1_chunks_and_stride(self, monkeypatch, fixtures, workers):
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = cfg_for(0.0234, 0.1, n_paths=_CHUNK + 5, seed=4, store_stride=3)
        self.assert_ensembles(*self.both(monkeypatch, lambda: run_ensemble(m, cfg, workers=workers)))

    def test_partially_diverging_gbm(self, monkeypatch):
        fast, ref = self.both(monkeypatch, lambda: run_ensemble(gbm_model(), gbm_cfg(store_stride=3)))
        assert 0 < fast.n_diverged < fast.n_paths
        self.assert_ensembles(fast, ref)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_three_channels_across_chunks(self, monkeypatch, workers):
        # m = 3 normals a step; 46 steps is no multiple of the 16-step noise window,
        # and the last chunk of 5 paths starts a new block of paths
        rng = np.random.default_rng(11)
        model = LinearSampledModel(
            name="three", n=3, A=-np.eye(3) + 0.3 * rng.normal(size=(3, 3)),
            diffusion=tuple(0.4 * rng.normal(size=(3, 3)) for _ in range(3)),
            B_bar_explicit=-0.5 * np.eye(3), x0=np.array([1.0, -0.5, 0.25]),
        )
        cfg = cfg_for(0.05, 0.23, dt_sim=0.005, n_paths=_CHUNK + 5, seed=6)
        assert len(sim._grid_for(cfg)[0].steps) == 46
        fast, ref = self.both(monkeypatch, lambda: run_ensemble(model, cfg, workers=workers))
        self.assert_ensembles(fast, ref)
        # |x|^2 is x1^2 + x2^2 + x3^2 added in that order, over 47 stored times in blocks of 16
        assert_stats_match_reference(fast, ensemble_moments(model, cfg, workers=workers))

    def test_em_discrete(self, monkeypatch, rng):
        f, g = rng.normal(size=(2, 2)), 0.5 * rng.normal(size=(2, 2))
        x0 = rng.normal(size=2)
        assert same_bits(*self.both(monkeypatch, lambda: em_path(f, [g], 0.05, 60, x0, seed=5)))
        assert same_bits(*self.both(monkeypatch, lambda: em_terminal(
            f, [g], 0.05, 60, x0, n_paths=7, seed=5)))
        # a chain that passes the cap part way
        assert same_bits(*self.both(monkeypatch, lambda: em_path(
            np.array([[1e3]]), [], 1.0, 80, np.array([1.0]))))


class TestAliveFlags:
    def test_alive_matches_divergence_times(self):
        ens = run_ensemble(gbm_model(), gbm_cfg(store_stride=7))
        assert 0 < ens.n_diverged < ens.n_paths
        d = ens.diverged_at[:, None]
        assert np.array_equal(ens.alive, np.isnan(d) | (ens.times[None, :] < d))
        assert np.array_equal(np.isnan(ens.states), np.repeat(~ens.alive[:, :, None], ens.states.shape[2], axis=2))


def assert_standard_normal(z):
    """Mean, variance and kurtosis of z within 5 standard errors of a standard normal's."""
    n = z.size
    assert np.isfinite(z).all()
    assert abs(z.mean()) <= 5 / np.sqrt(n)
    assert abs((z * z).mean() - 1.0) <= 5 * np.sqrt(2.0 / n)
    assert abs((z ** 4).mean() - 3.0) <= 5 * np.sqrt(96.0 / n)


def assert_uncorrelated(a, b):
    """The sample correlation of a and b within 5 standard errors of 0."""
    assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) <= 5 / np.sqrt(a.size)


class TestCounterNoise:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 12345, 2**64 - 1])
    def test_matches_reference_generator(self, seed):
        # the one-path pad, paths across a block boundary, out of order, and far out
        subsets = ([5, 5], [0, 3, 2**40 + 1], [1022, 1023, 1024, 2049], [1030, 2, 1024])
        # ranges inside one window, on its edges, and across several windows
        ranges = ((0, 1), (0, 16), (15, 2), (3, 13), (9, 37), (16, 16), (30, 50))
        for m in (1, 2, 3):
            for paths in subsets:
                # one draw for every range, as the kernel reuses its generator
                draw = _noise(seed, paths, m)
                for step0, nsteps in ranges:
                    got = draw(step0, nsteps, np.ones(nsteps), np.empty((nsteps, m, len(paths))))
                    ref = noise_reference(seed, paths, step0, nsteps, m).transpose(1, 2, 0)
                    assert same_bits(got, np.ascontiguousarray(ref)), (m, paths, step0, nsteps)

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 12345, 2**64 - 1])
    def test_streams_are_distinct(self, seed):
        # the schedule stream is numpy's Philox under the key (seed, 2^63) from counter 0
        key = np.array([seed, 2**63], dtype=np.uint64)
        schedule = _stream(seed, _SCHEDULE_STREAM)
        assert np.array_equal(schedule.random(8), np.random.Generator(np.random.Philox(key=key)).random(8))
        first = {"schedule": _stream(seed, _SCHEDULE_STREAM).standard_normal(4)}
        for block in (0, 1, 2):
            for window in (0, 1, 2):
                gen = _stream(seed, block, window)
                first[block, window] = gen.standard_normal(4)
                # a whole stream of three channels leaves the window's counter word alone,
                # so it never runs into the next window's stream
                gen.standard_normal(_BLOCK * _WINDOW * 3)
                assert gen.bit_generator.state["state"]["counter"][1] == window
        heads = [z[0] for z in first.values()]
        assert len(set(heads)) == len(heads)
        # the kernel's first normal of each block and window is its stream's first
        z = noise(seed, [0, _BLOCK, 2 * _BLOCK], 0, 3 * _WINDOW, 1)
        assert same_bits(z[::_WINDOW, 0].T.ravel(), np.array([first[b, w][0] for b in range(3) for w in range(3)]))

    @pytest.mark.parametrize("m", [1, 2])
    def test_windows_concatenate(self, m):
        paths = np.array([0, 5, 2**33])
        whole = noise(11, paths, 0, 37, m)
        assert whole.shape == (37, m, 3)
        for a in (1, 6, 18, 36):
            parts = np.concatenate([noise(11, paths, 0, a, m), noise(11, paths, a, 37 - a, m)])
            assert np.array_equal(whole, parts)
        # a path's noise does not depend on which other paths share the call
        assert np.array_equal(whole[..., 1], noise(11, [5], 0, 37, m)[..., 0])

    def test_moments(self):
        assert_standard_normal(noise(3, np.arange(1000), 0, 1000, 1))

    def test_block_boundary_statistics(self):
        # paths B - 1 and B draw from two streams; 4096 steps cross 255 window boundaries
        z = noise(5, [_BLOCK - 1, _BLOCK], 0, 4096, 2)
        for col in (0, 1):
            assert_standard_normal(z[..., col])
            assert_uncorrelated(z[1:, :, col], z[:-1, :, col])   # neighbouring steps
        assert_uncorrelated(z[..., 0], z[..., 1])                 # neighbouring paths
        assert_uncorrelated(z[:, 0], z[:, 1])                     # the two channels

    def test_window_boundary_statistics(self):
        # steps W - 1 and W of 8 blocks of paths draw from two streams each
        z = noise(5, np.arange(8 * _BLOCK), _WINDOW - 1, 2, 1)[:, 0]
        for step in (0, 1):
            assert_standard_normal(z[step])
            assert_uncorrelated(z[step, 1:], z[step, :-1])   # neighbouring paths, across blocks too
        assert_uncorrelated(z[0], z[1])                      # neighbouring steps

    def test_sampled_path_is_row_of_multichunk_ensemble(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = cfg_for(0.0234, 0.1, n_paths=_CHUNK + 5, seed=4, store_stride=5)
        ens = run_ensemble(m, cfg, workers=1)
        two = run_ensemble(m, cfg, workers=2)
        assert ens.states.tobytes() == two.states.tobytes()
        assert ens.alive.tobytes() == two.alive.tobytes()
        for p in (_CHUNK, _CHUNK + 3):
            states, _ = path_row(m, cfg, p)
            assert np.array_equal(states, ens.states[p])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_does_not_depend_on_path_count(self, fixtures, workers):
        # a path's bits depend only on (model, schedule, seed, path index); a one-path
        # chunk (1 path, or _CHUNK + 1) multiplied its (1, n) state by another numpy
        # kernel, and its last bits moved from stored time 227 of this horizon on
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = cfg_for(0.0234, 1.0, seed=7)
        ref = run_ensemble(m, dataclasses.replace(cfg, n_paths=_CHUNK + 2), workers=workers)
        for n in (1, 2, 3, 5, 64, _BLOCK + 1, _CHUNK + 1):
            ens = run_ensemble(m, dataclasses.replace(cfg, n_paths=n), workers=workers)
            for name in ("states", "alive", "diverged_at"):
                assert same_bits(getattr(ens, name), getattr(ref, name)[:n]), (n, name)

    @pytest.mark.parametrize("schedule", [SamplingSchedule.periodic(0.05),
                                          SamplingSchedule.uniform_random(0.03, 0.07)])
    def test_shorter_horizon_is_prefix(self, fixtures, schedule):
        # up to its last sampling instant, the grid of a shorter horizon is a prefix of a
        # longer one's, and so are its stored states, although its last noise window is cut short
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = SimConfig(schedule=schedule, horizon=2.0, dt_sim=0.003, n_paths=3, seed=9)
        long = run_ensemble(m, cfg)
        short = run_ensemble(m, dataclasses.replace(cfg, horizon=0.53))
        k = int(np.searchsorted(short.times, short.instants[-1])) + 1
        assert (k - 1) % _WINDOW != 0 and len(short.times) > k
        assert same_bits(short.times[:k], long.times[:k])
        assert same_bits(short.states[:, :k], long.states[:, :k])

    def test_chunks_hold_whole_blocks(self):
        # so each chunk draws the noise streams of its own paths, and no other chunk draws them
        assert _CHUNK % _BLOCK == 0


class TestGrid:
    @pytest.mark.parametrize("schedule, horizon", [
        (SamplingSchedule.periodic(0.0234), 0.5),
        (SamplingSchedule.periodic(0.05), 1.0),   # the horizon ends on an instant
        (SamplingSchedule.uniform_random(0.005, 0.015), 2.0),
        (SamplingSchedule.explicit([0.0, 0.013, 0.05, 0.051, 0.2]), 0.2),
        (SamplingSchedule.explicit([0.0, 0.013, 0.05, 0.051, 0.2]), 0.35),
    ])
    def test_matches_knot_by_knot_build(self, schedule, horizon):
        cfg = SimConfig(schedule=schedule, horizon=horizon, dt_sim=schedule.underline_dt / 10, seed=3)
        grid, store_idx = sim._grid_for(cfg)
        times, steps, refresh = build_grid_reference(grid.instants, horizon, cfg.dt_sim)
        assert same_bits(grid.times, times) and same_bits(grid.steps, steps)
        assert same_bits(grid.refresh, refresh) and refresh.sum() == np.sum(grid.instants < times[-1])
        assert same_bits(store_idx, np.arange(len(times)))


class TestSecondMomentOracle:
    @pytest.mark.parametrize("schedule", [
        SamplingSchedule.periodic(0.0234), SamplingSchedule.uniform_random(0.01, 0.02),
    ])
    def test_mean_sq_matches_exact_moment(self, fixtures, schedule):
        # the EM recursion's own E|x|^2, propagated exactly on the same grid
        model = load_model(fixtures / "ex1_sub1_control.json").with_gain(np.array([[-5.5085, -0.1520]]))
        cfg = SimConfig(schedule=schedule, horizon=0.5, dt_sim=schedule.underline_dt / 10,
                        n_paths=20_000, seed=8)
        ens = run_ensemble(model, cfg, workers=2)
        assert ens.n_diverged == 0
        exact = em_second_moment(model.A, model.B_bar, model.diffusion, model.x0,
                                 ens.times, ens.instants)
        sq = np.einsum("pti,pti->pt", ens.states, ens.states)
        se = sq.std(axis=0, ddof=1) / np.sqrt(ens.n_paths)
        z = np.abs(ens.mean_sq() - exact)
        assert np.all(z <= 5 * se + 1e-12 * exact)


class TestEmDiscrete:
    def test_deterministic_recursion(self):
        f = np.array([[0.1, 1.0], [0.0, -0.2]])
        h, n = 0.05, 7
        path = em_path(f, [np.zeros((2, 2))], h, n, np.array([1.0, -1.0]), seed=4)
        expected = np.array([1.0, -1.0])
        m = np.eye(2) + h * f
        for k in range(1, n + 1):
            expected = m @ np.array(path[k - 1])
            assert np.allclose(path[k], expected, atol=0)
        again = em_path(f, [np.zeros((2, 2))], h, n, np.array([1.0, -1.0]), seed=4)
        assert np.array_equal(path, again)

    def test_zero_stepsize(self):
        path = em_path(np.eye(1), [np.eye(1)], 0.0, 5, np.array([2.0]), seed=1)
        assert np.all(path == 2.0)

    def test_nan_past_divergence_cap(self):
        path = em_path(np.array([[1e3]]), [], 1.0, 80, np.array([1.0]))
        assert np.isfinite(path[:40]).all() and np.isnan(path[-1]).all()

    def test_terminal_path_zero_matches_full_path(self, rng):
        # one kernel serves both; batched and single-row matmuls may round apart
        for _ in range(20):
            f, g = rng.normal(size=(2, 2)), 0.5 * rng.normal(size=(2, 2))
            x0 = rng.normal(size=2)
            path = em_path(f, [g], 0.05, 40, x0, seed=5)
            term = em_terminal(f, [g], 0.05, 40, x0, n_paths=3, seed=5)
            assert np.allclose(term[0], path[-1], rtol=1e-12, atol=0)

    def test_discrete_mean_matches_growth(self):
        # E X_N = (1 + a h)^N x0 exactly for the EM chain
        a, sigma, h, n_steps, n_paths = 1.0, 0.5, 0.02, 50, 100_000
        term = em_terminal(
            np.array([[a]]), [np.array([[sigma]])], h, n_steps, np.array([1.0]),
            n_paths, seed=21,
        )
        exact = (1 + a * h) ** n_steps
        sample_mean = float(term.mean())
        se = float(term.std(ddof=1)) / np.sqrt(n_paths)
        assert abs(sample_mean - exact) <= 3 * se


class TestEstimators:
    def test_deterministic_decay_rate(self):
        m = LinearSampledModel(
            name="scalar", n=1, A=np.array([[-1.0]]), diffusion=(),
            B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
        )
        ens = run_ensemble(m, cfg_for(0.5, 5.0, dt_sim=0.01, n_paths=2, store_stride=10))
        d = estimate_ms_decay(ens)
        assert d.rate == pytest.approx(-2.0, rel=0.05)
        assert d.r_squared >= 0.99

    def test_all_zero_is_degenerate(self):
        m = decay_model()
        ens = run_ensemble(m, cfg_for(0.5, 5.0, dt_sim=0.05, x0=np.zeros(2), store_stride=2))
        with pytest.raises(DegenerateEnsemble):
            estimate_ms_decay(ens)

    def test_window_needs_ten_points(self):
        m = decay_model()
        ens = run_ensemble(m, cfg_for(0.5, 5.0, dt_sim=0.05, store_stride=50))
        with pytest.raises(DegenerateEnsemble):
            estimate_ms_decay(ens, window=(4.0, 5.0))

    def test_exponent_deterministic(self):
        m = LinearSampledModel(
            name="scalar", n=1, A=np.array([[-1.0]]), diffusion=(),
            B_bar_explicit=np.zeros((1, 1)), x0=np.array([1.0]),
        )
        ens = run_ensemble(m, cfg_for(0.5, 2.0, dt_sim=1e-3, store_stride=10))
        ex = estimate_as_exponent(ens)
        # EM carries an O(dt) bias of a^2 dt / 2 in the exponent
        assert ex.median == pytest.approx(-1.0, abs=1e-3)

    def test_exponent_zero_paths_excluded(self):
        terminal = np.zeros((3, 2))
        terminal[0] = 1.0  # one healthy path, two at exactly zero
        ens = EnsembleMoments(
            times=np.array([0.0, 0.5, 1.0, 2.0]),
            sum_sq=np.array([2.0, 2.0, 2.0, 2.0]),
            alive_counts=np.full(4, 3),
            terminal=terminal,
            terminal_alive=np.ones(3, dtype=bool),
            instants=np.array([0.0]),
            seed=0,
            diverged_at=np.full(3, np.nan),
        )
        ex = estimate_as_exponent(ens)
        assert ex.n_zero == 2
        assert np.isneginf(ex.values[1]) and np.isneginf(ex.values[2])
        # the surviving path sits at |x| = sqrt(2), t = 2
        assert ex.median == pytest.approx(np.log(np.sqrt(2.0)) / 2.0)


class TestCsvExports:
    def test_headers_and_shape(self, tmp_path, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        ens = run_ensemble(m, cfg_for(0.0234, 0.2, n_paths=3, store_stride=20))
        t1 = tmp_path / "traj.csv"
        t2 = tmp_path / "stats.csv"
        export_trajectories_csv(ens, t1)
        export_ensemble_stats_csv(ens, t2)
        lines = t1.read_text().splitlines()
        assert lines[0] == "t,path,x1,x2"
        assert len(lines) == 1 + 3 * len(ens.times)
        lines = t2.read_text().splitlines()
        assert lines[0] == "t,mean_sq_norm,n_alive"
        assert len(lines) == 1 + len(ens.times)

    def test_trajectories_format_with_nan_rows(self, tmp_path):
        # one repr per value, as the per-value writer produced it
        ens = run_ensemble(gbm_model(), gbm_cfg(store_stride=40))
        assert 0 < ens.n_diverged < ens.n_paths
        ref = ["t,path,x1\n"]
        for p in range(ens.n_paths):
            for i, t in enumerate(ens.times):
                coords = ",".join(repr(float(v)) for v in ens.states[p, i])
                ref.append(f"{float(t)!r},{p},{coords}\n")
        out = tmp_path / "traj.csv"
        export_trajectories_csv(ens, out)
        assert out.read_bytes() == "".join(ref).encode("utf-8")


class TestStabilityTransferContrast:
    def test_certified_interval_decays_contrast_diagnostic(self, fixtures, capsys):
        # below the certified bound the loop must decay (asserted); at ten
        # times the bound the run is diagnostic only: the bound is sufficient,
        # not necessary, so instability is not asserted
        gain = np.array([[-5.5085, -0.1520]])
        model = load_model(fixtures / "ex1_sub1_control.json").with_gain(gain)
        tau = 0.0235
        good = run_ensemble(model, SimConfig(
            schedule=SamplingSchedule.periodic(0.0234), horizon=3.0,
            dt_sim=0.00234, n_paths=100, seed=5, store_stride=10))
        assert estimate_ms_decay(good).rate < 0
        coarse_dt = 10 * tau
        coarse = run_ensemble(model, SimConfig(
            schedule=SamplingSchedule.periodic(coarse_dt), horizon=3.0,
            dt_sim=coarse_dt / 10, n_paths=100, seed=5, store_stride=2))
        try:
            rate = estimate_ms_decay(coarse).rate
            print(f"contrast run at 10x bound: rate={rate:.2f}, "
                  f"diverged={coarse.n_diverged}")
        except DegenerateEnsemble:
            print(f"contrast run at 10x bound: diverged={coarse.n_diverged}")


class TestDeterministicCpsEquality:
    def test_noise_free_round_trip(self):
        # zero diffusion: the update formulas coincide term by term
        m = LinearSampledModel(
            name="det", n=2, A=np.array([[0.0, 1.0], [-2.0, -1.0]]), diffusion=(),
            B_bar_explicit=np.array([[-1.0, 0.0], [0.0, -1.0]]), x0=np.array([1.0, -0.5]),
        )
        cfg = SimConfig(schedule=SamplingSchedule.periodic(0.1), horizon=1.0, dt_sim=0.01)
        states, direct = path_row(m, cfg)
        times, x, y = cps_reference(m, cfg)
        assert np.array_equal(direct.times, times)
        assert np.abs(states - x).max() <= 1e-12
        assert np.all(y[np.isin(times, direct.instants)] == 0.0)


class TestStochasticCpsEquality:
    """The paper's physical/cyber form, stepped on (x, y) with the cyber state
    reset to 0 at each instant, is the loop the kernel integrates in hold form."""

    @pytest.mark.parametrize("name, seed", [("ex1_sub1", 3), ("ex1_sub2", 5)])
    def test_matches_sampled_path(self, fixtures, name, seed):
        m = load_model(fixtures / f"{name}.json")
        cfg = cfg_for(0.0234, 0.5, seed=seed)
        states, direct = path_row(m, cfg)
        times, x, y = cps_reference(m, cfg, path_index=0)
        assert np.array_equal(direct.times, times)
        assert np.abs(states - x).max() <= 1e-12
        at_instants = np.isin(times, direct.instants)
        assert at_instants.sum() == len(direct.instants)
        assert np.all(y[at_instants] == 0.0)
        # between instants y = x - x(t_*), the hold the kernel applies, with x(t_*)
        # the reference's own x at the last instant
        instant_idx = np.flatnonzero(at_instants)
        last = instant_idx[np.searchsorted(instant_idx, np.arange(len(times)), side="right") - 1]
        assert np.abs(y - (x - x[last])).max() <= 1e-12


class TestUniformScheduleEnsemble:
    def test_deterministic_and_gap_bounded(self, fixtures):
        m = load_model(fixtures / "ex1_sub1.json")
        cfg = SimConfig(schedule=SamplingSchedule.uniform_random(0.02, 0.05),
                        horizon=1.0, dt_sim=0.002, n_paths=4, seed=21, store_stride=10)
        a = run_ensemble(m, cfg)
        b = run_ensemble(m, cfg, workers=3)
        assert np.array_equal(a.instants, b.instants)
        assert np.array_equal(np.nan_to_num(a.states), np.nan_to_num(b.states))
        gaps = np.diff(a.instants)
        assert gaps.min() >= 0.02 - 1e-12 and gaps.max() <= 0.05 + 1e-12
