"""Euler-Maruyama simulation of sampled-data loops.

Brownian increments are counter-addressed: normal j of step k of path p is
entry ((p mod B) W + (k mod W)) m + j of the stream (seed, p // B, k // W),
the standard normals of numpy's Philox generator (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11) under the key (seed mod 2^64,
p // B) from the counter (0, k // W, 0, 0), drawn by numpy's ziggurat
(Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000).  B = _BLOCK paths and
W = _WINDOW steps share a stream, path-major, so a path's increments are
reproducible independently of chunking, worker count, path count, horizon or
execution order, and one stream's cost spreads over B W m normals.  A draw
takes only the prefix of each stream that its last path and step need, so a
one-path run draws no normal it does not use, and the counter's word 0 never
reaches the next window's stream.  The bits are those of the installed numpy:
NEP 19 keeps a bit generator's raw words across numpy versions, but not
Generator.standard_normal.  Random sampling instants come from the stream
(seed, 2^63, 0), a key that no block of paths reaches.

Sampling instants are knots of the integration grid: local substeps shrink so
each instant is hit exactly and the zero-order-hold input switches at the
instant, never inside a step.

One Euler-Maruyama kernel, `_integrate_chunk`, serves run_ensemble and
ensemble_moments.  It integrates the paper's physical/cyber (impulsive) form
of the loop in its hold form: the cyber state y = x - x(t_*) resets to 0 at
each sampling instant, so the drift drift(x) + (x - y) B_bar^T is
drift(x) + x(t_*) B_bar^T.  It forms that hold term once per sampling
interval, screens the batch for divergence with one dot product x.x per
_SCREEN_RUN state entries against fl(cap^2) (the row-by-row check runs only
when that test fails or a path is already dead), and writes the stored alive
flags once per block and when a path dies.  A step allocates nothing: the
state and its temporaries are (paths, n) views of state-major arrays, so each
state component is one contiguous row; the model's drift step
(model.drift_step), built once per chunk on the chunk's state and drift
buffers, and the diffusion products write into buffers of the chunk, and a
broadcast runs one contiguous row at a time, since numpy buffers a ufunc that
broadcasts across a block.

An ensemble is integrated in chunks of _CHUNK paths, at most one per worker
at a time, and never on more threads than the CPUs the process may run on.
A chunk of one path runs beside a copy of itself, so a path's states depend
only on the model, schedule, seed and path index, not on the path count.
The kernel hands its stored states on in blocks of stored times, path-major,
and a chunk hands on a block only after the chunk before it has handed on
those stored times.  One fold adds each block's |x|^2 (the squares summed in
index order) into per-time sums, each stored time's paths in path order, so
the statistics do not depend on chunking or worker count.  ensemble_moments
then drops the block, so its memory is O(workers x _WINDOW_NORMALS x n +
paths x n + stored times) for any horizon; run_ensemble is the same fold
plus a copy of every block into (paths x stored times x n) arrays.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateEnsemble, DomainError, ValidationError
from .models import SampledModel, SamplingSchedule, check_grid_length, schedule_instants

_MASK64 = (1 << 64) - 1
_SCHEDULE_STREAM = 1 << 63
_DIVERGENCE_CAP = 1e150
_SCREEN = _DIVERGENCE_CAP * _DIVERGENCE_CAP   # fl(cap^2)
# entries per dot product of the divergence screen: OpenBLAS runs a longer dot on all its
# threads (past 10,000 entries on x86-64), and waking them every step costs more than the dot
_SCREEN_RUN = 8192
_CHUNK = 4096
_BLOCK = 1024    # B: paths that share a noise stream; divides _CHUNK, so no two chunks draw one stream
_WINDOW = 16     # W: steps that share a noise stream
_WINDOW_NORMALS = 1 << 16   # entries per stored or summed block: bounds the store buffers


def _stream(seed: int, key: int, window: int = 0, gen: Optional[np.random.Generator] = None):
    """numpy's Philox generator under the key (seed mod 2^64, key), from the counter (0, window, 0, 0).

    gen, a generator of an earlier call, is reset to that stream in place,
    which costs a fraction of a new generator and gives the same numbers.
    """
    words = np.array([0, window, 0, 0, int(seed) & _MASK64, int(key) & _MASK64], dtype=np.uint64)
    counter, keys = words[:4], words[4:]
    if gen is None:
        return np.random.Generator(np.random.Philox(key=keys, counter=counter))
    # buffer_pos 4 marks the word buffer empty, so its words are never read
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": counter, "key": keys},
                               "buffer": counter, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def _as_slice(rows: np.ndarray):
    """rows as a slice where they are an ascending run or one row repeated, which
    broadcasts, so that indexing by them makes a view."""
    if np.all(rows == rows[0]):
        return slice(int(rows[0]), int(rows[0]) + 1)
    return slice(int(rows[0]), int(rows[-1]) + 1) if np.all(np.diff(rows) == 1) else rows


def _noise(seed: int, paths, m: int):
    """draw(step0, nsteps, scale, out): the standard normals driving steps
    step0 .. step0 + nsteps - 1 of each path, those of step step0 + i times
    scale[i], written time-major into out, shape (nsteps, m, len(paths)), and
    returned.

    Normal j of step k of path p is entry ((p mod B) W + (k mod W)) m + j of
    stream (seed, p // B, k // W): the standard normals of _stream(seed,
    p // B, k // W), path-major.  A draw takes only the prefix of each stream
    that its last path and step need, and resets one generator per call of
    _noise from stream to stream.
    """
    paths = np.asarray(paths, dtype=np.int64)
    blocks = paths // _BLOCK
    # each run of columns in one block: (block, its columns of out, their rows of the
    # stream's (paths, W, m) layout, the last row the run needs)
    edges = [0, *(np.flatnonzero(np.diff(blocks)) + 1), len(paths)]
    groups = []
    for c0, c1 in zip(edges[:-1], edges[1:]):
        rows = paths[c0:c1] - blocks[c0] * _BLOCK
        groups.append((int(blocks[c0]), slice(c0, c1), _as_slice(rows), int(rows.max())))
    buf = np.empty((max(g[3] for g in groups) + 1) * _WINDOW * m)
    gen = None
    copyto, multiply = np.copyto, np.multiply

    def draw(step0: int, nsteps: int, scale: np.ndarray, out: np.ndarray) -> np.ndarray:
        nonlocal gen
        for w in range(step0 // _WINDOW, -(-(step0 + nsteps) // _WINDOW)):
            k0 = w * _WINDOW
            a, e = max(step0, k0) - k0, min(step0 + nsteps, k0 + _WINDOW) - k0
            i0, i1 = k0 + a - step0, k0 + e - step0   # the window's steps in out
            for b, cols, rows, last in groups:
                gen = _stream(seed, b, w, gen)
                gen.standard_normal(out=buf[:(last * _WINDOW + e) * m])
                z = buf[:(last + 1) * _WINDOW * m].reshape(last + 1, _WINDOW, m)
                copyto(out[i0:i1, :, cols], z[rows, a:e].transpose(1, 2, 0))
        # one step's (m, paths) slab at a time: numpy buffers a multiply that broadcasts
        # scale across a block of out, and this allocates nothing
        for i in range(nsteps):
            multiply(out[i], scale[i], out[i])
        return out
    return draw


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration.

    dt_sim is the EM substep ceiling; it must not exceed a tenth of the
    smallest sampling gap so the hold dynamics are resolved.
    """

    schedule: SamplingSchedule
    horizon: float
    dt_sim: float
    n_paths: int = 1
    seed: int = 0
    store_stride: int = 1
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValidationError("horizon must be positive and finite")
        if not self.dt_sim > 0:
            raise ValidationError("dt_sim must be positive")
        if self.n_paths < 1 or self.store_stride < 1:
            raise ValidationError("n_paths and store_stride must be >= 1")
        limit = self.schedule.underline_dt / 10.0
        if self.dt_sim > limit * (1.0 + 1e-12):
            raise ValidationError(
                f"dt_sim={self.dt_sim} must be <= underline_dt/10 = {limit:g}"
            )


@dataclass(frozen=True)
class _Grid:
    times: np.ndarray    # (N+1,) integration grid, t[0] = 0
    steps: np.ndarray    # (N,) local substeps
    refresh: np.ndarray  # (N,) True where the step starts at a sampling instant
    instants: np.ndarray


def _build_grid(instants: np.ndarray, horizon: float, dt_sim: float) -> _Grid:
    """The grid through every knot: the instants, then the horizon if it lies past the last.

    Each gap [a, b] between knots splits into ceil(gap / dt_sim) substeps at
    a + h j, h = gap / nsub, with the last one set to b exactly.
    """
    knots = np.asarray(instants, dtype=float)
    if horizon > knots[-1] + 1e-15:
        knots = np.append(knots, horizon)
    a, b = knots[:-1], knots[1:]
    nsub = np.maximum(1, np.ceil((b - a) / dt_sim - 1e-9)).astype(int)
    ends = np.cumsum(nsub)   # grid index of each knot after the first
    seg = np.repeat(np.arange(len(nsub)), nsub)
    j = np.arange(1, len(seg) + 1) - np.repeat(ends - nsub, nsub)
    times = np.empty(len(seg) + 1)
    times[0] = 0.0
    np.add(a[seg], ((b - a) / nsub)[seg] * j, out=times[1:])
    times[ends] = b
    steps = np.diff(times)
    refresh = np.zeros(len(steps), dtype=bool)
    starts = np.concatenate([[0], ends])[:len(instants)]   # grid index of each instant
    refresh[starts[starts < len(steps)]] = True
    return _Grid(times=times, steps=steps, refresh=refresh, instants=np.asarray(instants))


@dataclass(frozen=True)
class EnsembleMoments:
    """The statistics of a Monte Carlo run, folded block by block as the kernel stores them."""

    times: np.ndarray           # (T,)
    sum_sq: np.ndarray          # (T,) sum of |x(t)|^2 over alive paths, added in path order
    alive_counts: np.ndarray    # (T,) alive paths
    terminal: np.ndarray        # (n_paths, n) states at times[-1]; NaN after divergence
    terminal_alive: np.ndarray  # (n_paths,) bool
    instants: np.ndarray
    seed: int
    diverged_at: np.ndarray     # (n_paths,) time of divergence, NaN if none
    steps: int                  # Euler-Maruyama steps of each path

    @property
    def n_paths(self) -> int:
        return len(self.diverged_at)

    @property
    def diverged(self) -> np.ndarray:
        return ~np.isnan(self.diverged_at)

    @property
    def n_diverged(self) -> int:
        return int(self.diverged.sum())

    def mean_sq(self) -> np.ndarray:
        """Mean of |x(t)|^2 over alive paths (NaN where no path is alive)."""
        return _mean(self.sum_sq, self.alive_counts)

    def n_alive(self) -> np.ndarray:
        return self.alive_counts


@dataclass(frozen=True)
class TrajectoryEnsemble(EnsembleMoments):
    """The statistics of a Monte Carlo run plus every stored state."""

    states: np.ndarray          # (n_paths, T, n); NaN after divergence
    alive: np.ndarray           # (n_paths, T) bool


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, the squares added in index order."""
    out = x[..., 0] ** 2
    for i in range(1, x.shape[-1]):
        out += x[..., i] ** 2
    return out


def _fold_sq(total: np.ndarray, states: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """The running per-time total (1, T) plus |x(t)|^2 of the alive rows of states.

    The sum starts from the running total as its row 0, so the additions are
    those of one axis-0 sum over every path folded so far, in path order,
    whatever the blocks or chunks.
    """
    sq = np.concatenate([total, _sq_norm(states)])
    keep = np.concatenate([np.ones(total.shape, dtype=bool), alive])
    # dead rows hold NaN; where= leaves them out, exactly as adding 0.0 would
    return np.add.reduce(sq, axis=0, keepdims=True, where=keep, initial=0.0)


def _mean(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    counts = counts.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, total / counts, np.nan)


def _resolve_x0(model: SampledModel, cfg: SimConfig) -> np.ndarray:
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
    elif model.x0 is not None:
        x0 = np.asarray(model.x0, dtype=float)
    else:
        raise DomainError("no initial state: set x0 on the model or the config")
    if x0.shape != (model.n,) or not np.all(np.isfinite(x0)):
        raise DomainError(f"x0 must hold {model.n} finite numbers")
    return x0


def _outputs(npaths: int, nstore: int, n: int):
    """Kernel output arrays: stored states, alive flags and divergence times.

    A size numpy cannot index, or one the machine cannot allocate, is a
    DomainError; the first is refused before anything is allocated.
    """
    check_grid_length(float(npaths) * nstore * n, f"{npaths} paths x {nstore} stored times")
    try:
        return (np.empty((npaths, nstore, n)), np.empty((npaths, nstore), dtype=bool),
                np.full(npaths, np.nan))
    except MemoryError as exc:
        raise DomainError(f"{npaths} paths x {nstore} stored times do not fit in memory") from exc


def _integrate_chunk(model, b_bar, grid, x0, path_indices, seed, store_idx, sink):
    """EM for a batch of paths with drift f(x) + x(t_*) B_bar^T, f the model's
    open-loop drift (model.drift_step) and x(t_*) refreshed where grid.refresh
    is set; returns the paths' divergence times (NaN where none).

    Row r is path path_indices[r].  The stored states go to a buffer of
    max(2, _WINDOW_NORMALS // rows) stored times, and each full block is
    handed on as sink(s0, states, alive): states (rows, stored times s0 ..
    s1 - 1, n) and their alive flags.  The sink must copy what it keeps, for
    the buffer is reused.  A lone last stored time joins the block before it,
    because numpy sums a one-column block pairwise rather than row by row.

    A row that dies in step i gets diverged_at = times[i + 1] and is cleared
    in alive from the first stored index >= i + 1, so alive[r, s] is
    times[store_idx[s]] < diverged_at[r] (true where that is NaN).
    """
    npaths = len(path_indices)
    m = model.m
    nsteps = len(grid.steps)
    nstore = len(store_idx)
    block = max(2, _WINDOW_NORMALS // npaths)

    def block_end(s0):
        s1 = min(s0 + block, nstore)
        return nstore if nstore - s1 == 1 else s1

    # the state and its temporaries are (paths, n) views X.T, ... of state-major arrays, so
    # each state component is one contiguous row of X; their products round as on
    # path-major rows (the kernel oracle tests check it bit for bit)
    n = len(x0)
    X, UPD, TMP, HOLD = (np.empty((n, npaths)) for _ in range(4))
    x, upd, tmp, hold = X.T, UPD.T, TMP.T, HOLD.T
    tmp_rows = list(TMP)
    x[:] = x0
    b_t = b_bar.T
    np.matmul(x, b_t, hold)   # x(t_*) B_bar^T
    drift = model.drift_step(x, upd)
    flat = X.reshape(-1)   # a view: X is C-ordered
    runs = [flat[r:r + _SCREEN_RUN] for r in range(0, flat.size, _SCREEN_RUN)]
    alive = np.ones(npaths, dtype=bool)
    any_dead = False
    diverged_at = np.full(npaths, np.nan)
    buf = np.empty((npaths, min(block + 1, nstore), n))
    stage = np.empty((buf.shape[1], n, npaths))   # buf's stored states, state-major
    alive_buf = np.ones(buf.shape[:2], dtype=bool)
    s, next_store = 0, store_idx[0]   # position and grid index of the next stored time
    s0, s1 = 0, block_end(0)          # the stored times of the current block
    gts = [g.T for g in model.diffusion]
    steps, refresh = grid.steps, grid.refresh
    sqrt_h = np.sqrt(steps)
    if m > 0:
        draw = _noise(seed, path_indices, m)
        dw = np.empty((_WINDOW, m, npaths))
    matmul, multiply, add = np.matmul, np.multiply, np.add

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps + 1):
            if i < nsteps and refresh[i]:
                matmul(x, b_t, hold)
            if i == next_store:
                stage[s - s0] = X
                s += 1
                next_store = store_idx[s] if s < nstore else -1
                if s == s1:
                    np.copyto(buf[:, :s1 - s0], stage[:s1 - s0].transpose(2, 0, 1))
                    sink(s0, buf[:, :s1 - s0], alive_buf[:, :s1 - s0])
                    s0, s1 = s, block_end(s)
                    alive_buf[:] = alive[:, None]
            if i == nsteps:
                break
            drift()
            add(UPD, HOLD, UPD)
            multiply(UPD, steps[i], UPD)
            if m > 0:
                k = i % _WINDOW
                if k == 0:
                    # sqrt(h) dW of a window of steps, time-major: step k is one (m, paths) slab
                    w = min(_WINDOW, nsteps - i)
                    draw(i, w, sqrt_h[i:i + w], dw[:w])
                for j, gt in enumerate(gts):
                    matmul(x, gt, tmp)
                    for row in tmp_rows:   # row by row: a broadcast multiply is buffered
                        multiply(row, dw[k, j], row)
                    add(UPD, TMP, UPD)
            add(X, UPD, X)
            # a sum of squares is never below its largest rounded square, so every
            # |x| < cap when each run's is below fl(cap^2); NaN and inf fail the test, and
            # a failure only runs the row-by-row check
            if any_dead or not all(r.dot(r) < _SCREEN for r in runs):
                bad = alive & ~(np.abs(x).max(axis=1) <= _DIVERGENCE_CAP)
                if bad.any():
                    any_dead = True
                    alive[bad] = False
                    diverged_at[bad] = grid.times[i + 1]
                    x[bad] = np.nan
                    alive_buf[bad, s - s0:] = False
    return diverged_at


def _grid_for(cfg: SimConfig) -> Tuple[_Grid, np.ndarray]:
    """Integration grid of a run and the grid indices it stores."""
    # dt_sim <= underline_dt / 10, so this count also bounds the sampling instants
    check_grid_length(cfg.horizon / cfg.dt_sim + 1.0, "the integration grid")
    instants = schedule_instants(
        cfg.schedule, cfg.horizon, rng=_stream(cfg.seed, _SCHEDULE_STREAM)
    )
    grid = _build_grid(instants, cfg.horizon, cfg.dt_sim)
    last = len(grid.times) - 1
    store_idx = np.arange(0, last + 1, cfg.store_stride)
    if store_idx[-1] != last:
        store_idx = np.append(store_idx, last)
    return grid, store_idx


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(model, cfg, workers, grid, store_idx, x0, sink_for):
    """Integrate the paths of cfg chunk by chunk; yield (rows, diverged_at) of
    each chunk, in path order.

    The chunk of rows hands its blocks of stored times to sink_for(rows), and
    hands on stored times s0 .. s1 - 1 only after the chunk before it has done
    so, so a sink sees each stored time's paths in path order.  A chunk that
    fails counts as done, so the ones after it go on; reading its result
    re-raises the error.  At most `workers` chunks are in flight: the next one
    is submitted only after the oldest is handed on.  The first is never
    waiting and the pool starts its tasks in order, so none waits forever.
    """
    b_bar = model.B_bar
    nstore = len(store_idx)
    # fixed chunk size: worker count must not influence batch shapes, or
    # BLAS shape dispatch could perturb low-order bits across worker counts
    starts = range(0, cfg.n_paths, _CHUNK)
    handed = [0] * len(starts)   # stored times each chunk has handed on
    turn = threading.Condition()

    def work(c):
        rows = slice(starts[c], min(starts[c] + _CHUNK, cfg.n_paths))
        sink = sink_for(rows)
        npaths = rows.stop - rows.start
        # numpy multiplies a (1, n) state by another kernel than a (k, n) one, and the
        # last bits differ: a lone path runs beside a copy of itself, which is dropped
        paths = np.arange(rows.start, rows.stop).repeat(2 if npaths == 1 else 1)

        def in_turn(s0, states, alive):
            s1 = s0 + states.shape[1]
            with turn:
                turn.wait_for(lambda: c == 0 or handed[c - 1] >= s1)
            sink(s0, states[:npaths], alive[:npaths])
            with turn:
                handed[c] = s1
                turn.notify_all()

        try:
            died = _integrate_chunk(model, b_bar, grid, x0, paths, cfg.seed, store_idx, in_turn)
            return rows, died[:npaths]
        finally:
            with turn:
                handed[c] = nstore
                turn.notify_all()

    # results do not depend on the worker count, so the pool needs no more
    # threads than there are chunks or CPUs this process may run on
    workers = min(workers, len(starts), _usable_cpus())
    if workers == 1:
        for c in range(len(starts)):
            yield work(c)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for c in range(len(starts)):
            if len(pending) == workers:
                yield pending.popleft().result()  # re-raises a worker's exception
            pending.append(pool.submit(work, c))
        while pending:
            yield pending.popleft().result()


def _ensemble(model: SampledModel, cfg: SimConfig, workers: int, keep: bool):
    """Integrate the paths of cfg and fold each block of stored times into the
    per-time sums as soon as a chunk hands it on, in path order.

    With keep, every block is also copied into full (paths x stored times)
    arrays and a TrajectoryEnsemble is returned; otherwise only the terminal
    stored time is kept and the result is an EnsembleMoments.
    """
    if model.B_bar is None:
        raise ValidationError("model gain is unresolved; synthesize or supply K_hat first")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    grid, store_idx = _grid_for(cfg)
    x0 = _resolve_x0(model, cfg)
    nstore = len(store_idx)
    states, alive, diverged_at = _outputs(cfg.n_paths, nstore if keep else 1, model.n)
    total = np.zeros((1, nstore))
    counts = np.zeros(nstore, dtype=int)

    def fold_into(rows):
        def sink(s0, block, alive_block):
            s1 = s0 + block.shape[1]
            total[:, s0:s1] = _fold_sq(total[:, s0:s1], block, alive_block)
            counts[s0:s1] += alive_block.sum(axis=0)
            if keep:
                states[rows, s0:s1] = block
                alive[rows, s0:s1] = alive_block
            elif s1 == nstore:
                states[rows] = block[:, -1:]
                alive[rows] = alive_block[:, -1:]
        return sink

    for rows, died in _chunks(model, cfg, workers, grid, store_idx, x0, fold_into):
        diverged_at[rows] = died
    moments = dict(times=grid.times[store_idx], sum_sq=total[0], alive_counts=counts,
                   terminal=states[:, -1], terminal_alive=alive[:, -1], instants=grid.instants,
                   seed=cfg.seed, diverged_at=diverged_at, steps=len(grid.steps))
    return TrajectoryEnsemble(**moments, states=states, alive=alive) if keep else EnsembleMoments(**moments)


def run_ensemble(model: SampledModel, cfg: SimConfig, workers: int = 1) -> TrajectoryEnsemble:
    """Simulate n_paths sampled-data trajectories with independent noise streams.

    The result is bit-identical for any worker count: chunking only changes
    which thread fills which rows.  It holds every stored state, so its
    memory is O(paths x stored times x n); its statistics are those of
    ensemble_moments, from the same fold.
    """
    return _ensemble(model, cfg, workers, keep=True)


def ensemble_moments(model: SampledModel, cfg: SimConfig, workers: int = 1) -> EnsembleMoments:
    """The statistics of run_ensemble(model, cfg, workers), bit for bit, without its states.

    Each block of stored times is folded and then dropped: memory is
    O(workers x _WINDOW_NORMALS x n + paths x n + stored times) for any horizon.
    """
    return _ensemble(model, cfg, workers, keep=False)


# ---------------------------------------------------------------------------
# decay estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayEstimate:
    """Least-squares fit of ln E|x(t)|^2 against t on a window."""

    rate: float
    intercept: float
    r_squared: float
    window: Tuple[float, float]
    n_points: int


def estimate_ms_decay(ens: EnsembleMoments, window: Optional[Tuple[float, float]] = None) -> DecayEstimate:
    """Fit the mean-square decay rate on a time window (default [0.2 T, T]).

    Requires at least 10 stored grid points in the window and strictly
    positive empirical means everywhere on it.
    """
    t = ens.times
    horizon = float(t[-1])
    if window is None:
        window = (0.2 * horizon, horizon)
    w0, w1 = window
    if not (0.0 <= w0 < w1 <= horizon * (1 + 1e-12)):
        raise DomainError(f"window {window} must sit inside [0, {horizon}]")
    sel = (t >= w0) & (t <= w1)
    if int(sel.sum()) < 10:
        raise DegenerateEnsemble(f"only {int(sel.sum())} grid points in window; need >= 10")
    means = ens.mean_sq()[sel]
    if not np.all(np.isfinite(means)) or np.any(means <= 0.0):
        raise DegenerateEnsemble("ensemble means are zero, negative, or undefined on the window")
    tt = t[sel]
    ln = np.log(means)
    slope, intercept = np.polyfit(tt, ln, 1)
    resid = ln - (slope * tt + intercept)
    ss_res = float(resid @ resid)
    centered = ln - ln.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return DecayEstimate(
        rate=float(slope), intercept=float(intercept), r_squared=float(r2),
        window=(float(w0), float(w1)), n_points=int(sel.sum()),
    )


@dataclass(frozen=True)
class ExponentSummary:
    """Per-path (1/t) ln |x(t)| at the last stored time, with median/max summaries.

    Paths at exactly zero carry -inf; they are excluded from the median and
    counted in n_zero.  Diverged paths are excluded and counted separately.
    """

    values: np.ndarray
    t_used: float
    median: float
    max: float
    n_zero: int
    n_diverged: int


def estimate_as_exponent(ens: EnsembleMoments) -> ExponentSummary:
    """Per-path (1/T) ln |x(T)| at the last stored time T."""
    t_used = float(ens.times[-1])
    if not t_used > 0:
        raise DomainError("the last stored time must be positive")
    alive = ens.terminal_alive
    norms = np.linalg.norm(np.nan_to_num(ens.terminal), axis=1)
    with np.errstate(divide="ignore"):
        vals = np.where(alive, np.log(np.where(norms > 0, norms, 1.0)) / t_used, np.nan)
        vals = np.where(alive & (norms == 0.0), -np.inf, vals)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise DegenerateEnsemble("no path with a finite exponent")
    considered = vals[alive]
    return ExponentSummary(
        values=vals,
        t_used=t_used,
        median=float(np.median(finite)),
        max=float(np.max(considered)),
        n_zero=int(np.sum(alive & (norms == 0.0))),
        n_diverged=int((~alive).sum()),
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_trajectories_csv(ens: TrajectoryEnsemble, path) -> None:
    """Write per-path trajectories: header t,path,x1..xn."""
    n = ens.states.shape[2]
    header = "t,path," + ",".join(f"x{i + 1}" for i in range(n))
    times = [repr(t) for t in ens.times.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for p in range(ens.n_paths):
            fh.write("".join(f"{t},{p},{','.join(map(repr, row))}\n"
                             for t, row in zip(times, ens.states[p].tolist())))


def export_ensemble_stats_csv(ens: EnsembleMoments, path) -> None:
    """Write ensemble statistics: header t,mean_sq_norm,n_alive."""
    means = ens.mean_sq()
    alive = ens.n_alive()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mean_sq_norm,n_alive\n")
        for i, t in enumerate(ens.times):
            fh.write(f"{float(t)!r},{float(means[i])!r},{int(alive[i])}\n")
