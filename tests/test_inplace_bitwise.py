"""The in-place sample path and gradient pairing against the allocating
forms they replaced, and the memory they were written to save.

Each reference below is the expression the package used before it worked
in place.  The sample path runs the same IEEE operations in the same order
(at most an addition or a multiplication swaps its operands, which is
exact), so it must agree bit for bit, not just to a tolerance.  The
pairing takes the same rfft of the history's rows but adds in another
order (`vecdot`), so it agrees to the roundoff of the terms it adds.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assembly_bound, march_setup, random_density,
                      small_problems)
from levyfit import forward
from levyfit.adjoint import solve_adjoint
from levyfit.forward import solve_forward
from levyfit.optimizer import (CalibrationSetup, OptimizerParams, calibrate,
                               gradient_from_histories)
from levyfit.samples import SampleSet, snap_index
from levyfit.simulate import (SimulationSpec, sample_bigamma,
                              sample_compound_poisson)
from levyfit.torus import (ModelCoefficients, TimeGrid, TorusGrid, make_basis,
                           project_to_torus, tiling_centers, von_mises_density)


def allocating_project(y, grid):
    k = grid.length
    r = np.mod(np.asarray(y, dtype=float) - grid.lower, k)
    r = np.where(r >= k, r - k, r)
    out = grid.lower + r
    out = np.where(out >= grid.upper, grid.lower, out)
    return float(out) if np.isscalar(y) else out


def allocating_snap(values, grid):
    u = (np.asarray(values, dtype=float) - grid.lower) / grid.h
    return (np.ceil(u - 0.5).astype(int)) % grid.n


def allocating_start(spec, grid, rng):
    center = allocating_project(spec.init_center, grid)
    if spec.init_concentration is None:
        return center
    draw = rng.vonmises(0.0, spec.init_concentration, size=spec.n_samples)
    return center + draw * (grid.length / (2.0 * math.pi))


def allocating_compound_poisson(spec, basis, grid):
    """The real-line terminal values, drawn as a new array per operation."""
    rates = np.asarray(spec.rates, dtype=float)
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_samples, spec.t_final
    mean = basis.delta * rates.sum() * t
    jump_sum = np.zeros(n)
    if mean > 0:
        counts = rng.poisson(mean, size=n)
        total = int(counts.sum())
        if total > 0:
            component = rng.choice(basis.n_theta, size=total,
                                   p=rates / rates.sum())
            sizes = (basis.centers[component] + basis.delta
                     * (rng.random(total) + rng.random(total) - 1.0))
            owner = np.repeat(np.arange(n), counts)
            jump_sum = np.bincount(owner, weights=sizes, minlength=n)
    gauss = spec.drift * t + math.sqrt(spec.sigma2 * t) * rng.standard_normal(n)
    return jump_sum + gauss + allocating_start(spec, grid, rng)


def allocating_bigamma(spec, grid):
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_samples, spec.t_final
    shape = spec.gamma_shape * t
    scale = 1.0 / spec.gamma_rate
    up = rng.gamma(shape, scale, size=n)
    down = rng.gamma(shape, scale, size=n)
    gauss = spec.drift * t + math.sqrt(spec.sigma2 * t) * rng.standard_normal(n)
    return up - down + gauss + allocating_start(spec, grid, rng)


def allocating_gradient(fwd, adj, basis):
    dt = fwd.time_grid.dt
    tau = dt / fwd.bootstrap.shape[0]
    levels = np.fft.rfft(fwd.values[1:-1], axis=1)
    substeps = np.fft.rfft(fwd.bootstrap, axis=1)
    modes = (2.0 * dt * (np.conj(levels) * adj.levels).sum(axis=0)
             + tau * (np.conj(substeps) * adj.bootstrap).sum(axis=0))
    lags = np.fft.irfft(modes, n=fwd.grid.n)
    return fwd.grid.h * (basis.samples @ (lags - lags[0]))


def same_bits(a, b):
    """Same type, and for arrays the same dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (np.ndarray, np.generic)):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return np.float64(a).tobytes() == np.float64(b).tobytes()


EDGES = st.one_of(
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 100.0)).map(
        lambda edge: (edge[0], edge[0] + edge[1])),
    st.sampled_from([(-math.pi, math.pi), (0.0, 2 * math.pi), (-0.0, 1.0),
                     (-64.0, 64.0), (-1e290, 1e290), (-1e290, 0.0),
                     (0.0, 1e290)]))


@st.composite
def torus_inputs(draw):
    """A grid (edges up to the 1e290 limit) and values that hold both
    edges, their float neighbours, +-0, +-1e290, a node and a half-tie,
    then random finite floats of every magnitude and of the grid's scale."""
    lower, upper = draw(EDGES)
    grid = TorusGrid(lower, upper, draw(st.integers(4, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node = rng.integers(grid.n)
    special = [lower, upper, 0.0, -0.0, 1e290, -1e290,
               grid.lower + node * grid.h, grid.lower + (node + 0.5) * grid.h]
    special += [np.nextafter(e, d) for e in (lower, upper)
                for d in (-math.inf, math.inf)]
    bits = rng.integers(0, 2**64, size=16, dtype=np.uint64).view(float)
    local = lower + grid.length * rng.uniform(-3.0, 4.0, size=16)
    values = np.concatenate([special, bits[np.isfinite(bits)], local])
    return grid, rng.permutation(values)


def input_forms(values):
    """The forms callers pass: 1-d and 2-d arrays, a list, a 0-d array, a
    Python float and a numpy scalar."""
    yield values
    yield values[: values.size // 2 * 2].reshape(2, -1)
    yield values.tolist()
    for x in values[:3]:
        yield np.array(x)
        yield float(x)
        yield np.float64(x)


def unchanged_call(fn, y, *args):
    before = np.array(y, dtype=float).tobytes()
    out = fn(y, *args)
    assert np.array(y, dtype=float).tobytes() == before
    if isinstance(y, np.ndarray):
        assert not np.shares_memory(out, y)
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=torus_inputs())
def test_projection_equals_allocating_projection(case):
    grid, values = case
    for y in input_forms(values):
        assert same_bits(unchanged_call(project_to_torus, y, grid.lower,
                                        grid.upper),
                         allocating_project(y, grid))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=torus_inputs())
def test_snap_equals_allocating_snap(case):
    # snapping takes values already on the torus
    grid, values = case
    for y in input_forms(allocating_project(values, grid)):
        assert same_bits(unchanged_call(snap_index, y, grid),
                         allocating_snap(y, grid))


@st.composite
def sampler_cases(draw):
    """A grid and the settings every simulation kind shares, with a start
    spread that `with_and_without_spread` also takes away."""
    lower = draw(st.floats(-10.0, 10.0))
    grid = TorusGrid(lower, lower + draw(st.floats(0.5, 50.0)),
                     draw(st.integers(16, 128)))
    return grid, dict(
        drift=draw(st.floats(-3.0, 3.0)),
        sigma2=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        t_final=draw(st.floats(0.01, 3.0)),
        n_samples=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**32 - 1)),
        init_center=draw(st.floats(-20.0, 20.0)),
        init_concentration=draw(st.floats(0.5, 500.0)))


def with_and_without_spread(kind, settings, **model):
    """The spec of `settings`, then the same spec started at one point."""
    spec = SimulationSpec(kind=kind, **settings, **model)
    return spec, dataclasses.replace(spec, init_concentration=None)


def assert_same_samples(got: SampleSet, terminal, grid):
    want = SampleSet.from_values(allocating_project(terminal, grid), grid)
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.cell_counts, want.cell_counts)


NO_JUMPS = (TorusGrid(-math.pi, math.pi, 64),
            dict(drift=0.1, sigma2=0.0, t_final=1.0, n_samples=50, seed=3,
                 init_center=0.5, init_concentration=20.0))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=sampler_cases(),
       rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
                      min_size=2, max_size=5))
@example(case=NO_JUMPS, rates=[0.0, 0.0])
def test_compound_poisson_equals_allocating_sampler(case, rates):
    grid, shared = case
    basis = make_basis(tiling_centers(len(rates), grid), grid)
    for spec in with_and_without_spread("compound_poisson", shared,
                                        rates=tuple(rates)):
        assert_same_samples(sample_compound_poisson(spec, basis, grid),
                            allocating_compound_poisson(spec, basis, grid),
                            grid)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=sampler_cases(), shape=st.floats(0.05, 5.0),
       rate=st.floats(0.1, 10.0))
def test_bigamma_equals_allocating_sampler(case, shape, rate):
    grid, shared = case
    for spec in with_and_without_spread("bigamma", shared, gamma_shape=shape,
                                        gamma_rate=rate):
        assert_same_samples(sample_bigamma(spec, grid),
                            allocating_bigamma(spec, grid), grid)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(problem=small_problems())
def test_gradient_equals_allocating_pairing(problem):
    """The rows' spectra paired by `vecdot`, against their products summed
    in row order: equal to the roundoff of the terms they add."""
    cc, basis, rates, tg, boot, rng = problem
    fwd = solve_forward(
        march_setup(problem, random_density(rng, cc.grid), force=True), rates)
    adj = solve_adjoint(rng.normal(size=cc.grid.n), rates, basis, cc, tg,
                        boot_substeps=boot)
    # eps per term of the longest sum: the pairing's rows, then the modes
    terms = boot + tg.n_steps + cc.grid.n
    error = np.abs(gradient_from_histories(fwd, adj, basis)
                   - allocating_gradient(fwd, adj, basis))
    assert np.all(error <= terms * np.finfo(float).eps
                  * assembly_bound(fwd, adj, basis))


def traced_peak(fn, *args):
    """Peak bytes traced during fn(*args) above what was held before; a
    first untraced call fills the FFT plan caches."""
    fn(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_wrap_and_snap_hold_one_array_each():
    """project_to_torus: one float array and a mask; snap_index: one float
    and one int array."""
    n = 100_000
    grid = TorusGrid(-math.pi, math.pi, 64)
    y = np.random.default_rng(0).normal(scale=10.0, size=n)
    slack = 4096
    edges = grid.lower, grid.upper
    assert traced_peak(project_to_torus, y, *edges) <= 9 * n + slack
    x = project_to_torus(y, *edges)
    assert traced_peak(snap_index, x, grid) <= 16 * n + slack


def fit_setup(n=512, n_steps=200, boot=10):
    grid = TorusGrid(-math.pi, math.pi, n)
    return CalibrationSetup(grid=grid, time_grid=TimeGrid(0.2, n_steps),
                            coeffs=ModelCoefficients(0.0, 0.05),
                            basis=make_basis(tiling_centers(3, grid), grid),
                            f0=von_mises_density(grid, 0.0, 20.0),
                            boot_substeps=boot)


def block_bytes(setup):
    """One block of the march: the spectra and real rows of its levels,
    within `_BLOCK_BYTES`, and the spectra of the two levels it carries."""
    return forward._BLOCK_BYTES + 2 * (setup.grid.n // 2 + 1) * 16


def fit_peak(setup):
    draws = np.random.default_rng(0).vonmises(0.0, 5.0, size=2000)
    samples = SampleSet.from_values(draws, setup.grid)
    return traced_peak(calibrate, setup, samples, OptimizerParams(max_iters=3))


def test_fit_holds_one_diagnostics_history():
    """Trials and gradients keep no history, and the one march at
    alpha_star folds its levels into the diagnostics a block at a time,
    so calibrate peaks at one block plus 16 vectors of modes: no history."""
    setup = fit_setup()
    modes = setup.grid.n // 2 + 1
    assert fit_peak(setup) <= block_bytes(setup) + 16 * modes * 16


def test_a_fit_pays_no_memory_for_its_steps():
    """Ten times the steps cost calibrate no more than one block and a few
    vectors of modes: N_T costs time, not memory."""
    short, long = fit_setup(n_steps=200), fit_setup(n_steps=2000)
    modes = short.grid.n // 2 + 1
    assert fit_peak(long) <= (fit_peak(short) + block_bytes(short)
                              + 8 * modes * 16)


def test_forward_holds_its_history_and_one_block():
    """solve_forward holds the levels and substeps it returns, and of the
    march no more than one block."""
    setup = fit_setup(n_steps=2000)
    n, levels = setup.grid.n, setup.time_grid.n_steps + 1
    history = (levels + setup.boot_substeps) * n * 8
    rates = np.array([1.0, 0.5, 0.2])
    assert (traced_peak(solve_forward, setup, rates)
            <= history + block_bytes(setup))
