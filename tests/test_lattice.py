"""Field synthesis and node transforms on the propagator's node lattice.

The propagator's node times are t = h(k + s_i), h = T/n_steps, so cosine
series over the bins omega_j = j*pi/T are evaluated and transformed there by
FFT.  These tests hold the FFT forms to the direct cosine sums:
eval_cosine_series for synthesis and an explicit weighted sum for the
transform.  A run takes m steps per grid interval, or, with m = 1/r, one
step spans r grid intervals; the long steps' grid-time readers are held to
a run of one step per interval.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.fft

from specdrive.spectral import (
    FilterSpec, TimeGrid, chebyshev_rule, make_filter, step_node_times,
)
from specdrive.system import build_level_system
from specdrive.dynamics import (
    HGSource, PropagatorConfig, StepSolver, _CosineEval,
    default_propagator_config, hg_source_signal, propagate_backward,
    propagate_forward,
)
from specdrive.functionals import ControlField, node_cosine_transform
from oracles import eval_cosine_series

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
T, N_T = 10.0, 129


def sparse_frequency_field(grid):
    # a few support bins, the shape of a filtered HG field
    bar = np.zeros(grid.n_t)
    bar[[3, 4, 5, 11]] = [0.02, -0.03, 0.015, 0.004]
    return ControlField.from_spectrum(grid, bar)


def dense_time_field(grid):
    rng = np.random.default_rng(7)
    t = grid.nodes
    vals = (0.03 * np.sin(1.3 * t) * np.sin(math.pi * t / grid.T) ** 2
            + 1e-3 * rng.standard_normal(grid.n_t))
    return ControlField.from_time(grid, vals)


def sparse_wide_field(grid):
    # a few support bins up to the last: on long steps they span many
    # periods of 2*n_steps without filling one
    bar = np.zeros(grid.n_t)
    bar[[3, 4, 5, 11, 40, 100, grid.n_t - 1]] = [
        0.02, -0.03, 0.015, 0.004, 0.01, -0.002, 0.001]
    return ControlField.from_spectrum(grid, bar)


FIELDS = {"sparse-frequency": sparse_frequency_field,
          "dense-time": dense_time_field,
          "sparse-wide": sparse_wide_field}


@pytest.mark.parametrize("kind", sorted(FIELDS))
@pytest.mark.parametrize("m", [1, 2, 1 / 2, 1 / 4, 1 / 8])
@pytest.mark.parametrize("n_c", [5, 9])
def test_propagation_node_fields_match_direct_sum(kind, m, n_c):
    grid = TimeGrid(T, N_T)
    field = FIELDS[kind](grid)
    system = build_level_system([1.0, 2.0], SX)
    rule = chebyshev_rule(n_c)
    n_steps = int((N_T - 1) * m)
    config = PropagatorConfig(steps=n_steps, rule=rule, zeta=1e-8)
    times = step_node_times(T, n_steps, rule)
    oracle = eval_cosine_series(field.spectrum(), times.ravel()).reshape(
        times.shape)
    tol = 1e-12 * np.abs(oracle).max()

    fwd = propagate_forward(system, field, [1.0, 0.0], config)
    bwd = propagate_backward(system, field, None,
                             np.array([0.0, 1.0], dtype=complex), config)
    assert np.abs(fwd.field_nodes - oracle).max() < tol
    assert np.abs(bwd.field_nodes - oracle).max() < tol


@pytest.mark.parametrize(
    "t_end, n_t, n_steps",
    [pytest.param(T, N_T, n, id=str(n)) for n in (24, 65, 128, 512)]
    + [(100.0, 2049, n) for n in (128, 256, 512, 1024, 2048)])
def test_lattice_matches_direct_sum_for_each_step_count(t_end, n_t, n_steps):
    # exact for every step count: bin j is read at j mod 2*n_steps, which
    # folds the bins when 2*n_steps < n_t (24 steps, which neither divide
    # the 128 grid intervals nor are a multiple of them).  On 2,049 bins,
    # 128 to 1,024 steps fold the support by blocks of 2*n_steps, and 2,048
    # steps read it at its own bins.  The fractions are the nodes s, the
    # backward run's 1 - s and a bisected step's pieces (s/2, 1/2 + s/2).
    grid = TimeGrid(t_end, n_t)
    spectrum = dense_time_field(grid).spectrum()
    s = 0.5 * (1.0 - chebyshev_rule(5).y)
    # the direct sum on every step, or on 2**17 // n_t of them (the first
    # and last among them) where that is fewer
    steps = np.unique(np.linspace(0, n_steps - 1,
                                  min(n_steps, 2**17 // n_t)).astype(int))
    for fractions in (s, 1.0 - s, np.concatenate([0.5 * s, 0.5 + 0.5 * s])):
        h = t_end / n_steps
        times = h * (steps[:, None] + fractions[None, :])
        oracle = eval_cosine_series(spectrum, times.ravel()).reshape(
            times.shape)
        got = _CosineEval(spectrum).on_lattice(n_steps, fractions)[steps]
        assert np.abs(got - oracle).max() < 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("r", [2, 4, 8, 16])
def test_long_step_lattice_matches_direct_sum(r):
    # steps of r grid intervals, up to the search's longest: 2*n_steps < n_t,
    # so the bins fold onto j mod 2*n_steps, each with its own phase
    grid = TimeGrid(T, N_T)
    n_steps = (N_T - 1) // r
    rule = chebyshev_rule(9)
    times = step_node_times(T, n_steps, rule)
    for kind in sorted(FIELDS):
        spectrum = FIELDS[kind](grid).spectrum()
        oracle = eval_cosine_series(spectrum, times.ravel()).reshape(
            times.shape)
        for fractions, rows in ((rule.s, oracle), (1.0 - rule.s, None)):
            got = _CosineEval(spectrum).on_lattice(n_steps, fractions)
            if rows is None:
                t = T / n_steps * (np.arange(n_steps)[:, None] + fractions)
                rows = eval_cosine_series(spectrum, t.ravel()).reshape(t.shape)
            assert np.abs(got - rows).max() < 1e-12 * np.abs(rows).max()


def direct_node_transform(node_values, traj, bins):
    omegas = traj.grid.frequency_grid().nodes[bins]
    times = step_node_times(traj.grid.T, traj.n_steps, traj.rule)
    wg = traj.dt_step * traj.rule.w * node_values
    return math.sqrt(2.0 / math.pi) * np.array(
        [np.sum(wg * np.cos(w * times)) for w in omegas])


@pytest.mark.parametrize("n_c", [5, 9])
def test_node_cosine_transform_matches_direct_sum(n_c):
    grid = TimeGrid(T, N_T)
    system = build_level_system([1.0, 2.0], SX)
    config = PropagatorConfig(steps=2 * (N_T - 1), rule=chebyshev_rule(n_c),
                              zeta=1e-8)
    traj = propagate_forward(system, None, [1.0, 0.0], config, grid=grid)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((traj.n_steps, n_c))
    scale = traj.dt_step * np.abs(g).sum()

    every = np.arange(N_T)
    full = node_cosine_transform(g, traj)
    assert full.grid == grid.frequency_grid()
    assert np.abs(full.values - direct_node_transform(g, traj, every)).max() \
        < 1e-13 * scale

    bins = np.array([0, 4, 17, 64, 128])
    part = node_cosine_transform(g, traj, bins)
    assert np.abs(part.values[bins] - direct_node_transform(g, traj, bins)).max() \
        < 1e-13 * scale
    others = np.setdiff1d(every, bins)
    assert np.all(part.values[others] == 0.0)


@pytest.mark.parametrize("r", [2, 4, 8])
def test_long_step_node_cosine_transform_matches_direct_sum(r):
    # every bin j < n_t against a lattice with 2*n_steps <= n_t - 1
    grid = TimeGrid(T, N_T)
    system = build_level_system([1.0, 2.0], SX)
    config = PropagatorConfig(steps=(N_T - 1) // r, rule=chebyshev_rule(9),
                              zeta=1e-8)
    traj = propagate_forward(system, None, [1.0, 0.0], config, grid=grid)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((traj.n_steps, 9))
    scale = traj.dt_step * np.abs(g).sum()
    every = np.arange(N_T)
    full = node_cosine_transform(g, traj)
    assert np.abs(full.values - direct_node_transform(g, traj, every)).max() \
        < 1e-13 * scale
    bins = np.unique([1, 2 * traj.n_steps - 1,
                      min(2 * traj.n_steps + 3, N_T - 1), N_T - 1])
    part = node_cosine_transform(g, traj, bins)
    assert np.abs(part.values[bins] - direct_node_transform(g, traj, bins)).max() \
        < 1e-13 * scale


def exp_phase_node_transform(node_values, traj, bins=None):
    """node_cosine_transform with its phases from a complex exp."""
    fgrid = traj.grid.frequency_grid()
    n = traj.n_steps
    g = np.asarray(node_values, dtype=float).reshape(n, traj.rule.n_c)
    spec = scipy.fft.fft((traj.dt_step * traj.rule.w) * g, n=2 * n, axis=0)
    idx = np.arange(fgrid.n_t) if bins is None else np.asarray(bins)
    phase = np.exp((-1j * math.pi / n) * np.multiply.outer(idx, traj.s_nodes))
    vals = np.einsum("ji,ji->j", phase, spec[idx % (2 * n)]).real
    vals *= math.sqrt(2.0 / math.pi)
    if bins is None:
        return vals
    out = np.zeros(fgrid.n_t)
    out[bins] = vals
    return out


@pytest.mark.parametrize("n_t, steps", [(N_T, 2 * (N_T - 1)), (N_T, 16),
                                        (2049, 512)])
def test_node_cosine_transform_phases_are_the_complex_exp_bits(n_t, steps):
    # cos - i sin gives every phase bit for bit, so the transform is the
    # complex-exp one exactly, on every bin and on a band of bins
    grid = TimeGrid(T, n_t)
    system = build_level_system([1.0, 2.0], SX)
    config = PropagatorConfig(steps=steps, rule=chebyshev_rule(9), zeta=1e-8)
    traj = propagate_forward(system, None, [1.0, 0.0], config, grid=grid)
    g = np.random.default_rng(11).standard_normal((steps, 9))
    assert np.array_equal(node_cosine_transform(g, traj).values,
                          exp_phase_node_transform(g, traj))
    bins = np.arange(0, n_t, 7)
    assert np.array_equal(node_cosine_transform(g, traj, bins).values,
                          exp_phase_node_transform(g, traj, bins))


@pytest.mark.parametrize("r", [2, 4, 8])
def test_long_step_grid_states_match_one_step_per_interval(r):
    # the grid times inside a long step come from its node polynomial
    grid = TimeGrid(T, N_T)
    field = FIELDS["sparse-frequency"](grid)
    system = build_level_system([1.0, 2.0], SX)
    rule = chebyshev_rule(9)

    def run(steps):
        config = PropagatorConfig(steps=steps, rule=rule, zeta=1e-13)
        return propagate_forward(system, field, [1.0, 0.0], config)

    one, long = run(N_T - 1), run((N_T - 1) // r)
    assert long.n_steps * r == N_T - 1
    assert long.dt_step == pytest.approx(r * grid.dt, rel=1e-15)
    states = long.grid_states()
    assert states.shape == (N_T, 2)
    assert np.array_equal(states[::r], long.boundary_states)
    assert np.abs(states - one.grid_states()).max() < 1e-9


@pytest.mark.parametrize("r, tol", [(1, 1e-14), (2, 1e-14), (4, 1e-10),
                                    (8, 1e-7)])
def test_grid_field_reads_the_node_field_at_the_grid_times(r, tol):
    # the step ends are the nodes' ends; the grid times inside a long step
    # come from the node polynomial of its field values, which nine nodes
    # hold to the series to about 4e-12 at r = 4 and 2e-9 at r = 8
    grid = TimeGrid(T, N_T)
    field = FIELDS["sparse-frequency"](grid)
    config = PropagatorConfig(steps=(N_T - 1) // r, rule=chebyshev_rule(9),
                              zeta=1e-10)
    traj = propagate_forward(build_level_system([1.0, 2.0], SX), field,
                             [1.0, 0.0], config)
    samples = traj.grid_field()
    assert samples.shape == (N_T,)
    assert np.array_equal(samples[:-1:r], traj.field_nodes[:, 0])
    assert samples[-1] == traj.field_nodes[-1, -1]
    want = eval_cosine_series(field.spectrum(), grid.nodes)
    assert np.abs(samples - want).max() < tol * np.abs(want).max()


@pytest.mark.parametrize("energies", [(30.0, 31.0), (100.0, 101.0)])
def test_long_step_grid_states_at_large_absolute_energies(energies):
    # 16 intervals per step, while psi turns |E| h = 4.8 and 16 rad per
    # step: the grid times inside a step are read in the interaction picture
    grid = TimeGrid(10.0, 1025)
    system = build_level_system(list(energies), SX)
    field = 0.2 * np.sin(math.pi * grid.nodes / 10.0) ** 2 * np.cos(grid.nodes)

    def run(steps):
        return propagate_forward(system, field, [1.0, 0.0],
                                 PropagatorConfig(steps, chebyshev_rule(9),
                                                  1e-12), grid=grid)

    long, one = run(64), run(1024)
    assert np.abs(long.grid_states() - one.grid_states()).max() < 1e-9


@pytest.mark.parametrize("omega", [30.0, 60.0, 120.0])
def test_fast_field_on_long_steps_is_bisected_by_its_estimate(omega):
    # 16 intervals per step do not resolve a field at 30 to 120 times the
    # Bohr frequency: the steps' truncation estimates exceed the stop, and
    # the bisected run lands within zeta of one step per interval (a
    # field-blind run missed it by 2.4e-7 to 5.5e-3)
    grid = TimeGrid(10.0, 1025)
    system = build_level_system([1.0, 2.0], SX)
    field = 0.2 * np.cos(omega * grid.nodes)
    config = PropagatorConfig(64, chebyshev_rule(9), 1e-6)
    long = propagate_forward(system, field, [1.0, 0.0], config, grid=grid)
    one = propagate_forward(system, field, [1.0, 0.0], PropagatorConfig(
        1024, config.rule, 1e-12), grid=grid)
    stop = config.zeta / 1024
    assert long.stats.bisections > 0 and long.stats.stalls == 0
    assert long.stats.truncation > 100.0 * stop
    assert (np.linalg.norm(long.final_state - one.final_state)
            <= config.zeta)
    # the default config's floor lattice reads the grid states within its
    # own zeta (bisected long steps of the same zeta read them 2.4e-7 to
    # 1.9e-3 off)
    default = default_propagator_config(system, grid)
    floor = propagate_forward(system, field, [1.0, 0.0], default, grid=grid)
    assert (np.abs(floor.grid_states() - one.grid_states()).max()
            <= default.zeta)


def hg_setup():
    system = build_level_system([1.0, 1.0 + 7 * math.pi / T], SX)
    grid = TimeGrid(T, 65)
    field = ControlField.from_spectrum(grid, np.r_[0.0, 0.0, 0.3,
                                                   np.zeros(62)])
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    filt = make_filter(FilterSpec.rectangular(1.5, 2.5, 2.0),
                       grid.frequency_grid())
    return system, grid, field, psi0, filt


def test_hg_source_node_rows_match_fraction_path():
    system, grid, field, psi0, filt = hg_setup()
    config = PropagatorConfig(steps=64, rule=chebyshev_rule(9), zeta=1e-10)
    traj = propagate_forward(system, field, psi0, config)
    src = HGSource(traj, hg_source_signal(traj, SX, filt), SX,
                   p_f=np.diag([0.0, 0.5]))
    for k in (0, 21, 63):
        assert np.abs(src.step_values(k)
                      - src.step_values(k, traj.s_nodes)).max() < 1e-13


def test_propagation_sums_no_cosine_series_directly():
    # bisected pieces read the field and s(t) off the node lattice, as the
    # steps' own nodes do, the only reader there is: a backward run
    # bisected by stalls and a forward run of steps too long for the field
    system, grid, field, psi0, filt = hg_setup()
    rule = chebyshev_rule(9)
    chi_T = np.array([0.2, -0.4j])

    def runs(steps, zeta, max_picard):
        config = PropagatorConfig(steps=steps, rule=rule, zeta=zeta)
        traj = propagate_forward(system, field, psi0, config)
        src = HGSource(traj, hg_source_signal(traj, SX, filt), SX,
                       p_f=np.diag([0.0, 0.5]))
        return traj, propagate_backward(
            system, field, src, chi_T,
            dataclasses.replace(config, max_picard=max_picard))

    _, bisected = runs(64, 1e-10, 5)
    tight_fwd, tight = runs(512, 1e-12, 40)
    assert bisected.stats.bisections > 0
    assert np.abs(bisected.boundary_states[::8]
                  - tight.boundary_states[::64]).max() < 1e-7
    long = propagate_forward(system, field, psi0, PropagatorConfig(
        steps=8, rule=rule, zeta=1e-10))
    assert long.stats.bisections > 0
    assert np.abs(long.final_state - tight_fwd.final_state).max() < 1e-9


def test_bisected_hg_backward_matches_tight_run(monkeypatch):
    system, grid, field, psi0, filt = hg_setup()
    rule = chebyshev_rule(9)
    chi_T = np.array([0.2, -0.4j])

    def backward(steps, zeta, max_picard):
        traj = propagate_forward(system, field, psi0, PropagatorConfig(
            steps=steps, rule=rule, zeta=zeta))
        src = HGSource(traj, hg_source_signal(traj, SX, filt), SX,
                       p_f=np.diag([0.0, 0.5]))
        return propagate_backward(system, field, src, chi_T, PropagatorConfig(
            steps=steps, rule=rule, zeta=zeta, max_picard=max_picard))

    stalls = []
    picard = StepSolver.picard

    def counting(self, *args):
        out = picard(self, *args)
        if out is None:
            stalls.append(1)
        return out

    monkeypatch.setattr(StepSolver, "picard", counting)
    bisected = backward(64, 1e-10, 5)
    assert stalls, "max_picard=5 should force bisected steps"
    stalls.clear()
    tight = backward(512, 1e-12, 40)
    assert not stalls
    assert np.abs(bisected.boundary_states[::8]
                  - tight.boundary_states[::64]).max() < 1e-7
