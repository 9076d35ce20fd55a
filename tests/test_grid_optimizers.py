"""Optimizers on a Morse/HCl Fourier grid, and the eigen representation of
H0 they run in: a 32-point grid with forbidden states above L = 3, a
hat-sech penalty filter at omega_10 and a Gaussian target filter at
2 omega_10, the harmonic-generation problem at a reduced size."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from specdrive.spectral import (
    FilterSpec, RealSignal, TimeGrid, dct1, make_filter,
)
from specdrive.system import (
    StateRestriction, build_grid_system, build_level_system, choose_x_domain,
    hcl_dipole, morse_potential,
)
from specdrive.dynamics import propagate_forward
from specdrive.functionals import FunctionalConfig, prepare_context
from specdrive.optimizers import (
    BUDGET_EXHAUSTED, OptimizerConfig, Problem, optimize_quasi_newton,
    optimize_relaxation,
)

N_GRID, L = 32, 3
HCL_MASS = 1785.0
T, N_T = 1000.0, 513


@functools.lru_cache(maxsize=None)
def hcl_problem():
    """The restricted spectral problem on the grid; psi0 is the ground
    state, the guess a weak line at omega_10 shaped by the penalty filter."""
    mp = morse_potential(0.171, 0.975)
    xl, xr = choose_x_domain(mp, HCL_MASS, N_GRID, v_cap=(1.0 - 1e-6) * 0.171)
    system = build_grid_system(xl, xr, N_GRID, HCL_MASS, mp, hcl_dipole)
    energies, vecs, _ = system.eigen()
    w10 = float(energies[1] - energies[0])
    grid = TimeGrid(T, N_T)
    fgrid = grid.frequency_grid()
    functional = FunctionalConfig(
        "frequency", "spectral",
        f_eps=FilterSpec.hat_sech(w10, 4.0e9, amplitude=1e3),
        f_o=FilterSpec.gaussian(2.0 * w10, 1.0 / (3.0 * fgrid.dw) ** 2),
        restriction=StateRestriction(L, np.ones(N_GRID - L - 1)),
    )
    f_eps = make_filter(functional.f_eps, fgrid).values
    line = dct1(RealSignal(grid, 0.01 * np.cos(w10 * grid.nodes))).values
    return Problem(system, grid, functional, vecs[:, 0],
                   line * f_eps / f_eps.max())


def eigen_level_problem(problem, functional=None):
    """The same problem on a LevelSystem built from (E, V^dagger mu V,
    V^dagger O V), started from V^dagger psi0."""
    system = problem.system
    energies, vecs, coupling = system.eigen()
    o_eigen = vecs.conj().T @ (system.target[:, None] * vecs)
    level = build_level_system(energies, coupling, o_eigen)
    return Problem(level, problem.grid, functional or problem.functional,
                   vecs.conj().T @ problem.psi0, problem.guess)


@pytest.mark.parametrize("run", [
    lambda p: optimize_relaxation(p, OptimizerConfig(budget=2, k_init=0.25)),
    # steepest ascent cannot step under a hat-sech penalty (its tail bins
    # carry alpha near 1e300), so the analytic gradient is exercised through
    # the quasi-Newton direction, which the penalty Hessian scales
    lambda p: optimize_quasi_newton(p, OptimizerConfig(
        method="quasi-newton", budget=2, ls_refine=2, k_init=0.25)),
], ids=["relaxation", "quasi-newton"])
def test_grid_run_is_monotone_restricted_and_deterministic(run):
    problem = hcl_problem()
    trace = run(problem)
    assert trace.status == BUDGET_EXHAUSTED
    assert len(trace.rows) == 3
    assert trace.j_monotone
    assert trace.js()[-1] > trace.js()[0]
    assert all(row.breakdown.j_forb < 0.0 for row in trace.rows)
    again = run(problem)
    assert np.array_equal(trace.js(), again.js())
    assert np.array_equal(trace.field.spectrum().values,
                          again.field.spectrum().values)
    assert np.array_equal(trace.trajectory.final_state,
                          again.trajectory.final_state)


def test_grid_trajectory_comes_back_in_the_grid_basis():
    problem = hcl_problem()
    config = OptimizerConfig(budget=1, k_init=0.25)
    trace = optimize_relaxation(problem, config)
    traj = trace.trajectory
    assert traj.boundary_states.shape == (N_T, N_GRID)
    assert np.abs(traj.initial_state - problem.psi0).max() <= 1e-14
    ref = propagate_forward(problem.system, trace.field, problem.psi0,
                            problem.propagator_for(config))
    assert np.linalg.norm(traj.final_state - ref.final_state) <= 1e-10
    k = 100
    assert np.abs(traj.step_nodes(k) - ref.step_nodes(k)).max() <= 1e-10


def test_eigen_representation_has_diagonal_projectors():
    problem = hcl_problem()
    level, vecs = problem.system.eigen_system()
    assert problem.system.eigen_system()[0] is level
    assert level.eigen()[1] is None
    ctx = prepare_context(level, problem.grid, problem.functional)
    gamma = problem.functional.restriction.gamma
    assert ctx.p_f.shape == (N_GRID,)
    assert np.array_equal(ctx.p_f, np.concatenate([np.zeros(L + 1), gamma]))
    o_a = np.asarray(ctx.o_a)
    assert np.all(o_a[L + 1:, :] == 0.0) and np.all(o_a[:, L + 1:] == 0.0)
    o_eigen = vecs.conj().T @ (problem.system.target[:, None] * vecs)
    block = o_eigen[:L + 1, :L + 1]
    assert np.abs(o_a[:L + 1, :L + 1] - block).max() <= 1e-14


def test_grid_run_matches_its_eigen_level_system():
    problem = hcl_problem()
    config = OptimizerConfig(budget=1, k_init=0.25)
    grid_trace = optimize_relaxation(problem, config)
    level_trace = optimize_relaxation(eigen_level_problem(problem), config)
    assert grid_trace.propagations == level_trace.propagations
    assert [row.k for row in grid_trace.rows] == [
        row.k for row in level_trace.rows]
    js, js_level = grid_trace.js(), level_trace.js()
    assert len(js) == 2
    assert np.all(np.abs(js - js_level) <= 1e-12 * np.abs(js_level))
    vecs = problem.system.eigen()[1]
    assert np.linalg.norm(grid_trace.trajectory.final_state
                          - vecs @ level_trace.trajectory.final_state) <= 1e-12


def test_time_dependent_target_is_rotated_into_the_eigen_representation():
    problem = hcl_problem()
    system, grid = problem.system, problem.grid
    energies, vecs, _ = system.eigen()
    w10 = float(energies[1] - energies[0])
    x = system.x
    weight = RealSignal(grid, np.full(grid.n_t, 1.0 / grid.T))
    guess = 0.01 * np.cos(w10 * grid.nodes)

    def rotated(op):
        return vecs.conj().T @ np.diag(op) @ vecs

    cases = [(x, rotated(x)),
             (lambda t: x * np.cos(w10 * t),
              lambda t: rotated(x * np.cos(w10 * t)))]
    config = OptimizerConfig(budget=1)
    for op, op_eigen in cases:
        functional = FunctionalConfig("time", "td", alpha=10.0, weight=weight,
                                      op_of_t=op)
        grid_problem = Problem(system, grid, functional, problem.psi0, guess)
        grid_trace = optimize_relaxation(grid_problem, config)
        level_trace = optimize_relaxation(eigen_level_problem(
            grid_problem, replace(functional, op_of_t=op_eigen)), config)
        js, js_level = grid_trace.js(), level_trace.js()
        assert len(js) == len(js_level) == 2
        assert np.all(np.abs(js - js_level) <= 1e-12 * np.abs(js_level))
