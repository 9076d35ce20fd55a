"""Reads that cost only what their result needs, each against the read it
replaces, bitwise: <O_a> on its allowed block (_expectation_spectrum), one
<O_a> build per scored forward run, the band analysis on the columns of its
live bands (component_spectra), and a source lattice built without keeping
the forward run's mapped nodes.  Each runs on the benchmark's 64-point
Morse/HCl grid and on a 64-point Toda grid, with the benchmark's form of the
harmonic-generation problem: forbidden states above L = 5, a hat-sech
penalty filter at omega_10 and a Gaussian target filter at 2 omega_10."""

import functools

import numpy as np
import pytest

from specdrive import dynamics, optimizers
from specdrive.analysis import component_spectra, hermitian_components
from specdrive.dynamics import (
    HGSource, PropagatorConfig, _block_expectation, _expectation_spectrum,
    hg_source_signal, propagate_backward, propagate_forward,
)
from specdrive.functionals import FunctionalConfig, prepare_context
from specdrive.optimizers import OptimizerConfig, Problem, optimize_relaxation
from specdrive.spectral import (
    FilterSpec, RealSignal, TimeGrid, chebyshev_rule, dct1, make_filter,
)
from specdrive.system import (
    StateRestriction, build_grid_system, choose_x_domain, diagonalize,
    hcl_dipole, morse_potential, projectors, toda_dipole, toda_potential,
)

RULE = chebyshev_rule(9)
N_GRID, L = 64, 5
# potential, mass, dipole, v_cap, T over 1,024 grid intervals, penalty
# filter steepness and guess amplitude.  The Toda grid's T and steepness
# are the HCl ones scaled by their omega_10, and its guess is strong enough
# that the costate bisects on 64 steps, as the HCl one does.
GRIDS = {
    "hcl": (morse_potential(0.171, 0.975), 1785.0, hcl_dipole,
            (1.0 - 1e-6) * 0.171, 2000.0, 4.0e9, 0.01),
    "toda": (toda_potential, 1.0, toda_dipole, None, 28.0, 150.0, 0.05),
}


@functools.lru_cache(maxsize=None)
def hg_problem(name, n_t=1025):
    """The restricted HG problem on the grid, over n_t - 1 grid intervals
    of the same length; psi0 is the ground state, the guess a line at
    omega_10 and a weak one just above it, shaped by the penalty filter."""
    potential, mass, dipole, v_cap, t_full, steep, amp = GRIDS[name]
    xl, xr = choose_x_domain(potential, mass, N_GRID, v_cap=v_cap)
    system = build_grid_system(xl, xr, N_GRID, mass, potential, dipole)
    energies, vecs, _ = system.eigen()
    w10 = float(energies[1] - energies[0])
    grid = TimeGrid(t_full * (n_t - 1) / 1024, n_t)
    fgrid = grid.frequency_grid()
    functional = FunctionalConfig(
        "frequency", "spectral",
        f_eps=FilterSpec.hat_sech(w10, steep, amplitude=1e3),
        f_o=FilterSpec.gaussian(2.0 * w10, 1.0 / (3.0 * fgrid.dw) ** 2),
        restriction=StateRestriction(L, np.ones(N_GRID - L - 1)))
    f_eps = make_filter(functional.f_eps, fgrid).values
    t = grid.nodes
    g = amp * (np.cos(w10 * t + 0.3) + 0.1 * np.cos(1.02 * w10 * t + 1.1))
    return Problem(system, grid, functional, vecs[:, 0],
                   dct1(RealSignal(grid, g)).values * f_eps / f_eps.max())


def level_run(name, steps, n_t=1025):
    """The guess's forward run on steps steps, in the eigen representation
    as the optimizers run it, with the problem, its level system and the
    context."""
    problem = hg_problem(name, n_t)
    level, vecs = problem.system.eigen_system()
    ctx = prepare_context(level, problem.grid, problem.functional)
    traj = propagate_forward(level, problem.guess,
                             vecs.conj().T @ problem.psi0,
                             PropagatorConfig(steps, RULE, 1e-6))
    assert traj._basis is None
    return problem, level, ctx, traj


@pytest.mark.parametrize("steps", [1024, 64], ids=["r1", "r16"])
@pytest.mark.parametrize("name", GRIDS)
def test_expectation_spectrum_reads_the_allowed_block(name, steps):
    """<O_a> read on the 6 columns of its allowed block against dct1 of the
    full-width expectation, and kept per map: the source's signal reads the
    same spectrum."""
    problem, _, ctx, traj = level_run(name, steps)
    o_a = ctx.o_a_map
    assert o_a._support == slice(0, L + 1)
    full = dct1(RealSignal(problem.grid,
                           _block_expectation(traj.grid_states(), o_a)))
    spec = _expectation_spectrum(traj, o_a)
    assert np.array_equal(spec.values, full.values)
    assert _expectation_spectrum(traj, o_a) is spec
    assert np.array_equal(hg_source_signal(traj, o_a, ctx.f_o).values,
                          ctx.f_o.values * full.values)


@pytest.mark.parametrize("steps", [1024, 64], ids=["r1", "r16"])
@pytest.mark.parametrize("name", GRIDS)
def test_band_spectra_read_the_columns_of_their_live_bands(name, steps):
    """component_spectra on the trajectory in its own basis, as optimize
    hands it back and the benchmark analyses it, and on the eigen run
    without a basis, against dct1 of the full-width band expectations."""
    problem, _, ctx, traj = level_run(name, steps)
    basis = diagonalize(problem.system)
    p_a, _ = projectors(basis, problem.functional.restriction)
    o_a = p_a @ np.diag(problem.system.target) @ p_a
    framed = traj.in_basis(basis.states)
    for run, comps, b in (
            (framed, hermitian_components(0.5 * (o_a + o_a.conj().T), basis),
             basis),
            (traj, hermitian_components(ctx.o_a), None)):
        assert comps._columns() == slice(0, L + 1)
        spectra = component_spectra(run, comps, basis=b)
        series = comps.expectations(run.grid_states(
            None if b is None else b.states))
        for n, spectrum in enumerate(spectra):
            want = dct1(RealSignal(problem.grid, series[:, n])).values
            if n > L:
                assert not want.any()
            assert np.array_equal(spectrum.values, want)


@pytest.mark.parametrize("name", GRIDS)
def test_one_expectation_build_per_scored_forward_run(name, monkeypatch):
    """One relaxation iteration on the grid problem (the guess and the
    trials it scores): <O_a> is built once on every forward run that is
    scored, its costate's source included, and on no run twice."""
    built, scored = [], []  # kept, so that no run's id is reused
    build, evaluate = dynamics._grid_expectation, optimizers.evaluate

    def counted_build(traj, op):
        built.append(traj)
        return build(traj, op)

    def counted_score(ctx, traj, field, *args, **kwargs):
        scored.append(traj)
        return evaluate(ctx, traj, field, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_grid_expectation", counted_build)
    monkeypatch.setattr(optimizers, "evaluate", counted_score)
    trace = optimize_relaxation(hg_problem(name),
                                OptimizerConfig(budget=1, k_init=0.25))
    assert len(trace.rows) == 2
    assert len(scored) >= 2
    assert len({id(t) for t in built}) == len(built)
    assert all(any(t is b for b in built) for t in scored)


@pytest.mark.parametrize("name", GRIDS)
def test_public_backward_run_keeps_no_mapped_forward_nodes(name):
    """A backward run of the grid system with the source -P_f psi read
    off a public forward run, which carries its eigenbasis: the source
    lattice is built from the mapped nodes without keeping them on the
    forward run, and equals the source at its node_states bitwise."""
    problem = hg_problem(name)
    system = problem.system
    config = PropagatorConfig(128, RULE, 1e-6)
    forward = propagate_forward(system, problem.guess, problem.psi0, config)
    upper = system.eigen()[1][:, L + 1:]
    source = HGSource(forward, None, None, upper @ upper.conj().T)
    propagate_backward(system, problem.guess, source,
                       np.zeros(N_GRID, dtype=complex), config)
    assert forward._basis is not None
    assert "node_states" not in vars(forward)
    nodes = forward.node_states
    want = source._values(nodes.reshape(-1, N_GRID), slice(None),
                          forward.s_nodes).reshape(nodes.shape)
    assert np.array_equal(source.node_values(), want)
