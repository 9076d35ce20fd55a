import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import specdrive.optimizers as optimizers_module
import specdrive.system as system_module
from specdrive.spectral import (
    FilterSpec, RealSignal, Spectrum, TimeGrid, chebyshev_rule, dct1,
    make_filter,
)
from specdrive.system import (
    StateRestriction, build_level_system, commutator_H0_O,
)
from specdrive.functionals import (
    ControlField, FunctionalBreakdown, FunctionalConfig, evaluate,
    field_from_el_time, prepare_context,
)
from specdrive.dynamics import (
    PropagatorConfig, propagate_backward, propagate_forward,
)
from specdrive.optimizers import (
    _METHODS, BUDGET_EXHAUSTED, CONVERGED, INSTABILITY, K_UNDERFLOW,
    OptimizationTrace, OptimizerConfig, Problem, TraceRow, convergence_check,
    optimize, optimize_degani, optimize_gradient, optimize_krotov,
    optimize_krotov_filtered, optimize_naive, optimize_quasi_newton,
    optimize_relaxation, _InverseCurvature,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
TARGET = np.array([[0.0, 0.0], [0.0, 1.0]])
GROUND = np.array([1.0, 0.0], dtype=complex)


def s2s_problem(n_t=65, alpha=0.1, e1=2.0, guess=1.0):
    """State-to-state transfer on a two-level system, constant guess."""
    system = build_level_system([1.0, e1], SX, target=TARGET)
    config = FunctionalConfig(formulation="time", target="final", alpha=alpha)
    return Problem(system, TimeGrid(10.0, n_t), config, GROUND, guess)


def on_default_config(p):
    """p with the default config of a single run as its propagator: one
    step per grid interval for s2s_problem() at n_t = 65."""
    return Problem(p.system, p.grid, p.functional, p.psi0, p.guess,
                   p.propagator_for(OptimizerConfig()))


def null_mu_problem(n_t=65, alpha=0.1, guess=0.0):
    # with mu = 0 the zero field satisfies the stationarity condition exactly
    system = build_level_system([1.0, 2.0], np.zeros((2, 2)), target=TARGET)
    config = FunctionalConfig(formulation="time", target="final", alpha=alpha)
    return Problem(system, TimeGrid(10.0, n_t), config, GROUND, guess)


def restricted_problem(n_t=65):
    """Three-level ladder, final target on level 1, level 2 forbidden."""
    mu = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    system = build_level_system([1.0, 2.0, 3.2], mu,
                                target=np.diag([0.0, 1.0, 0.0]))
    config = FunctionalConfig(formulation="time", target="final", alpha=0.5,
                              restriction=StateRestriction(1, [1.0]))
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    return Problem(system, TimeGrid(10.0, n_t), config, psi0, 0.5)


def hg_problem(n_t=129):
    """Reduced harmonic-generation setup: spectral target, penalty filter."""
    system = build_level_system([1.0, 4.0], SX)
    config = FunctionalConfig(
        formulation="frequency", target="spectral",
        f_eps=FilterSpec.hat_sech(1.0, 20.0, amplitude=20.0),
        f_o=FilterSpec.gaussian(3.0, 10.0),
    )
    return Problem(system, TimeGrid(10.0, n_t), config, GROUND, 1.0)


# ---------------------------------------------------------------- config


def test_config_validation():
    OptimizerConfig()  # defaults are legal
    with pytest.raises(ValueError):
        OptimizerConfig(method="newton")
    with pytest.raises(ValueError):
        OptimizerConfig(k_init=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(k_init=1.5)
    with pytest.raises(ValueError):
        OptimizerConfig(tau=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(k_floor=0.5, k_init=0.25)
    with pytest.raises(ValueError):
        OptimizerConfig(k_max=0.5)
    with pytest.raises(ValueError):
        OptimizerConfig(budget=0)


def test_problem_guess_coercion():
    p = s2s_problem(guess=2.5)
    assert np.all(p.guess.time_values() == 2.5)
    with pytest.raises(ValueError):
        s2s_problem(guess=np.ones(64))
    system = build_level_system([1.0, 2.0], SX, target=TARGET)
    config = FunctionalConfig(formulation="time", target="final", alpha=0.1)
    with pytest.raises(ValueError):
        Problem(system, TimeGrid(10.0, 65), config,
                np.array([1.0, 0.0, 0.0], complex), 1.0)


def test_problem_takes_a_signal_or_a_spectrum_as_its_control_field():
    """A RealSignal guess is the ControlField of its samples and a Spectrum
    guess that of its spectrum, bitwise, in both views."""
    grid = TimeGrid(10.0, 65)
    values = 0.3 * np.cos(1.1 * grid.nodes) + 0.05 * grid.nodes
    bar = dct1(RealSignal(grid, values)).values
    for guess, want in (
            (RealSignal(grid, values), ControlField.from_time(grid, values)),
            (Spectrum(grid.frequency_grid(), bar),
             ControlField.from_spectrum(grid, bar))):
        p = s2s_problem(guess=guess)
        assert isinstance(p.guess, ControlField)
        assert p.guess.native == want.native
        assert np.array_equal(p.guess.time_values(), want.time_values())
        assert np.array_equal(p.guess.spectrum().values,
                              want.spectrum().values)


def test_problem_rejects_non_finite_input():
    system = build_level_system([1.0, 2.0], SX, target=TARGET)
    config = FunctionalConfig(formulation="time", target="final", alpha=0.1)
    grid = TimeGrid(10.0, 65)
    with pytest.raises(ValueError, match="psi0"):
        Problem(system, grid, config, np.array([np.nan, 1.0]), 1.0)
    guess = np.ones(65)
    guess[7] = np.nan
    with pytest.raises(ValueError, match="guess"):
        Problem(system, grid, config, GROUND, guess)
    with pytest.raises(ValueError, match="guess"):
        Problem(system, grid, config, GROUND, np.inf)
    freq = FunctionalConfig(formulation="frequency", target="final",
                            f_eps=FilterSpec.explicit(np.full(65, 10.0)))
    with pytest.raises(ValueError, match="guess"):
        Problem(system, grid, freq, GROUND, guess)
    # a state that is not normalized is propagated as given
    p = Problem(system, grid, config, 2.0 * GROUND, 1.0)
    assert np.linalg.norm(p.psi0) == 2.0


def test_frequency_guess_lands_in_native_representation():
    system = build_level_system([1.0, 2.0], SX, target=TARGET)
    config = FunctionalConfig(
        formulation="frequency", target="final",
        f_eps=FilterSpec.explicit(np.full(65, 10.0)))
    p = Problem(system, TimeGrid(10.0, 65), config, GROUND, np.ones(65))
    assert p.guess.native == "frequency"


# ---------------------------------------------------------------- trace


def _row(i, j, k, props):
    br = FunctionalBreakdown(j, j, 0.0, 0.0, 0.0, 0.0)
    return TraceRow(i, br, k, props, 0.0)


def test_trace_j_at_propagations():
    rows = [_row(0, 0.1, 1.0, 1), _row(1, 0.4, 1.0, 3), _row(2, 0.6, 0.5, 7)]
    tr = OptimizationTrace("relaxation", CONVERGED, rows, None, None,
                           rows[-1].breakdown)
    assert tr.j_at_propagations(1) == 0.1
    assert tr.j_at_propagations(5) == 0.4
    assert tr.j_at_propagations(100) == 0.6
    assert tr.j_at_propagations(0) is None
    assert tr.propagations == 7
    assert tr.j_monotone


def test_convergence_check_basics():
    grid = TimeGrid(10.0, 33)
    a = np.ones(33)
    assert convergence_check(a, a, "time", 1e-12)
    assert convergence_check(np.zeros(33), np.zeros(33), "time", 1e-6)
    assert not convergence_check(np.zeros(33), a, "time", 1e-6)
    with pytest.raises(ValueError):
        convergence_check(a, a, "time", 0.0)
    from specdrive.functionals import ControlField
    f1 = ControlField.from_time(grid, a)
    f2 = ControlField.from_time(TimeGrid(10.0, 65), np.ones(65))
    with pytest.raises(ValueError):
        convergence_check(f1, f2, "time", 1e-3)


@given(
    delta=st.floats(min_value=-0.5, max_value=0.5,
                    allow_nan=False, allow_subnormal=False),
    tau=st.floats(min_value=1e-8, max_value=0.4, allow_subnormal=False),
)
@settings(max_examples=60, deadline=None)
def test_convergence_check_scaled_pair(delta, tau):
    # the change is measured against the new field, so the ratio for a
    # scaled pair is |d|/|1+d| whatever v is; stay off the knife edge
    ratio = abs(delta) / abs(1.0 + delta)
    assume(abs(ratio - tau) > 1e-9)
    v = np.linspace(1.0, 2.0, 17)
    assert convergence_check(v, (1.0 + delta) * v, "time", tau) \
        == (ratio < tau)


# ---------------------------------------------------------------- relaxation


def test_relaxation_s2s():
    tr = optimize_relaxation(on_default_config(s2s_problem()))
    assert tr.status == CONVERGED
    assert tr.breakdown.j_max > 0.9
    js = tr.js()
    assert np.all(np.diff(js) > 0)  # accepted steps strictly improve
    ks = [row.k for row in tr.rows]
    assert np.all(np.diff(ks) <= 0)
    props = [row.propagations for row in tr.rows]
    assert props[0] == 1
    # each iteration costs one backward pass plus at least one trial
    assert np.all(np.diff(props) >= 2)


def test_relaxation_s2s_on_the_searched_lattice():
    # the guess's run stops at 4 steps and is redone at 16, where the first
    # costate runs; the first trial stops at 16 and at 32 steps and runs at
    # the default config's 64, where the run stays: then one backward pass
    # and at least one trial per iteration
    tr = optimize_relaxation(s2s_problem(), OptimizerConfig(budget=3))
    assert tr.status == BUDGET_EXHAUSTED
    assert np.all(np.diff(tr.js()) > 0)
    assert [row.propagations for row in tr.rows] == [2, 8, 11, 14]
    assert tr.trajectory.n_steps == 64


def test_relaxation_beats_krotov_at_equal_propagations():
    p = s2s_problem()
    tk = optimize_krotov(p, OptimizerConfig(max_iterations=120))
    tr = optimize_relaxation(p, OptimizerConfig(max_iterations=300))
    common = min(tk.propagations, tr.propagations)
    assert tr.j_at_propagations(common) >= tk.j_at_propagations(common) - 1e-3


def test_k_underflow_reported():
    p = s2s_problem(alpha=1e-10)
    tr = optimize_relaxation(p, OptimizerConfig(k_floor=1e-3))
    assert tr.status == K_UNDERFLOW
    assert len(tr.rows) == 1  # nothing was ever accepted


# ---------------------------------------------------------------- naive


def test_naive_single_step_is_el_field():
    p = on_default_config(s2s_problem())
    ctx = prepare_context(p.system, p.grid, p.functional)
    prop = p.propagator_for(OptimizerConfig())
    traj = propagate_forward(p.system, p.guess, p.psi0, prop, grid=p.grid)
    chi_T = ctx.o_full @ traj.final_state
    chi = propagate_backward(p.system, p.guess, None, chi_T, prop,
                             grid=p.grid)
    el = field_from_el_time(p.system, traj, chi, p.functional.alpha)

    tr = optimize_naive(p, OptimizerConfig(budget=1))
    assert np.abs(tr.field.time_values() - el.time_values()).max() < 1e-13


def test_naive_step_carries_the_band_of_its_costate_lattice():
    # on the searched lattice the costate runs at 16 steps, so the EL field
    # carries bins 0..16 of the 65: omega_j h <= pi for h = T/16
    p = s2s_problem()
    tr = optimize_naive(p, OptimizerConfig(budget=1))
    assert [row.propagations for row in tr.rows] == [2, 6]
    spec = dct1(RealSignal(p.grid, tr.field.time_values())).values
    assert np.abs(spec[17:]).max() <= 1e-12 * np.abs(spec).max()
    assert np.abs(spec[:17]).min() > 0.0


def test_naive_diverges_from_constant_guess():
    tr = optimize_naive(s2s_problem(), OptimizerConfig(max_iterations=40))
    assert tr.status == BUDGET_EXHAUSTED
    assert not tr.j_monotone


def test_naive_instability_reported():
    tr = optimize_naive(s2s_problem(alpha=1e-10),
                        OptimizerConfig(max_iterations=5))
    assert tr.status == INSTABILITY


# ---------------------------------------------------------------- stationarity


def test_stationary_field_is_fixed_point_for_every_method():
    p = null_mu_problem()
    cfg = OptimizerConfig(max_iterations=3)
    runs = [
        optimize_naive(p, cfg),
        optimize_relaxation(p, cfg),
        optimize_gradient(p, cfg),
        optimize_quasi_newton(p, cfg),
        optimize_krotov(p, cfg),
        optimize_degani(p, np.full(p.grid.n_t, 0.1), cfg),
    ]
    for tr in runs:
        assert tr.status == CONVERGED, tr.method
        assert np.abs(tr.field.time_values()).max() < 1e-10, tr.method


# ---------------------------------------------------------------- restriction


@pytest.mark.parametrize("optimizer", [optimize_relaxation, optimize_gradient])
def test_final_target_with_forbidden_states(optimizer):
    p = restricted_problem()
    tr = optimizer(p, OptimizerConfig(budget=3))
    assert tr.status == BUDGET_EXHAUSTED
    assert len(tr.rows) == 4
    assert tr.j_monotone
    assert tr.js()[-1] > tr.js()[0]
    assert all(row.breakdown.j_forb < 0.0 for row in tr.rows)
    again = optimizer(restricted_problem(), OptimizerConfig(budget=3))
    assert np.array_equal(tr.js(), again.js())
    assert np.array_equal(tr.field.time_values(), again.field.time_values())


# ---------------------------------------------------------------- krotov


# Propagations that the searched lattice of s2s_problem() adds to the
# 1 + 2 (Krotov) or 1 + 3 (filtered) per iteration of a fixed one: the
# guess's run stops at 16 grid intervals per step; at 4 intervals the first
# iteration's backward sweep runs and its forward sweep stops; the guess's
# run and the backward sweep are redone at 2 intervals, where the forward
# sweep stops again; the guess's run is redone at one interval per step,
# where the run stays (see
# test_krotov_redoes_the_partner_of_an_unresolved_sweep).
S2S_REDONE = 7


def check_krotov_monotone_and_propagation_count(p, redone):
    tr = optimize_krotov(p, OptimizerConfig(max_iterations=120))
    assert tr.status == CONVERGED
    assert tr.j_monotone
    n_iter = len(tr.rows) - 1
    assert tr.propagations == 1 + 2 * n_iter + redone
    assert tr.breakdown.j > tr.rows[0].breakdown.j


def test_krotov_monotone_and_propagation_count():
    # the default path: the run searches its lattice
    check_krotov_monotone_and_propagation_count(s2s_problem(), S2S_REDONE)


def test_krotov_monotone_and_propagation_count_on_a_fixed_lattice():
    p = s2s_problem()
    p = replace(p, propagator=p.propagator_for(OptimizerConfig()))
    check_krotov_monotone_and_propagation_count(p, 0)


def test_krotov_redoes_the_partner_of_an_unresolved_sweep():
    # without a propagator the run starts at 16 grid intervals per step.
    # The guess's run moves to 4; the first forward sweep is unresolved
    # there and moves to 2, and there again to one interval per step, so
    # its partner, the backward sweep, is redone at each, from the guess's
    # forward run
    p = s2s_problem()
    fixed = optimize_krotov(
        replace(p, propagator=p.propagator_for(OptimizerConfig())),
        OptimizerConfig(budget=2))
    tr = optimize_krotov(p, OptimizerConfig(budget=2))
    assert tr.trajectory.n_steps == fixed.trajectory.n_steps == 64
    assert tr.propagations == fixed.propagations + 7
    assert tr.j_monotone
    assert np.abs(tr.js() - fixed.js()).max() <= 1e-6


def relative_gap(a, b):
    """The largest relative difference of two traces' J rows."""
    return float(np.max(np.abs(a.js() - b.js()) / np.abs(b.js())))


def test_krotov_chord_sweep_matches_plain_iteration_in_fewer_iterates(
        monkeypatch):
    # on one fixed 9 x 64 lattice the chord step on the field reaches the
    # fixed point that plain iteration of eps = Im<u|w> reaches, and the
    # final forward sweep takes 2.3 iterates per step, where plain
    # iteration takes 4.0
    p = on_default_config(s2s_problem())
    assert (p.propagator.steps, p.propagator.rule.n_c) == (64, 9)
    tight = replace(p, propagator=replace(p.propagator, zeta=1e-10))
    config = OptimizerConfig(budget=3)
    tr = optimize_krotov(p, config)
    chord = optimize_krotov(tight, config)
    # a field without weights is iterated plainly
    monkeypatch.setattr(optimizers_module, "_NodeField",
                        lambda w: lambda u: np.vecdot(u, w).imag)
    plain = optimize_krotov(tight, config)
    assert len(chord.rows) == len(plain.rows) == 4
    assert relative_gap(chord, plain) <= 1e-9
    stats = tr.trajectory.stats
    assert stats.iterates <= 2.5 * stats.steps
    assert tr.j_monotone


def test_krotov_on_13_nodes_matches_9_nodes():
    # steps twice as long on 13 nodes: no warning (an error under the
    # tier-1 filterwarnings), monotone, and J rows within 1e-9 of 9 x 64
    p = s2s_problem()
    config = OptimizerConfig(budget=3)
    runs = [optimize_krotov(replace(p, propagator=PropagatorConfig(
        steps, chebyshev_rule(n_c), 1e-10)), config)
        for steps, n_c in ((32, 13), (64, 9))]
    long, short = runs
    assert long.trajectory.rule.n_c == 13 and long.trajectory.n_steps == 32
    assert len(long.rows) == len(short.rows) == 4
    assert long.j_monotone
    assert relative_gap(long, short) <= 1e-9


def test_krotov_sampled_alpha_matches_constant_alpha():
    # at the default tau the rows differ by up to 1.5e-6 relative: the
    # interpolated samples differ from 0.1 in the last bit, which moves a
    # step's stopping test within the propagator's tolerance
    p = s2s_problem()
    config = OptimizerConfig(budget=3, tau=1e-9)
    sampled = optimize_krotov(s2s_problem(alpha=np.full(p.grid.n_t, 0.1)),
                              config)
    constant = optimize_krotov(s2s_problem(alpha=0.1), config)
    assert len(sampled.rows) == len(constant.rows) == 4
    assert np.allclose(sampled.js(), constant.js(), rtol=1e-10, atol=0.0)


def test_krotov_sampled_constant_alpha_is_the_constant():
    # equal samples take the scalar path: no node value moves in the last
    # bit, so the rows agree bitwise at the default tau
    p = s2s_problem()
    config = OptimizerConfig(budget=3)
    sampled = optimize_krotov(s2s_problem(alpha=np.full(p.grid.n_t, 0.1)),
                              config)
    constant = optimize_krotov(p, config)
    assert len(sampled.rows) == 4
    assert np.array_equal(sampled.js(), constant.js())
    assert np.array_equal(sampled.field.time_values(),
                          constant.field.time_values())


def test_krotov_time_dependent_alpha_is_monotone():
    # samples that vary are read off the node lattice by a _FieldEval
    p = s2s_problem(n_t=1025)
    alpha = 0.1 * (1.0 + 0.5 * np.sin(np.pi * p.grid.nodes / p.grid.T) ** 2)
    tr = optimize_krotov(s2s_problem(n_t=1025, alpha=alpha),
                         OptimizerConfig(budget=4))
    assert tr.status == BUDGET_EXHAUSTED
    assert len(tr.rows) == 5
    assert np.all(np.diff(tr.js()) > 0)


@functools.lru_cache(maxsize=None)
def krotov_on_513_samples(steps):
    p = s2s_problem(n_t=513)
    prop = PropagatorConfig(steps=steps, rule=chebyshev_rule(9), zeta=1e-13)
    return optimize_krotov(replace(p, propagator=prop),
                           OptimizerConfig(budget=2))


@pytest.mark.parametrize("r", [2, 4, 8])
def test_krotov_long_step_grid_samples_match_one_step_per_interval(r):
    # a step of r grid intervals reads the field it settled on at its
    # inner grid times off the node polynomial
    one, long = krotov_on_513_samples(512), krotov_on_513_samples(512 // r)
    assert long.trajectory.stats.steps == 512 // r
    assert len(long.rows) == len(one.rows) == 3
    assert np.abs(long.field.time_values()
                  - one.field.time_values()).max() < 1e-9
    assert np.abs(long.js() - one.js()).max() < 1e-9
    assert np.abs(long.trajectory.grid_states()
                  - one.trajectory.grid_states()).max() < 1e-9


def test_krotov_rejects_unsupported_functionals():
    system = build_level_system([1.0, 2.0], SX, target=TARGET)
    grid = TimeGrid(10.0, 65)
    freq = FunctionalConfig(formulation="frequency", target="final",
                            f_eps=FilterSpec.explicit(np.full(65, 10.0)))
    with pytest.raises(ValueError):
        optimize_krotov(Problem(system, grid, freq, GROUND, 1.0))
    spectral = FunctionalConfig(formulation="time", target="spectral",
                                alpha=0.1, f_o=FilterSpec.gaussian(3.0, 10.0))
    with pytest.raises(ValueError):
        optimize_krotov(Problem(build_level_system([1.0, 4.0], SX), grid,
                                spectral, GROUND, 1.0))


# ---------------------------------------------------------------- filtered


def test_filtered_identity_filter_first_iteration_matches_krotov():
    p = s2s_problem()
    ones = np.ones(p.grid.n_t)
    tk = optimize_krotov(p, OptimizerConfig(budget=1))
    tf = optimize_krotov_filtered(p, ones, OptimizerConfig(budget=1))
    a, b = tk.field.time_values(), tf.field.time_values()
    assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)


def test_filtered_identity_filter_tracks_krotov():
    # with f == 1 only the trajectory bookkeeping differs: krotov scores the
    # swept trajectory, the filtered scheme re-propagates the projected
    # field, and the gap shrinks with the grid spacing
    p = s2s_problem(n_t=257)
    ones = np.ones(p.grid.n_t)
    tk = optimize_krotov(p, OptimizerConfig(max_iterations=30))
    tf = optimize_krotov_filtered(p, ones, OptimizerConfig(max_iterations=30))
    ja, jb = tk.js(), tf.js()
    n = min(len(ja), len(jb))
    assert np.abs(ja[:n] - jb[:n]).max() < 5e-4
    a, b = tk.field.time_values(), tf.field.time_values()
    assert np.linalg.norm(a - b) < 2e-3 * np.linalg.norm(a)


def test_filtered_rectangular_support_is_exact():
    p = s2s_problem(e1=4.0)
    filt = FilterSpec.rectangular(0.9, 1.1)
    tr = optimize_krotov_filtered(p, filt, OptimizerConfig(max_iterations=40))
    fv = make_filter(filt, p.grid.frequency_grid())
    spectrum = tr.field.spectrum().values
    assert np.all(spectrum[fv.values == 0.0] == 0.0)
    # the reported field is the best iterate, never worse than the last one
    assert tr.breakdown.j >= tr.rows[-1].breakdown.j - 1e-12


def test_filtered_sampled_filter_runs_as_its_spec():
    # a filter sampled on the problem's frequency grid (a Spectrum) gives
    # the trace of its FilterSpec; one sampled on another grid is rejected
    p = s2s_problem()
    spec = FilterSpec.gaussian(1.0, 2.0)
    config = OptimizerConfig(budget=2)
    a = optimize_krotov_filtered(p, spec, config)
    b = optimize_krotov_filtered(
        p, make_filter(spec, p.grid.frequency_grid()), config)
    assert a.propagations == b.propagations
    assert np.array_equal(a.js(), b.js())
    assert np.array_equal(a.field.time_values(), b.field.time_values())
    other = TimeGrid(10.0, 2 * p.grid.n_t - 1).frequency_grid()
    with pytest.raises(ValueError, match="filter grid"):
        optimize_krotov_filtered(p, make_filter(spec, other), config)


def check_filtered_extra_propagation_per_iteration(p, redone):
    tf = optimize_krotov_filtered(p, np.ones(p.grid.n_t),
                                  OptimizerConfig(budget=4))
    assert tf.propagations == 1 + 3 * (len(tf.rows) - 1) + redone


def test_filtered_extra_propagation_per_iteration():
    # the default path: the run searches its lattice
    check_filtered_extra_propagation_per_iteration(s2s_problem(), S2S_REDONE)


def test_filtered_extra_propagation_per_iteration_on_a_fixed_lattice():
    p = s2s_problem()
    p = replace(p, propagator=p.propagator_for(OptimizerConfig()))
    check_filtered_extra_propagation_per_iteration(p, 0)


# ---------------------------------------------------------------- degani


def test_degani_constant_alpha_reduces_to_krotov():
    rels = {}
    for n_t in (129, 257):
        p = s2s_problem(n_t=n_t)
        aw = np.full(n_t, 0.1)
        td = optimize_degani(p, aw, OptimizerConfig(budget=1))
        tk = optimize_krotov(p, OptimizerConfig(budget=1))
        a, b = td.field.time_values(), tk.field.time_values()
        rels[n_t] = np.linalg.norm(a - b) / np.linalg.norm(b)
    assert rels[257] < 2e-3
    assert rels[129] / rels[257] > 3.0  # second-order shrink per halving


def test_degani_constant_alpha_full_run_matches_krotov():
    p = s2s_problem()
    aw = np.full(p.grid.n_t, 0.1)
    td = optimize_degani(p, aw, OptimizerConfig(max_iterations=120))
    tk = optimize_krotov(p, OptimizerConfig(max_iterations=120))
    assert td.status == CONVERGED
    assert td.j_monotone  # not guaranteed in general, but holds here
    assert abs(td.breakdown.j - tk.breakdown.j) < 5e-3


def test_degani_two_plateau_suppression():
    p = s2s_problem(n_t=129)
    om = p.grid.frequency_grid().nodes
    aw = np.where(om <= 2.0, 0.1, 10.0)
    tr = optimize_degani(p, aw, OptimizerConfig(max_iterations=200))
    assert tr.status == CONVERGED
    spectrum = tr.field.spectrum().values
    lo = np.abs(spectrum[om <= 2.0]).max()
    hi = np.abs(spectrum[om > 2.0]).max()
    assert hi < 1e-2 * lo


def test_degani_survives_harsh_plateau():
    p = s2s_problem(n_t=129)
    om = p.grid.frequency_grid().nodes
    aw = np.where(om <= 2.0, 0.1, 100.0)
    tr = optimize_degani(p, aw, OptimizerConfig(max_iterations=200))
    assert tr.status in (CONVERGED, BUDGET_EXHAUSTED, INSTABILITY)


def test_degani_counts_two_sweeps_per_iteration():
    p = s2s_problem(n_t=33)
    tr = optimize_degani(p, np.full(p.grid.n_t, 0.1),
                         OptimizerConfig(budget=3))
    assert tr.propagations == 1 + 2 * (len(tr.rows) - 1) \
        == tr.rows[-1].propagations
    assert tr.breakdown is tr.rows[-1].breakdown
    assert tr.trajectory.final_state.shape == (2,)
    assert tr.trajectory.stats.steps == p.grid.n_t - 1
    assert tr.trajectory.node_states.shape == (p.grid.n_t - 1, 9, 2)


def test_degani_default_config_keeps_one_step_per_interval():
    # the default config takes one step per grid interval here, as the
    # kernel scheme needs, and runs as the same explicit config does
    p = s2s_problem(n_t=129)
    default = p.propagator_for(OptimizerConfig())
    assert default.steps == 128
    aw = np.full(p.grid.n_t, 0.1)
    td = optimize_degani(p, aw, OptimizerConfig(budget=1))
    te = optimize_degani(replace(p, propagator=replace(default, steps=128)),
                         aw, OptimizerConfig(budget=1))
    assert len(td.rows) == 2
    assert np.array_equal(td.js(), te.js())
    assert np.array_equal(td.field.time_values(), te.field.time_values())


def test_degani_rejects_long_steps():
    p = s2s_problem(n_t=129)
    long = replace(p, propagator=PropagatorConfig(
        steps=64, rule=chebyshev_rule(9), zeta=1e-6))
    with pytest.raises(ValueError, match="kernel"):
        optimize_degani(long, np.full(p.grid.n_t, 0.1))


def test_degani_rejects_a_grid_the_default_config_substeps():
    # spread * dt = 9 * 10/64 = 1.41: the default config takes four steps
    # per interval, so the grid needs n_t = 257 for one step per interval
    p = s2s_problem(n_t=65, e1=10.0)
    assert p.propagator_for(OptimizerConfig()).steps == 256
    with pytest.raises(ValueError, match=r"kernel.*n_t >= 257"):
        optimize_degani(p, np.full(p.grid.n_t, 0.1))


@pytest.mark.parametrize("n_t, budget", [(33, 3), (129, 1)])
def test_degani_rows_match_a_tight_propagation(n_t, budget):
    # at n_t = 33 the front sample's penalty row has a gain above one, so
    # the sweep's secant, not plain repetition, settles it
    p = s2s_problem(n_t=n_t)
    aw = np.full(n_t, 0.1)
    cfg = OptimizerConfig(budget=budget)
    td = optimize_degani(p, aw, cfg)
    tight = optimize_degani(replace(p, propagator=PropagatorConfig(
        n_t - 1, chebyshev_rule(9), 1e-10)), aw, cfg)
    zeta = p.propagator_for(cfg).zeta
    assert len(td.rows) == len(tight.rows) == budget + 1
    assert np.abs(td.js() - tight.js()).max() <= zeta


def test_degani_settles_the_front_sample_of_every_step():
    # a step stops once its front row's residual is within zeta_step too,
    # not only the step end's change: at n_t = 33, where the row's gain
    # passes one, J per row is 4e-9 off a tight run (3.3e-7 on the step
    # end's change alone)
    p = s2s_problem(n_t=33)
    aw = np.full(33, 0.1)
    cfg = OptimizerConfig(budget=3)
    td = optimize_degani(p, aw, cfg)
    tight = optimize_degani(replace(p, propagator=PropagatorConfig(
        32, chebyshev_rule(9), 1e-10)), aw, cfg)
    assert len(td.rows) == len(tight.rows) == 4
    assert np.abs(td.js() - tight.js()).max() <= 2e-8


def test_degani_zero_kernel_pivot_raises():
    p = s2s_problem()
    with pytest.raises(ValueError):
        optimize_degani(p, np.zeros(p.grid.n_t))


def test_degani_requires_plain_final_target():
    p = hg_problem()
    with pytest.raises(ValueError):
        optimize_degani(p, np.full(p.grid.n_t, 0.1))


# ---------------------------------------------------------------- gradient


def test_gradient_penalty_only_collapses_in_one_line_search():
    tr = optimize_gradient(null_mu_problem(alpha=0.5, guess=1.0))
    assert tr.status == CONVERGED
    assert len(tr.rows) <= 3
    assert tr.breakdown.j == 0.0
    assert np.all(tr.field.time_values() == 0.0)


def test_gradient_s2s_reaches_krotov_quality():
    p = s2s_problem()
    tk = optimize_krotov(p, OptimizerConfig(max_iterations=120))
    tg = optimize_gradient(p, OptimizerConfig(max_iterations=150))
    assert tg.breakdown.j >= tk.breakdown.j - 0.01 * abs(tk.breakdown.j)
    assert tg.propagations > tk.propagations
    assert tg.j_monotone
    ks = [row.k for row in tg.rows[1:]]
    assert np.all(np.diff(ks) <= 0)


def test_gradient_converges_on_harmonic_generation():
    # the hat-sech penalty carries alpha up to about 1e300 in its tails;
    # in the penalty metric those bins barely move, so the search can step
    p = hg_problem()
    cfg = OptimizerConfig(k_init=0.5, max_iterations=120)
    tg = optimize_gradient(p, cfg)
    tq = optimize_quasi_newton(p, cfg)
    assert tg.status == CONVERGED
    assert tg.j_monotone
    assert abs(tg.breakdown.j - tq.breakdown.j) <= 0.01 * abs(tq.breakdown.j)


# ---------------------------------------------------------------- quasi-newton


def _dense_bfgs_update(hmat, s, y):
    """Reference: the dense BFGS update of the inverse Hessian."""
    rho = 1.0 / float(y @ s)
    hy = hmat @ y
    return (hmat - rho * (np.outer(s, hy) + np.outer(hy, s))
            + rho * rho * float(y @ hy) * np.outer(s, s)
            + rho * np.outer(s, s))


def test_two_loop_direction_matches_dense_bfgs():
    rng = np.random.default_rng(11)
    n = 8
    b0 = rng.uniform(0.5, 2.0, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T  # SPD curvature
    curvature, hmat = _InverseCurvature(b0), np.diag(b0)

    def same_direction(gamma):
        nonlocal hmat
        ref = hmat @ gamma
        if float(ref @ gamma) <= 0.0:
            hmat, ref = np.diag(b0), b0 * gamma
        got = curvature.direction(gamma)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def add(s, y):
        nonlocal hmat
        curvature.add(s, y)
        if float(y @ s) > 1e-12 * np.linalg.norm(y) * np.linalg.norm(s):
            hmat = _dense_bfgs_update(hmat, s, y)

    for _ in range(3):
        s = rng.standard_normal(n)
        add(s, a @ s)
        same_direction(rng.standard_normal(n))
    # a pair without positive curvature is skipped
    s = rng.standard_normal(n)
    y = rng.standard_normal(n)
    y -= (y @ s) / (s @ s) * s
    add(s, y)
    assert len(curvature.pairs) == 3
    same_direction(rng.standard_normal(n))
    # a negative-curvature pair, which add() refuses, makes H indefinite:
    # along gamma = y the direction descends, and both reset to diag(b0)
    s = rng.standard_normal(n)
    y = -(a @ s)
    curvature.pairs.append((s, y, 1.0 / float(y @ s)))
    hmat = _dense_bfgs_update(hmat, s, y)
    same_direction(y)
    assert curvature.pairs == []
    assert np.array_equal(curvature.direction(y), b0 * y)
    for _ in range(2):
        s = rng.standard_normal(n)
        add(s, a @ s)
        same_direction(rng.standard_normal(n))
    assert len(curvature.pairs) == 2


def test_quasi_newton_penalty_only_needs_at_most_two_searches():
    tr = optimize_quasi_newton(null_mu_problem(alpha=0.5, guess=1.0))
    assert tr.status == CONVERGED
    assert len(tr.rows) <= 3
    assert np.all(tr.field.time_values() == 0.0)


def test_quasi_newton_first_step_is_relaxation_direction():
    p = on_default_config(s2s_problem())
    ctx = prepare_context(p.system, p.grid, p.functional)
    prop = p.propagator_for(OptimizerConfig())
    traj = propagate_forward(p.system, p.guess, p.psi0, prop, grid=p.grid)
    chi_T = ctx.o_full @ traj.final_state
    chi = propagate_backward(p.system, p.guess, None, chi_T, prop,
                             grid=p.grid)
    el = field_from_el_time(p.system, traj, chi, p.functional.alpha)
    d_relax = el.time_values() - p.guess.time_values()

    tq = optimize_quasi_newton(p, OptimizerConfig(budget=1))
    d_qn = tq.field.time_values() - p.guess.time_values()
    cos = d_relax @ d_qn / (np.linalg.norm(d_relax) * np.linalg.norm(d_qn))
    assert cos > 1.0 - 1e-12


def test_quasi_newton_beats_relaxation_on_harmonic_generation():
    p = hg_problem()
    cfg = OptimizerConfig(k_init=0.5, max_iterations=120)
    tr = optimize_relaxation(p, cfg)
    tq = optimize_quasi_newton(p, cfg)
    assert tq.breakdown.j >= tr.breakdown.j - 0.01 * abs(tr.breakdown.j)


# ---------------------------------------------------------------- shared


def test_runs_are_deterministic():
    a = optimize_gradient(s2s_problem(), OptimizerConfig(max_iterations=10))
    b = optimize_gradient(s2s_problem(), OptimizerConfig(max_iterations=10))
    assert np.array_equal(a.field.time_values(), b.field.time_values())
    assert np.array_equal(a.js(), b.js())
    c = optimize_relaxation(s2s_problem(), OptimizerConfig(max_iterations=10))
    d = optimize_relaxation(s2s_problem(), OptimizerConfig(max_iterations=10))
    assert np.array_equal(c.field.time_values(), d.field.time_values())


def test_budget_overrides_tolerance_stop():
    tr = optimize_relaxation(s2s_problem(), OptimizerConfig(budget=3))
    assert tr.status == BUDGET_EXHAUSTED
    assert len(tr.rows) == 4  # guess echo plus exactly three iterations


def test_dispatcher_routes_and_validates():
    p = s2s_problem()
    tr = optimize(p, OptimizerConfig(method="relaxation", budget=2))
    assert tr.method == "relaxation"
    tn = optimize(p, OptimizerConfig(method="naive", budget=2))
    assert tn.method == "naive"
    with pytest.raises(ValueError):
        optimize(p, OptimizerConfig(method="degani", budget=1))
    with pytest.raises(ValueError):
        optimize(p, OptimizerConfig(method="krotov-filtered", budget=1))
    td = optimize(p, OptimizerConfig(method="degani", budget=1),
                  alpha_omega=np.full(p.grid.n_t, 0.1))
    assert td.method == "degani"


def test_relaxation_builds_the_commutator_once(monkeypatch):
    """kappa > 0: [H0, O] is built once per system instance, by
    prepare_context, and kept there (read-only) for the terminal_chi of
    every backward run."""
    import specdrive.optimizers as optimizers

    builds, backward = [], []
    dense_h0, propagate = system_module.dense_h0, optimizers.propagate_backward

    def counted_h0(system):
        builds.append(system)
        return dense_h0(system)

    def counted_backward(*args, **kwargs):
        backward.append(1)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(system_module, "dense_h0", counted_h0)
    monkeypatch.setattr(optimizers, "propagate_backward", counted_backward)
    system = build_level_system([1.0, 2.0], SX, target=SX)
    config = FunctionalConfig(formulation="time", target="final", alpha=0.1,
                              kappa=0.5)
    trace = optimize_relaxation(
        Problem(system, TimeGrid(10.0, 65), config, GROUND, 0.5),
        OptimizerConfig(budget=2))
    assert len(trace.rows) == 3 and len(backward) >= 2
    assert len(builds) == 1 and builds[0] is system
    assert not commutator_H0_O(system).flags.writeable
    assert len(builds) == 1


def test_failed_last_iteration_counts_its_propagations(monkeypatch):
    import specdrive.optimizers as optimizers

    calls = []
    for name in ("propagate_forward", "propagate_backward"):
        original = getattr(optimizers, name)

        def counted(*args, _fn=original, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(optimizers, name, counted)
    # forward, backward, then trials at K = 1 and K = 0.5 both lose;
    # gradient and quasi-Newton end in the line search's no-improvement
    # branch
    for method in (optimize_relaxation, optimize_gradient,
                   optimize_quasi_newton):
        calls.clear()
        tr = method(on_default_config(s2s_problem(alpha=1e-10)),
                    OptimizerConfig(k_floor=0.5))
        assert tr.status == K_UNDERFLOW
        assert len(calls) == 4
        assert tr.propagations == 4
        assert [row.propagations for row in tr.rows] == [1]
    # on the searched lattice the guess's run stops at 4 steps first
    calls.clear()
    tr = optimize_relaxation(s2s_problem(alpha=1e-10),
                             OptimizerConfig(k_floor=0.5))
    assert tr.status == K_UNDERFLOW
    assert len(calls) == 5
    assert tr.propagations == 5
    assert [row.propagations for row in tr.rows] == [2]


def test_krotov_at_a_tight_tolerance_is_no_instability():
    # a 32-step sweep under Krotov's field conserves the norm only to about
    # 2e-10, far above 1e3 zeta here: its kept steps' truncation estimates
    # (up to 3e-7 of the stop's scale) allow that drift, an instability
    # would not stay within them
    p = s2s_problem(n_t=33)
    p = Problem(p.system, p.grid, p.functional, p.psi0, p.guess,
                PropagatorConfig(32, chebyshev_rule(9), 1e-12))
    tr = optimize_krotov(p, OptimizerConfig(method="krotov", budget=2))
    assert tr.status == BUDGET_EXHAUSTED
    assert np.all(np.diff(tr.js()) > 0)


def test_krotov_bisects_a_stalled_sweep_step():
    # six Picard iterates cannot settle a step of this coarse propagator;
    # the sweep halves it like a plain propagation instead of giving up
    p = s2s_problem()
    prop = PropagatorConfig(steps=64, rule=chebyshev_rule(5), zeta=1e-9,
                            max_picard=6)
    p = Problem(p.system, p.grid, p.functional, p.psi0, p.guess, prop)
    tr = optimize_krotov(p, OptimizerConfig(method="krotov", budget=3))
    assert tr.status == BUDGET_EXHAUSTED
    assert tr.propagations == 7
    assert tr.j_monotone


def test_strong_field_run_solves_its_halves_collocation_equations():
    # under 100x its guess every full step of hg_problem() is halved; at a
    # tight zeta the run on 128 steps then ends where the run on its
    # halves' own lattice of 256 steps ends
    p = hg_problem()
    strong = p.guess.with_spectrum_values(100.0 * p.guess.spectrum().values)
    config = p.propagator_for(OptimizerConfig())
    assert config.steps == 128

    def run(steps):
        return propagate_forward(p.system, strong, p.psi0,
                                 replace(config, steps=steps, zeta=1e-10))

    bisected = run(128)
    assert bisected.stats.steps == 128
    assert (np.linalg.norm(bisected.final_state - run(256).final_state)
            <= 1e-9)


def test_searched_lattice_goes_no_finer_than_the_default_config():
    # under 100x its guess hg_problem()'s field is unresolved at 16 grid
    # intervals per step, and at one (see above).  The run that stops at
    # 16 moves to the default config's lattice of one step per interval,
    # where the runs bisect and carry on instead of moving again
    p = hg_problem()
    strong = replace(p, guess=p.guess.with_spectrum_values(
        100.0 * p.guess.spectrum().values))
    tr = optimize_relaxation(strong, OptimizerConfig(budget=1))
    assert tr.status == BUDGET_EXHAUSTED
    assert tr.propagations == 4  # the stopped run, guess, costate, trial
    assert (tr.trajectory.n_steps
            == p.propagator_for(OptimizerConfig()).steps == 128)


def test_search_reaches_the_floor_of_one_step_per_interval():
    # a field at 60 times the Bohr frequency is unresolved on every lattice
    # coarser than one step per grid interval.  The search moves down to
    # that floor, where no step bisects and J is read off resolved steps
    # (a floor of 64 steps kept the run there, on 446 bisections)
    p = s2s_problem(n_t=513)
    t = p.grid.nodes
    p = replace(p, guess=0.3 * np.cos(60.0 * t) + 0.2 * np.cos(t))
    tr = optimize_relaxation(p, OptimizerConfig(budget=2))
    assert tr.status == BUDGET_EXHAUSTED
    assert tr.trajectory.n_steps == p.grid.n_t - 1
    assert tr.trajectory.stats.bisections == 0
    tight = propagate_forward(p.system, tr.field, p.psi0, PropagatorConfig(
        2048, chebyshev_rule(9), 1e-13))
    ctx = prepare_context(p.system, p.grid, p.functional)
    assert abs(tr.breakdown.j - evaluate(ctx, tight, tr.field).j) <= 1e-10


def test_time_form_update_carries_the_band_of_its_lattice():
    # the search settles this grid on 8 intervals per step.  A time-form
    # gradient that fills every grid bin is not integrated there (the rows'
    # J was 5.9e-3 off a tight run of the same field); one that carries
    # only the bins its costate's lattice integrates lets the search stay
    # coarser than its floor of one step per interval
    p = s2s_problem(n_t=513)
    assert p.propagator_for(OptimizerConfig()).steps == 512
    tr = optimize_quasi_newton(p, OptimizerConfig(budget=2))
    assert tr.trajectory.n_steps < 512
    tight = propagate_forward(p.system, tr.field, p.psi0, PropagatorConfig(
        2048, chebyshev_rule(9), 1e-13))
    assert (np.linalg.norm(tr.trajectory.final_state - tight.final_state)
            <= 1e-9)
    ctx = prepare_context(p.system, p.grid, p.functional)
    j_tight = evaluate(ctx, tight, tr.field).j
    assert abs(tr.breakdown.j - j_tight) <= 1e-9 * abs(j_tight)


def test_time_form_update_on_an_explicit_long_step_config():
    # an explicit config of 8 intervals per step: the updates carry the
    # bins its steps integrate, so no run bisects (863 bisections, and a
    # truncation estimate 1e4 times the stop, with every grid bin)
    p = s2s_problem(n_t=513)
    p = Problem(p.system, p.grid, p.functional, p.psi0, p.guess,
                PropagatorConfig(64, chebyshev_rule(9), 1e-6))
    tr = optimize_quasi_newton(p, OptimizerConfig(budget=2))
    assert tr.status == BUDGET_EXHAUSTED
    assert tr.trajectory.stats.bisections == 0
    tight = propagate_forward(p.system, tr.field, p.psi0, PropagatorConfig(
        2048, chebyshev_rule(9), 1e-13))
    ctx = prepare_context(p.system, p.grid, p.functional)
    j_tight = evaluate(ctx, tight, tr.field).j
    assert abs(tr.breakdown.j - j_tight) <= 1e-9 * abs(j_tight)


@pytest.mark.parametrize("method", _METHODS)
def test_on_row_sees_every_row_in_order(method):
    p = s2s_problem(n_t=33)
    extra = {}
    if method == "krotov-filtered":
        extra["filt"] = np.ones(p.grid.n_t)
    if method == "degani":
        extra["alpha_omega"] = np.full(p.grid.n_t, 0.1)
    seen = []
    tr = optimize(p, OptimizerConfig(method=method, budget=2),
                  on_row=seen.append, **extra)
    assert len(seen) == len(tr.rows) == 3
    assert all(a is b for a, b in zip(seen, tr.rows))
    assert tr.propagations >= tr.rows[-1].propagations
