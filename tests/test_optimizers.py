import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from specdrive.spectral import FilterSpec, TimeGrid, chebyshev_rule, make_filter
from specdrive.system import build_level_system
from specdrive.functionals import (
    FunctionalBreakdown, FunctionalConfig, field_from_el_time,
    prepare_context,
)
from specdrive.dynamics import (
    PropagatorConfig, propagate_backward, propagate_forward,
)
from specdrive.optimizers import (
    _METHODS, BUDGET_EXHAUSTED, CONVERGED, INSTABILITY, K_UNDERFLOW,
    OptimizationTrace, OptimizerConfig, Problem, TraceRow, convergence_check,
    optimize, optimize_degani, optimize_gradient, optimize_krotov,
    optimize_krotov_filtered, optimize_naive, optimize_quasi_newton,
    optimize_relaxation,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
TARGET = np.array([[0.0, 0.0], [0.0, 1.0]])
GROUND = np.array([1.0, 0.0], dtype=complex)


def s2s_problem(n_t=65, alpha=0.1, e1=2.0, guess=1.0):
    """State-to-state transfer on a two-level system, constant guess."""
    system = build_level_system([1.0, e1], SX, target=TARGET)
    config = FunctionalConfig(formulation="time", target="final", alpha=alpha)
    return Problem(system, TimeGrid(10.0, n_t), config, GROUND, guess)


def null_mu_problem(n_t=65, alpha=0.1, guess=0.0):
    # with mu = 0 the zero field satisfies the stationarity condition exactly
    system = build_level_system([1.0, 2.0], np.zeros((2, 2)), target=TARGET)
    config = FunctionalConfig(formulation="time", target="final", alpha=alpha)
    return Problem(system, TimeGrid(10.0, n_t), config, GROUND, guess)


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
    tr = optimize_relaxation(s2s_problem())
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
    p = s2s_problem()
    ctx = prepare_context(p.system, p.grid, p.functional)
    prop = p.propagator_for(OptimizerConfig())
    traj = propagate_forward(p.system, p.guess, p.psi0, prop, grid=p.grid)
    chi_T = ctx.o_full @ traj.final_state
    chi = propagate_backward(p.system, p.guess, None, chi_T, prop,
                             grid=p.grid)
    el = field_from_el_time(p.system, traj, chi, p.functional.alpha)

    tr = optimize_naive(p, OptimizerConfig(budget=1))
    assert np.abs(tr.field.time_values() - el.time_values()).max() < 1e-13


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


# ---------------------------------------------------------------- krotov


def test_krotov_monotone_and_propagation_count():
    tr = optimize_krotov(s2s_problem(), OptimizerConfig(max_iterations=120))
    assert tr.status == CONVERGED
    assert tr.j_monotone
    n_iter = len(tr.rows) - 1
    assert tr.propagations == 1 + 2 * n_iter
    assert tr.breakdown.j > tr.rows[0].breakdown.j


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


def test_filtered_extra_propagation_per_iteration():
    p = s2s_problem()
    tf = optimize_krotov_filtered(p, np.ones(p.grid.n_t),
                                  OptimizerConfig(budget=4))
    assert tf.propagations == 1 + 3 * (len(tf.rows) - 1)


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


# ---------------------------------------------------------------- quasi-newton


def test_quasi_newton_penalty_only_needs_at_most_two_searches():
    tr = optimize_quasi_newton(null_mu_problem(alpha=0.5, guess=1.0))
    assert tr.status == CONVERGED
    assert len(tr.rows) <= 3
    assert np.all(tr.field.time_values() == 0.0)


def test_quasi_newton_first_step_is_relaxation_direction():
    p = s2s_problem()
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


def test_failed_last_iteration_counts_its_propagations(monkeypatch):
    import specdrive.optimizers as optimizers

    calls = []
    for name in ("propagate_forward", "propagate_backward"):
        original = getattr(optimizers, name)

        def counted(*args, _fn=original, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(optimizers, name, counted)
    # forward, backward, then trials at K = 1 and K = 0.5 both lose
    tr = optimize_relaxation(s2s_problem(alpha=1e-10),
                             OptimizerConfig(k_floor=0.5))
    assert tr.status == K_UNDERFLOW
    assert len(calls) == 4
    assert tr.propagations == 4
    assert [row.propagations for row in tr.rows] == [1]


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
