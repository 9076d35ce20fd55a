"""The per-iterate step kernel: GridSystem.h_apply against its dense H0,
StepSolver.picard against the unfolded fixed-point loop, the eigenbasis
step against the same step cut into sub-steps, and the start predicted
from the previous step against the constant start."""

import dataclasses
import math

import numpy as np
import pytest

from specdrive.spectral import (
    FilterSpec, RealSignal, Spectrum, TimeGrid, chebyshev_rule, dct1,
    make_filter,
)
from specdrive.system import (
    apply_mu, build_grid_system, build_level_system, choose_x_domain,
    dense_h0, diagonalize, hcl_dipole, morse_potential,
)
from specdrive.dynamics import (
    HGSource, PropagatorConfig, StepSolver, default_propagator_config,
    hg_source_signal, propagate_backward, propagate_forward,
)
from specdrive.functionals import FunctionalConfig
from specdrive.optimizers import OptimizerConfig, Problem, optimize_krotov

RULE = chebyshev_rule(9)
HCL_MASS = 1785.0


def hcl_system(n_grid):
    """Morse/HCl on the balanced domain of the 64-point grid."""
    mp = morse_potential(0.171, 0.975)
    xl, xr = choose_x_domain(mp, HCL_MASS, 64, v_cap=(1.0 - 1e-6) * 0.171)
    return build_grid_system(xl, xr, n_grid, HCL_MASS, mp, hcl_dipole)


def dft_h0(system):
    """P^2/2m + V from an explicit DFT matrix, without scipy.fft."""
    n = system.n_grid
    j = np.arange(n)
    w = np.exp(-2j * math.pi * np.outer(j, j) / n)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=system.dx)
    kin = (w.conj().T * (k * k / (2.0 * system.mass))) @ w / n
    return kin + np.diag(system.potential)


def complex_block(rng, rows, dim):
    return rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))


@pytest.mark.parametrize("n_grid", [32, 64])
def test_grid_h_apply_matches_dense_h0(n_grid):
    system = hcl_system(n_grid)
    h0 = dense_h0(system)
    assert np.abs(h0 - dft_h0(system)).max() <= 1e-12 * np.abs(h0).max()
    rng = np.random.default_rng(n_grid)
    states = complex_block(rng, 9, n_grid)
    fv = 0.02 * rng.standard_normal(9)
    expect = states @ h0.T - fv[:, None] * (states * system.dipole)
    got = system.h_apply(states, fv)
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)
    # a scalar field value, as apply_grid_hamiltonian passes it
    expect = states @ h0.T - 0.03 * (states * system.dipole)
    got = system.h_apply(states, 0.03)
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def test_dense_h0_returns_a_copy():
    system = hcl_system(64)
    h0 = dense_h0(system)
    h0[:] = 0.0
    assert np.abs(dense_h0(system)).max() > 0.0


class _Counting:
    """A system whose h_apply counts its calls: one per Picard iterate."""

    def __init__(self, system):
        self.system = system
        self.calls = 0

    def h_apply(self, states, field_values):
        self.calls += 1
        return self.system.h_apply(states, field_values)


def unfolded_picard(solver, u0, f_vals, src, dt):
    """The fixed-point loop with -i, dt*Q and the source applied every
    iterate; returns (node states or None, iterates taken)."""
    q = dt * solver.rule.qmat
    u = np.repeat(u0[None, :], len(solver.s), axis=0)
    end_prev = u0
    update = f_vals if callable(f_vals) else None
    for it in range(1, solver.max_picard + 1):
        if update is not None:
            f_vals = update(u)
        rhs = solver.system.h_apply(u, f_vals)
        rhs *= -1j
        if src is not None:
            rhs += src
        u = q @ rhs
        u += u0
        end = u[-1]
        delta = float(np.linalg.norm(end - end_prev))
        end_prev = end
        if not math.isfinite(delta):
            return None, it
        if delta <= solver.zeta_step * max(float(np.linalg.norm(end)), 1e-300):
            return u, it
    return None, solver.max_picard


def assert_same_iteration(system, u0, f_vals, src, dt, zeta_step):
    counted = _Counting(system)
    solver = StepSolver(counted, RULE, zeta_step)
    ref, ref_its = unfolded_picard(solver, u0, f_vals, src, dt)
    counted.calls = 0
    got = solver.picard(u0, f_vals, src, dt)
    assert ref is not None and got is not None
    assert counted.calls == ref_its
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_picard_grid_step_with_source(direction):
    system = hcl_system(64)
    rng = np.random.default_rng(7)
    u0 = complex_block(rng, 1, 64)[0]
    u0 /= np.linalg.norm(u0)
    h0_bound = (float(system.potential.max())
                + math.pi**2 / (2.0 * system.mass * system.dx**2))
    dt = direction * 0.5 / h0_bound
    f_vals = 0.01 * np.cos(np.linspace(0.0, 1.0, RULE.n_c))
    src = 0.05 * complex_block(rng, RULE.n_c, 64)
    assert_same_iteration(system, u0, f_vals, src, dt, 1e-6 / 2048)
    assert_same_iteration(system, u0, f_vals, None, dt, 1e-6 / 2048)


def test_picard_krotov_update_step():
    system = build_level_system([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])
    u0 = np.array([0.8, 0.6j])
    partner = np.array([[0.1, 1.0 - 0.05j * j] for j in range(RULE.n_c)])
    mu_partner = apply_mu(system, partner)

    def update(u):  # eps = Im<u|mu|partner>/alpha + guess, node by node
        return 0.2 + np.einsum("ij,ij->i", u.conj(), mu_partner).imag / 0.1

    assert_same_iteration(system, u0, update, None, 10.0 / 1024, 1e-9 / 1024)


def iterates(system, u0, f_vals, src, dt, zeta_step):
    """Iterates picard takes: the fewest max_picard that converge."""
    for k in range(1, 41):
        solver = StepSolver(system, RULE, zeta_step, max_picard=k)
        if solver.picard(u0, f_vals, src, dt) is not None:
            return k
    return math.inf


def substepped_end(system, u0, field, source, dt, n):
    """The step as n sub-steps of the plain loop at zeta 1e-15."""
    solver = StepSolver(_Counting(system), RULE, 1e-15)
    u = u0
    for k in range(n):
        s = (k + solver.s) / n
        src = None if source is None else source(s)
        u = solver.picard(u, field(s), src, dt / n)[-1]
    return u


HCL_DT = 2000.0 / 1024  # the benchmark's HCl grid spacing


@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize("with_source", [True, False])
def test_eigen_step_matches_substeps_on_hcl_grid(direction, with_source):
    # the grid system's eigen_system() stepped with its states mapped
    # through V, against the plain loop on the grid system itself
    system = hcl_system(64)
    level, vecs = system.eigen_system()
    v_bar = vecs.conj()
    rng = np.random.default_rng(11)
    u0 = complex_block(rng, 1, 64)[0]
    u0 /= np.linalg.norm(u0)
    a, b = 0.05 * complex_block(rng, 2, 64)

    def field(s):
        return 0.01 * np.cos(3.0 * s)

    def source(s):
        return a + np.multiply.outer(np.asarray(s) ** 2, b)

    source = source if with_source else None
    dt = direction * HCL_DT
    zeta_step = 1e-6 / 1024
    solver = StepSolver(level, RULE, zeta_step)
    src = None if source is None else source(solver.s)
    src_level = None if src is None else src @ v_bar
    got = solver.picard(u0 @ v_bar, field(solver.s), src_level, dt)
    assert got is not None
    got = got @ vecs.T
    ref = substepped_end(system, u0, field, source, dt, 16)
    assert np.linalg.norm(got[-1] - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.abs(got[0] - u0).max() <= 1e-14
    eigen_its = iterates(level, u0 @ v_bar, field(solver.s), src_level, dt,
                         zeta_step)
    plain_its = iterates(_Counting(system), u0, field(solver.s), src, dt,
                         zeta_step)
    assert eigen_its < plain_its


def test_eigen_krotov_update_step_matches_substeps():
    system = build_level_system([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])
    u0 = np.array([0.8, 0.6j])

    def update_at(s):  # eps = Im<u|mu|partner>/alpha + guess, node by node
        partner = np.stack([np.full(np.shape(s), 0.1),
                            1.0 - 0.4j * np.asarray(s)], axis=-1)
        mu_partner = apply_mu(system, partner)
        return lambda u: 0.2 + np.einsum(
            "ij,ij->i", u.conj(), mu_partner).imag / 0.1

    dt, zeta_step = 10.0 / 1024, 1e-9 / 1024
    solver = StepSolver(system, RULE, zeta_step)
    got = solver.picard(u0, update_at(solver.s), None, dt)
    assert got is not None
    ref = substepped_end(system, u0, update_at, None, dt, 16)
    assert np.linalg.norm(got[-1] - ref) <= 1e-10 * np.linalg.norm(ref)
    update = update_at(solver.s)
    assert (iterates(system, u0, update, None, dt, zeta_step)
            < iterates(_Counting(system), u0, update, None, dt, zeta_step))


def test_unresolved_step_is_bisected_by_its_truncation_estimate(monkeypatch):
    system = build_level_system([1.0, 4.0], [[0.0, 1.0], [1.0, 0.0]])
    seen = []
    picard = StepSolver.picard

    def recording(self, u0, f_vals, src, dt):
        seen.append(dt)
        return picard(self, u0, f_vals, src, dt)

    monkeypatch.setattr(StepSolver, "picard", recording)
    solver = StepSolver(system, RULE, 1e-11)
    assert solver.spread == 3.0
    u0 = np.array([1.0, 0.0], dtype=complex)

    def f_eval(t):
        return 0.1 * np.cos(np.asarray(t))

    # estimate 1.6e-12: one solve
    solver.solve(u0, 0.0, 0.2, lambda s: f_eval(0.2 * s))
    assert seen == [0.2]
    assert solver.bisections == solver.unresolved == 0
    seen.clear()
    # estimate 4.0e-10: one halving
    nodes = solver.solve(u0, 0.0, -0.4, lambda s: f_eval(-0.4 * s))
    assert seen == [-0.4, -0.2, -0.2]
    assert solver.bisections == solver.unresolved == 1
    assert solver.stalls == 0
    assert solver.truncation > 10.0 * solver.zeta_step
    assert solver.estimate <= solver.zeta_step
    assert nodes.shape == (RULE.n_c, 2)
    assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() < 1e-10
    ref = substepped_end(system, u0, lambda s: f_eval(-0.4 * np.asarray(s)),
                         None, -0.4, 16)
    assert np.linalg.norm(nodes[-1] - ref) <= 1e-11


def test_default_config_takes_one_step_per_interval_on_hcl_grid():
    system = hcl_system(64)
    grid = TimeGrid(2000.0, 1025)
    assert default_propagator_config(system, grid).steps == 1024


def test_diagonalize_returns_copies_of_the_cached_basis():
    system = hcl_system(64)
    first = diagonalize(system)
    energies, vecs = first.energies.copy(), first.states.copy()
    first.energies[:] = 0.0
    first.states[:] = 0.0
    again = diagonalize(system)
    assert np.array_equal(again.energies, energies)
    assert np.array_equal(again.states, vecs)
    assert system.eigen() is system.eigen()


def test_level_system_of_the_grid_eigenbasis_propagates_alike():
    """The grid system and the level system of its (E, M, V^dagger O V)
    are one operator model: a forward run of each reaches the same state,
    in the eigenbasis."""
    system = hcl_system(64)
    energies, vecs, coupling = system.eigen()
    o_eigen = vecs.conj().T @ (system.target[:, None] * vecs)
    level = build_level_system(energies, coupling, o_eigen)
    grid = TimeGrid(200.0, 103)  # the benchmark's HCl time step
    w10 = float(energies[1] - energies[0])
    field = 0.01 * np.cos(w10 * grid.nodes)
    psi0 = vecs[:, 0]
    config = default_propagator_config(system, grid)
    assert default_propagator_config(level, grid).steps == config.steps
    psi_t = propagate_forward(system, field, psi0, config, grid=grid).final_state
    c_t = propagate_forward(level, field, vecs.conj().T @ psi0, config,
                            grid=grid).final_state
    assert np.linalg.norm(c_t - vecs.conj().T @ psi_t) <= 1e-12


def two_steps(solver, u0, dt, f_vals_at, src_at=None):
    """Step one from the constant start, then step two from the constant
    start and from step one's nodes; f_vals_at and src_at map the step's
    node fractions to the field (or update) and source at its nodes."""
    s = solver.s
    src = (lambda frac: None) if src_at is None else src_at
    first = solver.solve(u0, 0.0, dt, None, f_vals=f_vals_at(s),
                         src_vals=src(s))
    const = solver.solve(first[-1], dt, dt, None, f_vals=f_vals_at(1.0 + s),
                         src_vals=src(1.0 + s))
    pred = solver.solve(first[-1], dt, dt, None, f_vals=f_vals_at(1.0 + s),
                        src_vals=src(1.0 + s), start=first)
    return const, pred


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_predicted_start_reaches_the_constant_start_fixed_point(direction):
    """Forward without a source; backward with one.  The grid system's
    eigen_system() is stepped, with the states mapped through V."""
    level, vecs = hcl_system(64).eigen_system()
    v_bar = vecs.conj()
    rng = np.random.default_rng(11)
    u0 = complex_block(rng, 1, 64)[0]
    u0 /= np.linalg.norm(u0)
    a, b = 0.05 * complex_block(rng, 2, 64)

    def source(s):
        return (a + np.multiply.outer(np.asarray(s) ** 2, b)) @ v_bar

    solver = StepSolver(level, RULE, 1e-6 / 1024)
    const, pred = two_steps(solver, u0 @ v_bar, direction * HCL_DT,
                            lambda s: 0.01 * np.cos(3.0 * s),
                            source if direction < 0 else None)
    assert np.linalg.norm(pred - const) <= 1e-10 * np.linalg.norm(const)
    assert solver.stalls == solver.bisections == 0


def test_predicted_start_on_a_krotov_update_step():
    system = build_level_system([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])

    def update_at(s):  # eps = Im<u|mu|partner>/alpha + guess, node by node
        partner = np.stack([np.full(np.shape(s), 0.1),
                            1.0 - 0.4j * np.asarray(s)], axis=-1)
        mu_partner = apply_mu(system, partner)
        return lambda u: 0.2 + np.einsum(
            "ij,ij->i", u.conj(), mu_partner).imag / 0.1

    solver = StepSolver(system, RULE, 1e-9 / 1024)
    const, pred = two_steps(solver, np.array([0.8, 0.6j]), 10.0 / 1024,
                            update_at)
    assert np.linalg.norm(pred - const) <= 1e-10 * np.linalg.norm(const)


def test_full_step_after_a_bisected_one_starts_from_the_merged_nodes():
    """With two iterates allowed, the constant start cannot solve the HCl
    step and bisects it; the next full step, started from the merged nodes
    of the bisected one, converges without a bisection.  The grid system's
    eigen_system() is stepped, with the states mapped through V; the grid
    system itself is not a StepSolver's."""
    system = hcl_system(64)
    with pytest.raises(ValueError):
        StepSolver(system, RULE, 1e-9)
    level, vecs = system.eigen_system()
    energies = level.energies
    w10 = float(energies[1] - energies[0])

    def field(s):
        return 0.01 * np.cos(w10 * HCL_DT * np.asarray(s))

    zeta_step = 1e-6 / 1024
    solver = StepSolver(level, RULE, zeta_step, max_picard=2)
    s = solver.s
    first = solver.solve(vecs[:, 0].astype(complex) @ vecs.conj(), 0.0,
                         HCL_DT, field, f_vals=field(s))
    bisections = solver.bisections
    assert bisections > 0
    second = solver.solve(first[-1], HCL_DT, HCL_DT, lambda q: field(1.0 + q),
                          f_vals=field(1.0 + s), start=first)
    assert solver.bisections == bisections
    ref = StepSolver(level, RULE, zeta_step).solve(
        first[-1], HCL_DT, HCL_DT, lambda q: field(1.0 + q),
        f_vals=field(1.0 + s))
    assert np.linalg.norm(second - ref) <= 1e-10 * np.linalg.norm(ref)


def hcl_runs(zeta=1e-6):
    """Forward from the ground state under 0.01 cos(w10 t) over the
    benchmark's 1,024 steps, then backward with the source -P_f psi."""
    system = hcl_system(64)
    energies, vecs, _ = system.eigen()
    grid = TimeGrid(2000.0, 1025)
    field = 0.01 * np.cos(float(energies[1] - energies[0]) * grid.nodes)
    config = dataclasses.replace(default_propagator_config(system, grid),
                                 zeta=zeta)
    forward = propagate_forward(system, field, vecs[:, 0], config, grid=grid)
    upper = vecs[:, 6:]
    source = HGSource(forward, None, None, upper @ upper.conj().T)
    backward = propagate_backward(system, field, source,
                                  np.zeros(64, dtype=complex), config,
                                  grid=grid)
    return forward, backward


def test_bisected_step_merges_its_halves_in_the_interaction_picture():
    # a constant field 0.5 on the diagonal coupling diag(1, -1) leaves the
    # step's truncation estimate at 3e-12, above the stop of 1e-13, and its
    # halves' at 1e-14: one bisection.  The state is e^{-i(E - 0.5 m) tau}
    # psi0 exactly, which the merged nodes keep although psi turns 15 rad
    # over each half
    energies, m = np.array([30.0, 31.0]), np.array([1.0, -1.0])
    system = build_level_system(energies, np.diag(m))
    u0 = np.array([0.6, 0.8j])
    for dt in (1.0, -1.0):
        solver = StepSolver(system, RULE, 1e-13)
        nodes = solver.solve(u0, 0.0, dt, lambda t: np.full(np.shape(t), 0.5))
        assert solver.bisections == solver.unresolved == 1
        exact = np.exp(-1j * dt * np.multiply.outer(RULE.s,
                                                    energies - 0.5 * m)) * u0
        assert np.abs(nodes - exact).max() < 1e-12


def test_predicted_start_takes_about_one_iterate_per_hcl_step():
    forward, backward = hcl_runs()
    for traj in (forward, backward):
        assert traj.stats.steps == 1024
        assert traj.stats.stalls == traj.stats.bisections == 0
    assert forward.stats.iterates <= 1.5 * forward.stats.steps
    tight, _ = hcl_runs(zeta=1e-13)
    assert (np.linalg.norm(forward.final_state - tight.final_state)
            <= 1e-10 * np.linalg.norm(tight.final_state))


def test_costate_from_zero_takes_about_one_iterate_per_hcl_step():
    # the costate grows from zero under the weak -P_f psi source; its stop
    # is scaled by the forward state's norm, not by its own small one
    # (which took 2,048 iterates)
    _, backward = hcl_runs()
    assert np.abs(backward.boundary_states[-1]).max() == 0.0
    assert backward.stats.iterates <= 1.1 * backward.stats.steps
    # within 1e-10 of a tight run, against the unit norm of the state
    _, tight = hcl_runs(zeta=1e-13)
    assert np.linalg.norm(backward.boundary_states - tight.boundary_states,
                          axis=1).max() <= 1e-10


def test_predicted_start_reruns_are_bitwise_equal():
    first, again = hcl_runs(), hcl_runs()
    for a, b in zip(first, again):
        assert np.array_equal(a.boundary_states, b.boundary_states)
        assert np.array_equal(a.node_states, b.node_states)
        assert a.stats == b.stats


# The two iterate layouts.  A real coupling on more levels than nodes is
# iterated in node columns, a complex one in node rows.  The HCl eigen
# system turned by fixed diagonal phases D, mu' = D^dagger M D,
# O' = D^dagger O D, psi' = D^dagger psi, is the same physics with a
# complex Hermitian coupling, so its runs, turned back by D, must match the
# real system's.

PHASES = np.exp(0.7j * np.arange(64))


def hcl_eigen_level(n_grid):
    return hcl_system(n_grid).eigen_system()[0]


def phase_turned(level, d):
    """The level system in the basis turned by the diagonal phases d."""
    return build_level_system(level.energies,
                              d.conj()[:, None] * level.mu * d,
                              d.conj()[:, None] * level.target * d)


def layout_pair(n_grid):
    real = hcl_eigen_level(n_grid)
    d = PHASES[:n_grid]
    turned = phase_turned(real, d)
    assert StepSolver(real, RULE, 1e-9)._cols
    assert not StepSolver(turned, RULE, 1e-9)._cols
    return real, turned, d


def bench_form_guess(energies, grid):
    """A line at omega_10 and a weak one just above it, shaped by the
    penalty filter, as the benchmark's HCl guess (fixed phases)."""
    w10 = float(energies[1] - energies[0])
    fgrid = grid.frequency_grid()
    f_eps = make_filter(FilterSpec.hat_sech(w10, 4.0e9, amplitude=1e3),
                        fgrid).values
    t = grid.nodes
    g = 0.01 * (np.cos(w10 * t + 0.3) + 0.1 * np.cos(1.02 * w10 * t + 1.1))
    return Spectrum(fgrid, dct1(RealSignal(grid, g)).values
                    * f_eps / f_eps.max())


def assert_same_run(a, b, d):
    assert a.stats.iterates == b.stats.iterates
    assert a.stats.bisections == b.stats.bisections
    assert np.abs(b.node_states * d - a.node_states).max() <= 1e-12
    assert np.abs(b.boundary_states * d - a.boundary_states).max() <= 1e-12


def layout_forward_runs():
    real, turned, d = layout_pair(64)
    grid = TimeGrid(2000.0, 1025)
    field = bench_form_guess(real.energies, grid)
    config = PropagatorConfig(128, RULE, 1e-6)  # the benchmark's last lattice
    psi0 = np.eye(64, dtype=complex)[0]
    return (real, turned, d, field, config,
            propagate_forward(real, field, psi0, config),
            propagate_forward(turned, field, d.conj() * psi0, config))


def test_layouts_agree_forward():
    *_, d, _, _, a, b = layout_forward_runs()
    assert_same_run(a, b, d)


def test_layouts_agree_backward_with_the_hg_source():
    real, turned, d, field, config, a, b = layout_forward_runs()
    w10 = float(real.energies[1] - real.energies[0])
    fgrid = field.grid
    f_o = make_filter(FilterSpec.gaussian(2.0 * w10,
                                          1.0 / (3.0 * fgrid.dw) ** 2), fgrid)
    allowed = (np.arange(64) <= 5).astype(float)
    o_a = allowed[:, None] * real.target * allowed
    p_f = 1.0 - allowed

    def costate(system, forward, o):
        source = HGSource(forward, hg_source_signal(forward, o, f_o), o, p_f)
        return propagate_backward(system, field, source,
                                  0.1 * forward.final_state, config)

    assert_same_run(costate(real, a, o_a),
                    costate(turned, b, d.conj()[:, None] * o_a * d), d)


def test_solver_tables_are_shared_per_node_set_and_layout():
    """Solvers on two rule objects of the same nodes share one read-only
    truncation row, extrapolation basis and pair of merge bases; a
    column-layout solver (the 64-point HCl eigen system) holds its own,
    the row layout's transposed."""
    level = build_level_system([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]])
    rows = StepSolver(level, chebyshev_rule(9), 1e-9)
    again = StepSolver(level, chebyshev_rule(9), 1e-9)
    cols = StepSolver(hcl_eigen_level(64), chebyshev_rule(9), 1e-9)
    assert not rows._cols and cols._cols

    def tables(solver):
        return (solver._top, solver._extrap, *solver._halves)

    for mine, other, theirs in zip(tables(rows), tables(again), tables(cols)):
        assert other is mine
        assert theirs is not mine and np.array_equal(theirs, mine.T)
        for table in (mine, theirs):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0


@pytest.mark.parametrize("steps, iterates", [(64, 338), (128, 341)])
def test_hg_costate_with_changing_norm_matches_tight_run(steps, iterates):
    # an HG costate from chi(T) = psi(T), whose norm the source moves from 1
    # to 1.0008, on the searched lattices of the benchmark's HCl guess (the
    # 64-step one bisects 56 steps): the stop scaled by each solve's start
    # norm holds it within 1e-10 of a tight run in no more iterates than
    # the step-end norm took (the counts given)
    real, _, _, field, _, _, _ = layout_forward_runs()
    w10 = float(real.energies[1] - real.energies[0])
    f_o = make_filter(FilterSpec.gaussian(
        2.0 * w10, 1.0 / (3.0 * field.grid.dw) ** 2), field.grid)
    allowed = (np.arange(64) <= 5).astype(float)
    o_a = allowed[:, None] * real.target * allowed
    config = PropagatorConfig(steps, RULE, 1e-6)
    forward = propagate_forward(real, field, np.eye(64, dtype=complex)[0],
                                config)
    source = HGSource(forward, hg_source_signal(forward, o_a, f_o), o_a,
                      1.0 - allowed)
    loose, tight = (propagate_backward(
        real, field, source, forward.final_state,
        dataclasses.replace(config, zeta=zeta)) for zeta in (1e-6, 1e-13))
    assert loose.norms.max() - loose.norms.min() > 5e-4
    assert loose.stats.iterates <= iterates
    assert np.linalg.norm(loose.boundary_states - tight.boundary_states,
                          axis=1).max() <= 1e-10


def test_grid_krotov_is_monotone_and_agrees_in_either_layout():
    """Three Krotov iterations on the 32-point HCl eigen system, ground
    state to the first excited state, without a restriction."""
    real, turned, d = layout_pair(32)
    grid = TimeGrid(1000.0, 513)
    target = np.diag(np.eye(32)[1])
    guess = 0.01 * np.cos(float(real.energies[1] - real.energies[0])
                          * grid.nodes)
    functional = FunctionalConfig("time", "final", alpha=0.1)
    config = PropagatorConfig(128, RULE, 1e-7)
    psi0 = np.eye(32, dtype=complex)[0]

    def krotov(system, psi):
        system = build_level_system(system.energies, system.mu, target)
        return optimize_krotov(Problem(system, grid, functional, psi, guess,
                                       config), OptimizerConfig(budget=3))

    a, b = krotov(real, psi0), krotov(turned, d.conj() * psi0)
    j_a = np.array([row.breakdown.j for row in a.rows])
    j_b = np.array([row.breakdown.j for row in b.rows])
    assert len(j_a) == 4 and np.all(np.diff(j_a) > 0)
    assert j_a[-1] > 10.0 * j_a[0]
    assert np.abs(j_b - j_a).max() <= 1e-10
    assert a.propagations == b.propagations
    assert_same_run(a.trajectory, b.trajectory, d)
