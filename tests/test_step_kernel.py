"""The per-iterate step kernel: GridSystem.h_apply against its dense H0,
StepSolver.picard against the unfolded fixed-point loop, the eigenbasis
step against the same step cut into sub-steps, and the start predicted
from the previous step against the constant start."""

import dataclasses
import math

import numpy as np
import pytest

from specdrive.spectral import TimeGrid, chebyshev_rule
from specdrive.system import (
    apply_mu, build_grid_system, build_level_system, choose_x_domain,
    dense_h0, diagonalize, hcl_dipole, morse_potential,
)
from specdrive.dynamics import (
    HGSource, StepSolver, default_propagator_config, propagate_backward,
    propagate_forward,
)

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
    system = hcl_system(64)
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
    solver = StepSolver(system, RULE, zeta_step)
    src = None if source is None else source(solver.s)
    got = solver.picard(u0, field(solver.s), src, dt)
    assert got is not None
    ref = substepped_end(system, u0, field, source, dt, 16)
    assert np.linalg.norm(got[-1] - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.abs(got[0] - u0).max() <= 1e-14
    eigen_its = iterates(system, u0, field(solver.s), src, dt, zeta_step)
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


def test_unresolved_step_is_bisected_before_picard(monkeypatch):
    system = build_level_system([1.0, 4.0], [[0.0, 1.0], [1.0, 0.0]])
    seen = []
    picard = StepSolver.picard

    def recording(self, u0, f_vals, src, dt):
        seen.append(dt)
        return picard(self, u0, f_vals, src, dt)

    monkeypatch.setattr(StepSolver, "picard", recording)
    solver = StepSolver(system, RULE, 1e-12)
    assert solver.spread == 3.0
    u0 = np.array([1.0, 0.0], dtype=complex)

    def f_eval(t):
        return 0.1 * np.cos(np.asarray(t))

    solver.solve(u0, 0.0, 0.2, f_eval)  # spread * dt = 0.6: one solve
    assert seen == [0.2]
    seen.clear()
    nodes = solver.solve(u0, 0.0, -0.4, f_eval)  # 1.2: one halving
    assert seen == [-0.2, -0.2]
    assert nodes.shape == (RULE.n_c, 2)
    assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() < 1e-10


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
    """Forward without a source; backward with one."""
    system = hcl_system(64)
    rng = np.random.default_rng(11)
    u0 = complex_block(rng, 1, 64)[0]
    u0 /= np.linalg.norm(u0)
    a, b = 0.05 * complex_block(rng, 2, 64)

    def source(s):
        return a + np.multiply.outer(np.asarray(s) ** 2, b)

    solver = StepSolver(system, RULE, 1e-6 / 1024)
    const, pred = two_steps(solver, u0, direction * HCL_DT,
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
    of the bisected one, converges without a bisection."""
    system = hcl_system(64)
    energies, vecs, _ = system.eigen()
    w10 = float(energies[1] - energies[0])

    def field(s):
        return 0.01 * np.cos(w10 * HCL_DT * np.asarray(s))

    def f_eval(t):
        return field(np.asarray(t) / HCL_DT)

    zeta_step = 1e-6 / 1024
    solver = StepSolver(system, RULE, zeta_step, max_picard=2)
    s = solver.s
    first = solver.solve(vecs[:, 0].astype(complex), 0.0, HCL_DT, f_eval,
                         f_vals=field(s))
    bisections = solver.bisections
    assert bisections > 0
    second = solver.solve(first[-1], HCL_DT, HCL_DT, f_eval,
                          f_vals=field(1.0 + s), start=first)
    assert solver.bisections == bisections
    ref = StepSolver(system, RULE, zeta_step).solve(
        first[-1], HCL_DT, HCL_DT, f_eval, f_vals=field(1.0 + s))
    assert np.linalg.norm(second - ref) <= 1e-10 * np.linalg.norm(ref)


def hcl_runs(zeta=1e-6, store_nodes=None):
    """Forward from the ground state under 0.01 cos(w10 t) over the
    benchmark's 1,024 steps, then backward with the source -P_f psi."""
    system = hcl_system(64)
    energies, vecs, _ = system.eigen()
    grid = TimeGrid(2000.0, 1025)
    field = 0.01 * np.cos(float(energies[1] - energies[0]) * grid.nodes)
    config = dataclasses.replace(default_propagator_config(system, grid),
                                 zeta=zeta, store_nodes=store_nodes)
    forward = propagate_forward(system, field, vecs[:, 0], config, grid=grid)
    upper = vecs[:, 6:]
    source = HGSource(forward, None, None, upper @ upper.conj().T)
    backward = propagate_backward(system, field, source,
                                  np.zeros(64, dtype=complex), config,
                                  grid=grid)
    return forward, backward


def test_predicted_start_takes_about_one_iterate_per_hcl_step():
    forward, backward = hcl_runs()
    for traj in (forward, backward):
        assert traj.stats.steps == 1024
        assert traj.stats.stalls == traj.stats.bisections == 0
    assert forward.stats.iterates <= 1.5 * forward.stats.steps
    tight, _ = hcl_runs(zeta=1e-13)
    assert (np.linalg.norm(forward.final_state - tight.final_state)
            <= 1e-10 * np.linalg.norm(tight.final_state))


def test_predicted_start_reruns_are_bitwise_equal():
    first, again = hcl_runs(), hcl_runs()
    for a, b in zip(first, again):
        assert np.array_equal(a.boundary_states, b.boundary_states)
        assert np.array_equal(a.node_states, b.node_states)
        assert a.stats == b.stats


def test_regenerated_nodes_match_the_stored_ones():
    """step_nodes re-solves from the constant start where the run started
    from the previous step: both meet the per-step tolerance."""
    stored, regen = hcl_runs(store_nodes=True), hcl_runs(store_nodes=False)
    for kept, slim in zip(stored, regen):
        assert slim.node_states is None
        for k in (0, 1, 511, 1023):
            ref = kept.step_nodes(k)
            assert (np.linalg.norm(slim.step_nodes(k) - ref)
                    <= 1e-10 * np.linalg.norm(ref))


def test_observables_recorded_after_the_run_match_per_step_recording():
    """<P_f> over the stored nodes, recorded in one pass, equals the
    step-by-step record of a run that keeps no nodes, bit for bit: P_f is
    diagonal in the eigen representation the optimizers run in."""
    level, vecs = hcl_system(64).eigen_system()
    grid = TimeGrid(2000.0, 1025)
    field = 0.01 * np.cos(float(level.energies[1] - level.energies[0])
                          * grid.nodes)
    p_f = np.zeros(64)
    p_f[6:] = 1.0
    config = default_propagator_config(level, grid)
    runs = [propagate_forward(
        level, field, np.eye(64)[0],
        dataclasses.replace(config, store_nodes=store),
        grid=grid, observables={"forbidden": p_f}) for store in (True, False)]
    assert runs[0].node_states is not None and runs[1].node_states is None
    assert np.array_equal(runs[0].observations["forbidden"],
                          runs[1].observations["forbidden"])
    assert runs[0].observations["forbidden"].shape == (1024, RULE.n_c)
