import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from specdrive.spectral import (
    FilterSpec, RealSignal, Spectrum, TimeGrid, chebyshev_rule, dct1,
    idct1, make_filter,
)
from specdrive.system import (
    apply_operator, build_grid_system, build_level_system, dense_h0,
    dense_mu, harmonic_potential, linear_dipole,
)
from specdrive.dynamics import (
    HGSource, InstabilityError, PropagationError, PropagatorConfig,
    _block_expectation,
    default_propagator_config,
    hg_source_signal, propagate_backward, propagate_forward, state_map,
    terminal_chi,
)
from specdrive.functionals import ControlField
from oracles import (
    eval_cosine_series, expectation_signal, expm_stepper, td_target_source,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
RULE = chebyshev_rule(9)


def tls(e1=1.0, e2=2.0):
    return build_level_system([e1, e2], SX)


def cfg(steps, zeta=1e-10, **kw):
    return PropagatorConfig(steps=steps, rule=RULE, zeta=zeta, **kw)


def test_stationary_state():
    sys2 = tls(1.0, 4.0)
    grid = TimeGrid(8.0, 33)
    traj = propagate_forward(sys2, None, [0.0, 1.0], cfg(64), grid=grid)
    t = grid.nodes
    expect = np.outer(np.exp(-4j * t), [0.0, 1.0])
    assert np.abs(traj.grid_states() - expect).max() < 1e-9
    occ = np.abs(traj.grid_states()[:, 1]) ** 2
    assert np.abs(occ - 1.0).max() < 1e-10


def test_constant_field_matches_expm():
    sys2 = tls()
    grid = TimeGrid(5.0, 33)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_forward(sys2, 0.3, psi0, cfg(64), grid=grid)
    h = dense_h0(sys2) - 0.3 * dense_mu(sys2)
    exact = scipy.linalg.expm(-5j * h) @ psi0
    assert np.abs(traj.final_state - exact).max() < 1e-8


def test_smooth_field_matches_ode_oracle():
    sys2 = tls()
    grid = TimeGrid(5.0, 65)
    # exact band-limited field shared with the oracle via its cosine series
    fgrid = grid.frequency_grid()
    spec_values = np.zeros(65)
    spec_values[3] = 1.1
    spec_values[5] = -0.4
    field = Spectrum(fgrid, spec_values)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_forward(sys2, field, psi0, cfg(128))
    h0, mu = dense_h0(sys2), dense_mu(sys2)

    def rhs(t, y):
        return -1j * ((h0 - eval_cosine_series(field, t) * mu) @ y)

    sol = scipy.integrate.solve_ivp(rhs, (0.0, 5.0), psi0, method="DOP853",
                                    rtol=1e-12, atol=1e-14)
    assert np.abs(traj.final_state - sol.y[:, -1]).max() < 1e-8


def test_norm_and_energy_conservation():
    sys2 = tls()
    grid = TimeGrid(10.0, 65)
    zeta = 1e-8
    psi0 = np.array([0.6, 0.8], dtype=complex)
    field = RealSignal(grid, 0.5 * np.sin(2.0 * grid.nodes))
    traj = propagate_forward(sys2, field, psi0, cfg(128, zeta=zeta))
    assert np.abs(traj.norms - 1.0).max() < 10 * zeta
    free = propagate_forward(sys2, None, psi0, cfg(64, zeta=zeta), grid=grid)
    energy = expectation_signal(free, np.diag(sys2.energies)).signal.values
    assert np.abs(energy / energy[0] - 1.0).max() < 10 * zeta


def test_backward_stationary_and_reversibility():
    sys2 = tls(1.0, 4.0)
    grid = TimeGrid(6.0, 33)
    chi_T = np.array([0.0, 1.0], dtype=complex)
    back = propagate_backward(sys2, None, None, chi_T, cfg(64), grid=grid)
    t = grid.nodes
    expect = np.outer(np.exp(-4j * (t - 6.0)), [0.0, 1.0])
    assert np.abs(back.grid_states() - expect).max() < 1e-9
    # drive it forward again with the same field: recover chi(T)
    field = RealSignal(grid, 0.3 * np.cos(grid.nodes))
    back = propagate_backward(sys2, field, None, chi_T, cfg(64))
    again = propagate_forward(sys2, field, back.initial_state, cfg(64))
    assert np.abs(again.final_state - chi_T).max() < 1e-8


def test_backward_is_adjoint_of_forward():
    sys2 = tls()
    grid = TimeGrid(7.0, 65)
    field = RealSignal(grid, 0.4 * np.sin(1.3 * grid.nodes))
    psi = propagate_forward(sys2, field, [1.0, 0.0], cfg(128))
    chi_T = np.array([0.3 + 0.1j, 0.8 - 0.2j])
    chi = propagate_backward(sys2, field, None, chi_T, cfg(128))
    overlaps = np.einsum("ij,ij->i", chi.grid_states().conj(), psi.grid_states())
    assert np.abs(overlaps - overlaps[-1]).max() < 1e-8


class _AnalyticSource:
    """S(t) = g(t) * v for a fixed vector v."""

    def __init__(self, g, v, dt_step):
        self.g, self.v, self.dt = g, np.asarray(v, dtype=complex), dt_step

    def step_values(self, k, s):
        times = (k + np.asarray(s)) * self.dt
        return np.asarray(self.g(times))[:, None] * self.v


def test_inhomogeneous_vs_ode_oracle():
    # a two-level system, and an 8-point harmonic grid: its matrix H0 is
    # stepped in its eigenbasis, into which the source's reads are mapped
    rng = np.random.default_rng(3)
    grid_system = build_grid_system(-4.0, 4.0, 8, 1.0, harmonic_potential,
                                    linear_dipole)
    cases = [(tls(), np.array([0.2, -0.1j], dtype=complex),
              np.array([0.3 - 0.2j, 0.7 + 0.1j])),
             (grid_system, 0.1 * (rng.standard_normal(8)
                                  + 1j * rng.standard_normal(8)),
              0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8)))]
    grid = TimeGrid(4.0, 33)
    field = 0.25
    g = lambda t: np.cos(1.7 * t) + 0.3
    n_steps = 64
    for system, chi_T, v in cases:
        source = _AnalyticSource(g, v, grid.T / n_steps)
        back = propagate_backward(system, field, source, chi_T, cfg(n_steps),
                                  grid=grid)
        h = dense_h0(system) - field * dense_mu(system)

        def rhs(t, y):
            return -1j * (h @ y) - g(t) * v

        sol = scipy.integrate.solve_ivp(rhs, (4.0, 0.0), chi_T,
                                        method="DOP853", rtol=1e-12,
                                        atol=1e-14, t_eval=grid.nodes[::-1])
        oracle = sol.y[:, ::-1].T
        assert np.abs(back.grid_states() - oracle).max() < 1e-6


def test_expectation_signal():
    three = build_level_system([1.0, 1.9, 3.0],
                               np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
    grid = TimeGrid(10.0, 129)
    psi0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    traj = propagate_forward(three, None, psi0, cfg(128), grid=grid)
    es = expectation_signal(traj, three.mu)
    assert np.abs(es.signal.values - np.cos(2.0 * grid.nodes)).max() < 1e-8
    # stationary state: constant O_nn
    stat = propagate_forward(three, None, [0, 1.0, 0], cfg(128), grid=grid)
    vals = expectation_signal(stat, np.diag([0.2, 0.7, 0.9])).signal.values
    assert np.abs(vals - 0.7).max() < 1e-10
    # Hermitian operator: the raw quadratic form is real
    raw = np.einsum("ij,ij->i", traj.grid_states().conj(),
                    traj.grid_states() @ three.mu.T)
    assert np.abs(raw.imag).max() < 1e-12
    assert es.nodes.shape == (128, RULE.n_c)


def test_hg_source_signal():
    sys2 = tls(1.0, 1.0 + 7 * math.pi / 10.0)  # Bohr frequency on bin 7
    grid = TimeGrid(10.0, 65)
    fgrid = grid.frequency_grid()
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    traj = propagate_forward(sys2, None, psi0, cfg(64), grid=grid)
    w7 = 7 * math.pi / 10.0
    filt = make_filter(FilterSpec.rectangular(w7 - 0.05, w7 + 0.05, 2.5), fgrid)
    s = hg_source_signal(traj, SX, filt)
    assert np.abs(idct1(s).values - 2.5 * np.cos(w7 * grid.nodes)).max() < 1e-8
    t_off = np.array([0.123, 3.21, 9.87])
    assert np.abs(eval_cosine_series(s, t_off)
                  - 2.5 * np.cos(w7 * t_off)).max() < 1e-8
    # identity filter reproduces the signal; zero filter kills it
    ident = Spectrum(fgrid, np.ones(65))
    s_id = hg_source_signal(traj, SX, ident)
    sig = expectation_signal(traj, SX).signal.values
    assert np.abs(idct1(s_id).values - sig).max() < 1e-10
    zero = Spectrum(fgrid, np.zeros(65))
    assert np.abs(idct1(hg_source_signal(traj, SX, zero)).values).max() == 0.0
    with pytest.raises(ValueError):
        hg_source_signal(traj, SX, make_filter(
            FilterSpec.rectangular(0.0, 1.0), TimeGrid(9.0, 65).frequency_grid()))


def test_explicit_grid_must_match_the_fields_own():
    field = ControlField.from_time(TimeGrid(10.0, 65), np.full(65, 0.3))
    psi0 = np.array([1.0, 0.0])
    other = TimeGrid(20.0, 129)
    with pytest.raises(ValueError, match="grid="):
        propagate_forward(tls(), field, psi0, cfg(128), grid=other)
    with pytest.raises(ValueError, match="grid="):
        propagate_backward(tls(), field, None, psi0, cfg(128), grid=other)
    same = propagate_forward(tls(), field, psi0, cfg(64), grid=field.grid)
    assert same.grid == field.grid and same.n_steps == 64


def test_hg_source_without_signal():
    # a final target with forbidden states: the source is -P_f psi alone
    grid = TimeGrid(10.0, 33)
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    traj = propagate_forward(tls(), 0.3, psi0, cfg(32), grid=grid)
    p_f = np.diag([0.0, 2.0])
    src = HGSource(traj, None, SX, p_f)
    for k in (0, 17, 31):
        nodes = traj.step_nodes(k)
        assert np.array_equal(src.step_values(k), -(nodes @ p_f.T))
    half = src.step_values(5, np.array([0.25, 0.5]))
    assert half.shape == (2, 2)
    assert np.array_equal(half[:, 0], np.zeros(2))
    with pytest.raises(ValueError):
        HGSource(traj, None, SX)


def test_terminal_chi():
    sys2 = tls(1.0, 4.0)
    psi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert np.abs(terminal_chi(0.0, sys2, psi)).max() == 0.0
    chi = terminal_chi(1.0, sys2, psi)
    expect = np.array([-9.0, -9.0j]) / math.sqrt(2.0)
    assert np.abs(chi - expect).max() < 1e-12
    # diagonal target commutes with H0: zero for any kappa
    sysd = build_level_system([1.0, 4.0], np.diag([0.3, 0.9]),
                              target=np.diag([0.3, 0.9]))
    assert np.abs(terminal_chi(2.0, sysd, psi)).max() == 0.0
    # non-commuting dipole and target is rejected when kappa > 0
    sysx = build_level_system([1.0, 4.0], SX, target=np.diag([0.3, 0.9]))
    with pytest.raises(ValueError):
        terminal_chi(1.0, sysx, psi)
    assert np.abs(terminal_chi(0.0, sysx, psi)).max() == 0.0


def test_td_target_source():
    sys2 = tls()
    grid = TimeGrid(5.0, 33)
    field = RealSignal(grid, 0.2 * np.sin(grid.nodes))
    traj = propagate_forward(sys2, field, [1.0, 0.0], cfg(64))
    w = RealSignal(grid, np.full(33, 1.0 / 5.0))
    src = td_target_source(w, SX, traj)
    s = traj.s_nodes
    psi = traj.step_nodes(3)
    vals = src.step_values(3, s)
    assert np.abs(vals - (psi @ SX.T) / 5.0).max() < 1e-12
    # zero weight: zero source (and a normalization warning)
    with pytest.warns(UserWarning):
        zsrc = td_target_source(RealSignal(grid, np.zeros(33)), SX, traj)
    assert np.abs(zsrc.step_values(3, s)).max() == 0.0

    phi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    proj = np.outer(phi, phi.conj())
    psrc = td_target_source(w, lambda t: proj, traj)
    out = psrc.step_values(3, s)
    # projection output is parallel to phi
    overlap = out @ phi.conj()
    assert np.abs(out - overlap[:, None] * phi).max() < 1e-12


def test_td_weight_warning():
    sys2 = tls()
    grid = TimeGrid(5.0, 33)
    traj = propagate_forward(sys2, None, [1.0, 0.0], cfg(32), grid=grid)
    with pytest.warns(UserWarning):
        td_target_source(RealSignal(grid, np.full(33, 3.0)), SX, traj)


def test_step_halving_recovers_stiff_step():
    sys2 = tls(1.0, 60.0)
    grid = TimeGrid(2.0, 5)  # dt = 0.5, |H0| dt = 30: far past fixed-point range
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_forward(sys2, 0.1, psi0, cfg(4), grid=grid)
    h = dense_h0(sys2) - 0.1 * dense_mu(sys2)
    exact = scipy.linalg.expm(-2j * h) @ psi0
    assert np.abs(traj.final_state - exact).max() < 1e-7
    with pytest.raises(PropagationError):
        propagate_forward(sys2, 0.1, psi0, cfg(4, max_halvings=2), grid=grid)


class _GainMedium:
    """Non-Hermitian toy generator: H = 5i, so the norm grows like e^{5t}."""

    dim = 2

    def h_apply(self, states, field_values):
        return 5.0j * states


def test_instability_guard():
    grid = TimeGrid(4.0, 33)
    with pytest.raises(InstabilityError):
        propagate_forward(_GainMedium(), None, [1.0, 0.0], cfg(64, zeta=1e-6),
                          grid=grid)


class _BareTwoLevel:
    """tls()'s generator through h_apply alone: stepped with E = 0."""

    dim = 2

    def h_apply(self, states, field_values):
        return tls().h_apply(states, field_values)


def test_bare_system_trajectory_in_a_basis_reads_its_mapped_states():
    # a trajectory without energies, taken to a complex basis V, reads
    # between its nodes and on the grid as the original mapped by V, with
    # its nodes mapped (node_states read) or not
    grid = TimeGrid(1.0, 9)
    traj = propagate_forward(_BareTwoLevel(), 0.1, [1.0, 0.0], cfg(8),
                             grid=grid)
    vecs = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)
    q = np.array([0.3, 0.7])
    for read_nodes in (False, True):
        framed = traj.in_basis(vecs)
        if read_nodes:
            framed.node_states
        assert np.abs(framed.between_nodes(q, 3)
                      - traj.between_nodes(q, 3) @ vecs.T).max() < 1e-15
        assert np.abs(framed.grid_states()
                      - traj.grid_states() @ vecs.T).max() < 1e-15


def test_heisenberg_derivative_at_final_time():
    sys2 = tls(1.0, 4.0)
    grid = TimeGrid(3.0, 513)
    psi0 = np.array([0.8, 0.6j])
    traj = propagate_forward(sys2, 0.2, psi0, cfg(512), grid=grid)
    vals = expectation_signal(traj, SX).signal.values
    dt = grid.dt
    # one-sided 4-point difference at the last sample
    fd = (11 * vals[-1] - 18 * vals[-2] + 9 * vals[-3] - 2 * vals[-4]) / (6 * dt)
    comm = dense_h0(sys2) @ SX - SX @ dense_h0(sys2)
    psi_T = traj.final_state
    analytic = (1j * np.vdot(psi_T, comm @ psi_T)).real
    assert abs(fd - analytic) < 1e-4 * max(abs(analytic), 1.0)


def test_default_config_and_errors():
    sys2 = tls(1.0, 4.0)
    grid = TimeGrid(10.0, 11)  # dt = 1, |H0| = 4: needs m = 8
    conf = default_propagator_config(sys2, grid, tau=1e-3)
    assert conf.steps == 80
    assert conf.zeta == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        propagate_forward(sys2, None, [1, 0], cfg(63), grid=grid)
    with pytest.raises(ValueError):
        propagate_forward(sys2, None, [1, 0, 0], cfg(64), grid=grid)
    with pytest.raises(ValueError):
        propagate_forward(sys2, np.zeros(7), [1, 0], cfg(64), grid=grid)
    with pytest.raises(ValueError):
        PropagatorConfig(steps=0, rule=RULE, zeta=1e-6)
    with pytest.raises(ValueError):
        PropagatorConfig(steps=4, rule=RULE, zeta=0.0)
    with pytest.raises(ValueError):
        PropagatorConfig(steps=4, rule=RULE, zeta=1e-6, max_picard=0)
    with pytest.raises(ValueError):
        PropagatorConfig(steps=4, rule=RULE, zeta=1e-6, max_halvings=-1)


def test_default_config_is_the_floor_lattice():
    grid = TimeGrid(10.0, 1025)
    # one step per grid interval, however small the Bohr spread
    # (spread*dt = 0.0098 and 0.205, both within _PHASE_SPAN)
    assert default_propagator_config(tls(), grid).steps == 1024
    assert default_propagator_config(tls(1.0, 22.0), grid).steps == 1024
    assert default_propagator_config(tls(1.0, 1.001),
                                     TimeGrid(10.0, 41)).steps == 40
    # a near-degenerate spectrum bounds nothing; one step per interval
    # still resolves a field at ten times the Bohr frequency
    near = tls(1.0, 1.1)
    config = default_propagator_config(near, grid)
    field = 0.2 * np.cos(grid.nodes)
    floor = propagate_forward(near, field, [1.0, 0.0], config, grid=grid)
    one = propagate_forward(near, field, [1.0, 0.0], cfg(1024, 1e-12),
                            grid=grid)
    assert np.linalg.norm(floor.final_state - one.final_state) < 1e-8


def test_expm_stepper():
    sys2 = tls()
    grid = TimeGrid(3.0, 17)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    ref = propagate_forward(sys2, 0.3, psi0, cfg(32), grid=grid)
    alt = expm_stepper(sys2, 0.3, psi0, grid, substeps=8)
    assert np.abs(ref.final_state - alt).max() < 1e-8
    big = build_level_system(np.arange(1.0, 18.0), np.eye(17) * 0 + np.diag(np.ones(16), 1) + np.diag(np.ones(16), -1))
    with pytest.raises(ValueError):
        expm_stepper(big, 0.0, np.eye(17)[0], TimeGrid(1.0, 3))


def block_operator(rng, dim, keep, complex_entries=False):
    """A Hermitian matrix that is exactly zero outside the rows and columns
    keep, real-valued unless complex_entries."""
    op = np.zeros((dim, dim), dtype=complex)
    b = rng.standard_normal((len(keep), len(keep)))
    if complex_entries:
        b = b + 1j * rng.standard_normal(b.shape)
    op[np.ix_(keep, keep)] = b + b.conj().T
    return op


def state_block(rng, k, dim):
    return rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))


@pytest.mark.parametrize("keep", [
    [0, 1, 2, 3, 4, 5],    # the allowed block of O_a
    [2],                   # a single level, as a population target
    [1, 4, 5, 9],          # rows and columns that do not run contiguously
    [],                    # nothing at all
])
def test_state_map_applies_the_nonzero_block_only(keep):
    rng = np.random.default_rng(17)
    dim = 12
    for op in (block_operator(rng, dim, keep),
               block_operator(rng, dim, keep).real):
        for k in (2, 9, 64):
            states = state_block(rng, k, dim)
            assert np.array_equal(state_map(op)(states),
                                  apply_operator(op, states))
    # a single nonzero entry gives one product per output: exact
    target = np.zeros((6, 6))
    target[2, 2] = 1.0
    states = state_block(rng, 1, 6)
    assert np.array_equal(state_map(target)(states),
                          apply_operator(target, states))
    # complex entries: the block's sums may be ordered otherwise by BLAS
    op = block_operator(rng, dim, keep, complex_entries=True)
    states = state_block(rng, 9, dim)
    want = apply_operator(op, states)
    assert (np.abs(state_map(op)(states) - want).max()
            <= 1e-15 * max(1.0, np.abs(want).max()) * dim)


def test_real_diagonal_expectation_skips_the_operator_product(monkeypatch):
    rng = np.random.default_rng(23)
    states = state_block(rng, 40, 16)
    diag = np.r_[np.zeros(4), rng.uniform(0.5, 2.0, 12)]
    dense = np.real(np.einsum("ij,ij->i", states.conj(), states * diag))
    calls = []

    def counting(op, s):
        calls.append(op.dtype)
        return apply_operator(op, s)

    monkeypatch.setattr("specdrive.dynamics.apply_operator", counting)
    got = _block_expectation(states, state_map(diag))
    assert not calls
    assert np.abs(got - dense).max() <= 1e-15 * np.abs(dense).max()
    # a complex diagonal takes the general path, through the product
    cdiag = diag + 0.3j * rng.standard_normal(16)
    want = np.real(np.einsum("ij,ij->i", states.conj(), states * cdiag))
    got = _block_expectation(states, state_map(cdiag))
    assert calls == [np.dtype(complex)]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the matrix block path and a callable agree with the dense form
    op = block_operator(rng, 16, [3, 4, 5, 6])
    want = np.real(np.einsum("ij,ij->i", states.conj(), states @ op.T))
    for apply_op in (state_map(op), lambda s: s @ op.T):
        got = _block_expectation(states, apply_op)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    with pytest.raises(ValueError):
        _block_expectation(states[:, :8], state_map(diag))


def test_propagation_stats_report_worst_step_and_norm_drift():
    grid = TimeGrid(10.0, 129)
    config = cfg(128, zeta=1e-9)
    field = RealSignal(grid, 0.3 * np.cos(1.1 * grid.nodes))
    traj = propagate_forward(tls(), field, [1.0, 0.0], config)
    stats = traj.stats
    assert stats.norm_drift <= 1e3 * config.zeta
    assert stats.norm_drift == np.abs(traj.norms - traj.norms[0]).max()
    assert stats.max_iterates >= stats.iterates / stats.steps
    assert stats.max_iterates <= config.max_picard
    # a backward run measures the drift from its own start, chi(T)
    chi = propagate_backward(tls(), field, None, [0.0, 1.0], config)
    assert chi.stats.norm_drift == np.abs(chi.norms - chi.norms[-1]).max()


def test_td_source_lattice_matches_its_step_reads():
    grid = TimeGrid(5.0, 33)
    field = RealSignal(grid, 0.2 * np.sin(grid.nodes))
    traj = propagate_forward(tls(), field, [1.0, 0.0], cfg(64))
    w = RealSignal(grid, np.full(33, 1.0 / 5.0) * (1.0 + 0.1 * grid.nodes))
    with pytest.warns(UserWarning):
        sources = [td_target_source(w, SX, traj),
                   td_target_source(w, lambda t: math.cos(t) * SX, traj)]
    for src in sources:
        lattice = src.node_values()
        assert lattice.shape == traj.node_states.shape
        for k in (0, 40, 63):
            assert np.array_equal(src.step_values(k), lattice[k])
            assert np.abs(lattice[k]
                          - src.step_values(k, traj.s_nodes)).max() < 1e-13


def test_backward_run_rejects_a_source_on_another_lattice():
    grid = TimeGrid(10.0, 33)
    traj = propagate_forward(tls(), 0.3, [1.0, 0.0], cfg(64), grid=grid)
    src = HGSource(traj, None, SX, np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        propagate_backward(tls(), 0.3, src, [0.0, 1.0], cfg(32), grid=grid)
    chi = propagate_backward(tls(), 0.3, src, [0.0, 1.0], cfg(64), grid=grid)
    assert chi.stats.steps == 64
