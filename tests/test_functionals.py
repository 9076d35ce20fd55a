import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdrive.spectral import (
    FilterSpec, RealSignal, Spectrum, TimeGrid, dct1, endpoint_factors,
    make_filter,
)
from specdrive.system import (
    StateRestriction, build_level_system, projectors, diagonalize,
)
from specdrive.dynamics import (
    HGSource, default_propagator_config, hg_source_signal, propagate_backward,
    propagate_forward, terminal_chi,
)
from specdrive.functionals import (
    OBS_FORBIDDEN, ControlField, FunctionalBreakdown,
    FunctionalConfig, alpha_from_filter, build_beta_kernel, cross_mu_signal,
    evaluate, field_from_el_freq, field_from_el_time, gradient_freq,
    gradient_time, j_bound, j_forb, j_max_final, j_max_spectral, j_max_td,
    j_penal_freq, j_penal_time, j_total, prepare_context,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def tls(e0=1.0, e1=4.0, target=None):
    return build_level_system([e0, e1], SX, target=target)


# ---------------------------------------------------------------- fields


def test_control_field_views_stay_synchronized():
    grid = TimeGrid(10.0, 33)
    rng = np.random.default_rng(7)
    eps = rng.standard_normal(33)

    f = ControlField.from_time(grid, eps)
    assert f.native == "time"
    back = dct1(RealSignal(grid, f.time_values())).values
    assert np.abs(f.spectrum().values - back).max() < 1e-12

    bar = rng.standard_normal(33)
    g = ControlField.from_spectrum(grid, bar)
    assert g.native == "frequency"
    again = dct1(RealSignal(grid, g.time_values())).values
    assert np.abs(again - bar).max() < 1e-12


def test_control_field_constructor_validation():
    grid = TimeGrid(10.0, 33)
    with pytest.raises(ValueError):
        ControlField(grid)
    with pytest.raises(ValueError):
        ControlField(grid, time_values=np.zeros(33), spectrum_values=np.zeros(33))
    with pytest.raises(ValueError):
        ControlField.from_time(grid, np.zeros(32))
    with pytest.raises(ValueError):
        ControlField.from_spectrum(grid, np.zeros(34))


def test_control_field_blend_native_representation():
    grid = TimeGrid(10.0, 17)
    rng = np.random.default_rng(3)

    a = ControlField.from_time(grid, rng.standard_normal(17))
    b = ControlField.from_time(grid, rng.standard_normal(17))
    mix = a.blended_with(b, 0.25)
    assert mix.native == "time"
    want = 0.25 * a.time_values() + 0.75 * b.time_values()
    assert np.array_equal(mix.time_values(), want)

    # frequency-native blending must preserve exact support zeros
    sa = np.zeros(17)
    sb = np.zeros(17)
    sa[3:6] = rng.standard_normal(3)
    sb[3:6] = rng.standard_normal(3)
    fa = ControlField.from_spectrum(grid, sa)
    fb = ControlField.from_spectrum(grid, sb)
    mixed = fa.blended_with(fb, 0.6)
    assert mixed.native == "frequency"
    vals = mixed.spectrum().values
    assert np.array_equal(vals[:3], np.zeros(3))
    assert np.array_equal(vals[6:], np.zeros(11))
    assert np.allclose(vals[3:6], 0.6 * sa[3:6] + 0.4 * sb[3:6])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_control_field_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    grid = TimeGrid(float(rng.uniform(1.0, 40.0)), n)
    bar = rng.standard_normal(n)
    f = ControlField.from_spectrum(grid, bar)
    redo = dct1(f.signal()).values
    assert np.abs(redo - bar).max() < 1e-11 * max(1.0, np.abs(bar).max())


# ---------------------------------------------------------------- config


def test_functional_config_validation():
    rect = FilterSpec.rectangular(0.5, 1.5)
    FunctionalConfig("time", "final", alpha=0.1)
    FunctionalConfig("frequency", "spectral", f_eps=rect, f_o=rect)

    with pytest.raises(ValueError):
        FunctionalConfig("time", "final", alpha=0.1, f_eps=rect)
    with pytest.raises(ValueError):
        FunctionalConfig("time", "final")
    with pytest.raises(ValueError):
        FunctionalConfig("time", "final", alpha=0.0)
    with pytest.raises(ValueError):
        FunctionalConfig("time", "final", alpha=np.array([0.1, -0.1, 0.1]))
    with pytest.raises(ValueError):
        FunctionalConfig("frequency", "final")
    with pytest.raises(ValueError):
        FunctionalConfig("frequency", "spectral", f_eps=rect)
    with pytest.raises(ValueError):
        FunctionalConfig("time", "td", alpha=0.1)
    with pytest.raises(ValueError):
        FunctionalConfig("time", "final", alpha=0.1, kappa=-1.0)
    with pytest.raises(ValueError):
        FunctionalConfig("mixed", "final", alpha=0.1)
    with pytest.raises(ValueError):
        FunctionalConfig("time", "spooky", alpha=0.1)


# ---------------------------------------------------------------- terms


def test_j_max_final():
    psi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert j_max_final(psi, np.diag([1.0, 4.0])) == pytest.approx(2.5, abs=1e-14)
    assert j_max_final(psi, np.array([1.0, 4.0])) == pytest.approx(2.5, abs=1e-14)
    flat = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert j_max_final(flat, SX) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        j_max_final(psi, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        j_max_final(psi, np.array([1.0 + 0.5j, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_operators_are_rejected(bad):
    psi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="finite"):
        j_max_final(psi, np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        j_max_final(psi, np.array([bad, 1.0]))
    system = tls()
    grid = TimeGrid(4.0, 9)
    traj = propagate_forward(system, 0.0, np.array([1.0, 0.0], dtype=complex),
                             default_propagator_config(system, grid),
                             grid=grid)
    weight = RealSignal(grid, np.full(9, 0.25))
    with pytest.raises(ValueError, match="finite"):
        j_max_td(traj, weight, np.array([[0.0, bad], [bad, 0.0]]))


def test_j_max_spectral_pure_cosine():
    # <sigma_x>(t) = cos(omega t) for a superposition under zero field, so a
    # rectangular filter of amplitude A around the Bohr bin gives A*T/4
    T, n_t, k = 10.0, 33, 7
    omega = k * math.pi / T
    system = tls(0.0, omega)
    grid = TimeGrid(T, n_t)
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cfg = default_propagator_config(system, grid, tau=1e-5)
    traj = propagate_forward(system, 0.0, psi0, cfg, grid=grid)

    amp = 0.7
    filt = make_filter(FilterSpec.rectangular(omega - 0.1, omega + 0.1, amp),
                       grid.frequency_grid())
    val = j_max_spectral(traj, SX, filt)
    assert val == pytest.approx(amp * T / 4.0, rel=1e-6)

    # scaling the filter scales the value linearly
    filt2 = make_filter(FilterSpec.rectangular(omega - 0.1, omega + 0.1, 2 * amp),
                        grid.frequency_grid())
    assert j_max_spectral(traj, SX, filt2) == pytest.approx(2 * val, rel=1e-14)

    bad = Spectrum(grid.frequency_grid(), -np.ones(n_t))
    with pytest.raises(ValueError):
        j_max_spectral(traj, SX, bad)


def test_j_penal_time():
    grid = TimeGrid(10.0, 33)
    const = ControlField.from_time(grid, np.full(33, 0.5))
    # trapezoid weights sum to T exactly
    assert j_penal_time(const, 0.3) == pytest.approx(-0.3 * 0.25 * 10.0, rel=1e-14)

    rng = np.random.default_rng(11)
    eps = rng.standard_normal(33)
    alpha = 0.2 + 0.05 * grid.nodes
    h = endpoint_factors(33)
    want = -np.sum(grid.dt / h * alpha * eps**2)
    assert j_penal_time(RealSignal(grid, eps), alpha) == pytest.approx(want, rel=1e-14)
    assert j_penal_time(eps, alpha, grid) == pytest.approx(want, rel=1e-14)
    assert j_penal_time(eps, alpha, grid) <= 0.0

    with pytest.raises(ValueError):
        j_penal_time(eps, -0.1, grid)
    with pytest.raises(ValueError):
        j_penal_time(eps, alpha)


def test_j_penal_freq():
    grid = TimeGrid(10.0, 33)
    fgrid = grid.frequency_grid()
    filt = make_filter(FilterSpec.rectangular(0.5, 1.5, 4.0), fgrid)

    j = 3  # interior support bin
    assert filt.values[j] == 4.0
    bar = np.zeros(33)
    bar[j] = 2.0
    got = j_penal_freq(Spectrum(fgrid, bar), filt)
    assert got == pytest.approx(-4.0 * fgrid.dw / 4.0, rel=1e-14)

    # endpoint bin of the grid carries the half trapezoid weight
    full = make_filter(FilterSpec.rectangular(-1.0, 100.0, 2.0), fgrid)
    edge = np.zeros(33)
    edge[0] = 3.0
    got = j_penal_freq(Spectrum(fgrid, edge), full)
    assert got == pytest.approx(-9.0 * fgrid.dw / (2.0 * 2.0), rel=1e-14)

    stray = np.zeros(33)
    stray[20] = 1e-15  # outside the filter band
    with pytest.raises(ValueError):
        j_penal_freq(Spectrum(fgrid, stray), filt)

    other = TimeGrid(9.0, 33).frequency_grid()
    with pytest.raises(ValueError):
        j_penal_freq(Spectrum(other, np.zeros(33)), filt)


def test_j_forb_stationary_forbidden_state():
    # a state parked in forbidden level n accrues -gamma_n * T
    system = build_level_system([1.0, 2.0, 3.0],
                                np.array([[0.0, 1.0, 0.0],
                                          [1.0, 0.0, 1.0],
                                          [0.0, 1.0, 0.0]]))
    T = 6.0
    grid = TimeGrid(T, 17)
    restriction = StateRestriction(1, [1.0])  # gamma_2 = (2-1)^2
    _, p_f = projectors(diagonalize(system), restriction)
    cfg = default_propagator_config(system, grid, tau=1e-4)
    psi0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    traj = propagate_forward(system, 0.0, psi0, cfg, grid=grid)
    assert j_forb(traj, p_f) == pytest.approx(-1.0 * T, rel=1e-8)
    assert j_forb(traj, None) == 0.0


def test_j_forb_prefers_recorded_observations():
    system = tls()
    grid = TimeGrid(4.0, 9)
    cfg = default_propagator_config(system, grid)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    p_f = np.diag([0.0, 5.0])
    traj = propagate_forward(system, 0.0, psi0, cfg, grid=grid,
                             observables={OBS_FORBIDDEN: p_f})
    # overwrite the recording with a sentinel; j_forb must integrate it
    sentinel = np.full_like(traj.observations[OBS_FORBIDDEN], 2.0)
    traj.observations[OBS_FORBIDDEN] = sentinel
    assert j_forb(traj, p_f) == pytest.approx(-2.0 * 4.0, rel=1e-12)


def test_j_bound():
    system = tls()  # target defaults to mu, which commutes with itself
    psi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    # [H0, sigma_x] = [[0,-3],[3,0]] so the derivative is 3 for this state
    assert j_bound(psi, 2.0, system) == pytest.approx(-9.0, abs=1e-12)
    assert j_bound(psi, 0.0, system) == 0.0
    with pytest.raises(ValueError):
        j_bound(psi, -1.0, system)
    # kappa = 0 never touches the commutator, so incompatible targets pass
    odd = tls(1.0, 4.0, target=np.diag([1.0, 4.0]))
    assert j_bound(psi, 0.0, odd) == 0.0


# ------------------------------------------------- EL maps and gradients


def run_final_target(system, grid, field, op, alpha, tau=1e-7):
    cfg = default_propagator_config(system, grid, tau=tau)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_forward(system, field, psi0, cfg, grid=grid)
    j = j_max_final(traj.final_state, op) + j_penal_time(field, alpha, grid)
    return traj, j


def backward_final(system, grid, field, traj, op, tau=1e-7):
    cfg = default_propagator_config(system, grid, tau=tau)
    chi_T = np.asarray(op, dtype=complex) @ traj.final_state
    return propagate_backward(system, field, None, chi_T, cfg, grid=grid)


def test_gradient_time_matches_finite_differences():
    system = tls()
    grid = TimeGrid(10.0, 33)
    op = np.diag([0.0, 1.0])
    alpha = 0.5
    eps = 0.3 * np.sin(math.pi * grid.nodes / grid.T) + 0.1
    field = ControlField.from_time(grid, eps)

    traj, _ = run_final_target(system, grid, field, op, alpha)
    chi = backward_final(system, grid, field, traj, op)
    grad = gradient_time(system, field, traj, chi, alpha).values

    h = endpoint_factors(33)
    delta = 3e-4
    for i in (0, 1, 16, 31, 32):
        bumped = eps.copy()
        bumped[i] += delta
        _, jp = run_final_target(system, grid, ControlField.from_time(grid, bumped),
                                 op, alpha)
        bumped[i] -= 2 * delta
        _, jm = run_final_target(system, grid, ControlField.from_time(grid, bumped),
                                 op, alpha)
        fd = (jp - jm) / (2 * delta) * h[i] / grid.dt
        assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-6)


def run_final_freq(system, grid, field, op, f_eps, tau=1e-7):
    cfg = default_propagator_config(system, grid, tau=tau)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_forward(system, field, psi0, cfg, grid=grid)
    j = j_max_final(traj.final_state, op) + j_penal_freq(field.spectrum(), f_eps)
    return traj, j


def test_gradient_freq_matches_finite_differences():
    # same final-time problem as the time-form oracle, frequency penalty
    T, n_t = 10.0, 33
    system = tls()
    grid = TimeGrid(T, n_t)
    fgrid = grid.frequency_grid()
    op = np.diag([0.0, 1.0])
    f_eps = make_filter(FilterSpec.rectangular(0.5, 1.5, 10.0), fgrid)
    sup = np.flatnonzero(f_eps.values > 0)
    assert sup.size == 3

    bar = np.zeros(n_t)
    bar[sup] = 1.0
    field = ControlField.from_spectrum(grid, bar)

    traj, _ = run_final_freq(system, grid, field, op, f_eps)
    chi = backward_final(system, grid, field, traj, op)

    alpha = alpha_from_filter(f_eps)
    grad = gradient_freq(system, field, traj, chi, alpha).values
    assert np.array_equal(grad[f_eps.values == 0],
                          np.zeros(n_t - sup.size))

    h = endpoint_factors(n_t)
    delta = 3e-4
    for j in sup:
        bumped = bar.copy()
        bumped[j] += delta
        _, jp = run_final_freq(system, grid,
                               ControlField.from_spectrum(grid, bumped),
                               op, f_eps)
        bumped[j] -= 2 * delta
        _, jm = run_final_freq(system, grid,
                               ControlField.from_spectrum(grid, bumped),
                               op, f_eps)
        fd = (jp - jm) / (2 * delta) * h[j] / fgrid.dw
        assert fd == pytest.approx(grad[j], rel=1e-4, abs=1e-6)


def test_el_field_time_zeroes_gradient():
    system = tls()
    grid = TimeGrid(10.0, 33)
    op = np.diag([0.0, 1.0])
    field = ControlField.from_time(grid, 0.2 * np.cos(grid.nodes))
    traj, _ = run_final_target(system, grid, field, op, 0.5)
    chi = backward_final(system, grid, field, traj, op)

    el = field_from_el_time(system, traj, chi, 0.5)
    cross = cross_mu_signal(system, traj, chi)
    # band-limited cross tracks the pointwise samples at grid resolution;
    # the cosine basis has zero slope at the edges, so the boundary samples
    # carry the truncation error and the gap shrinks as the grid refines
    scale = np.abs(cross).max()
    diff = np.abs(el.time_values() + cross / 0.5)
    assert diff[1:-1].max() < 0.05 * scale / 0.5
    assert diff.max() < 0.25 * scale / 0.5
    # by construction the gradient at the EL field (same trajectories) is 0
    g = gradient_time(system, el, traj, chi, 0.5).values
    assert np.abs(g).max() == 0.0
    with pytest.raises(ValueError):
        field_from_el_time(system, traj, chi, 0.0)
    with pytest.raises(ValueError):
        field_from_el_time(system, traj, chi, -0.5)


def test_el_field_freq_support_and_gradient():
    T, n_t = 10.0, 33
    system = tls()
    grid = TimeGrid(T, n_t)
    fgrid = grid.frequency_grid()
    f_o = make_filter(FilterSpec.rectangular(2.8, 3.3, 1.0), fgrid)
    f_eps = make_filter(FilterSpec.rectangular(0.5, 1.5, 10.0), fgrid)

    bar = np.zeros(n_t)
    bar[2:5] = 0.8
    field = ControlField.from_spectrum(grid, bar)
    cfg = default_propagator_config(system, grid, tau=1e-6)
    traj = propagate_forward(system, field, np.array([1.0, 0.0], dtype=complex),
                             cfg, grid=grid)
    source = hg_source_signal(traj, SX, f_o)
    chi = propagate_backward(system, field, HGSource(traj, source, SX),
                             np.zeros(2, dtype=complex), cfg, grid=grid)

    el = field_from_el_freq(system, traj, chi, f_eps)
    assert el.native == "frequency"
    vals = el.spectrum().values
    outside = f_eps.values == 0
    assert np.array_equal(vals[outside], np.zeros(outside.sum()))
    # step-rule transform sits near the grid-sample transform; the gap is
    # discretization error and shrinks as the grid refines
    cross = cross_mu_signal(system, traj, chi)
    rough = f_eps.values * dct1(RealSignal(grid, -cross)).values
    sup = ~outside
    assert np.abs(vals[sup] - rough[sup]).max() < 0.12 * np.abs(rough[sup]).max()

    g = gradient_freq(system, el, traj, chi, alpha_from_filter(f_eps)).values
    scale = max(np.abs(vals).max(), 1e-30)
    assert np.abs(g).max() < 1e-12 * scale

    short = make_filter(FilterSpec.rectangular(0.5, 1.5, 1.0),
                        TimeGrid(9.0, 33).frequency_grid())
    with pytest.raises(ValueError):
        field_from_el_freq(system, traj, chi, short)


# ------------------------------------------------------- penalty kernel


def test_beta_kernel_duality_and_symmetry():
    grid = TimeGrid(10.0, 33)
    fgrid = grid.frequency_grid()
    f_eps = make_filter(FilterSpec.gaussian(1.0, 5.0, 4.0), fgrid)
    assert (f_eps.values > 0).all()
    alpha = alpha_from_filter(f_eps)

    beta = build_beta_kernel(alpha, grid)
    assert beta.shape == (33, 33)
    assert np.allclose(beta, beta.T, atol=1e-12 * np.abs(beta).max())

    rng = np.random.default_rng(5)
    eps = rng.standard_normal(33)
    w = grid.dt / endpoint_factors(33)
    lhs = -float(np.einsum("i,ij,j->", w * eps, beta, w * eps))
    rhs = j_penal_freq(dct1(RealSignal(grid, eps)), f_eps)
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)

    with pytest.raises(ValueError):
        build_beta_kernel(alpha_from_filter(
            make_filter(FilterSpec.rectangular(0.5, 1.5), fgrid)), grid)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_beta_kernel_duality_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 65))
    grid = TimeGrid(float(rng.uniform(2.0, 30.0)), n)
    alpha = rng.uniform(0.2, 5.0, n)
    beta = build_beta_kernel(alpha, grid)
    eps = rng.standard_normal(n)
    w = grid.dt / endpoint_factors(n)
    lhs = -float(np.einsum("i,ij,j->", w * eps, beta, w * eps))
    f_eps = Spectrum(grid.frequency_grid(), 1.0 / alpha)
    rhs = j_penal_freq(dct1(RealSignal(grid, eps)), f_eps)
    assert abs(lhs - rhs) < 1e-6 * max(abs(rhs), 1e-12)


# --------------------------------------------------------- full evaluate


def test_prepare_context_with_restriction():
    mu = np.zeros((5, 5))
    for i in range(4):
        mu[i, i + 1] = mu[i + 1, i] = 1.0
    system = build_level_system([1.0, 2.0, 3.0, 4.0, 5.0], mu)
    grid = TimeGrid(8.0, 17)
    config = FunctionalConfig(
        "frequency", "spectral",
        f_eps=FilterSpec.rectangular(0.3, 1.2),
        f_o=FilterSpec.rectangular(1.8, 2.4),
        restriction=StateRestriction(2, [1.0, 2.0]),  # gamma_n = n - 2
    )
    ctx = prepare_context(system, grid, config)
    o_a = np.asarray(ctx.o_a)
    assert np.allclose(o_a[:3, :3], mu[:3, :3])
    assert np.abs(o_a[3:, :]).max() == 0.0
    assert np.abs(ctx.p_f - ctx.p_f.conj().T).max() == 0.0
    assert set(ctx.observables) == {OBS_FORBIDDEN}

    plain = prepare_context(system, grid,
                            FunctionalConfig("time", "final", alpha=0.1))
    assert plain.p_f is None
    assert plain.observables == {}


def test_evaluate_final_target_and_residual():
    grid = TimeGrid(10.0, 65)
    op = np.diag([0.0, 1.0])
    sysf = build_level_system([1.0, 4.0], SX, target=op)
    config = FunctionalConfig("time", "final", alpha=0.5)
    field = ControlField.from_time(grid, 0.3 * np.sin(math.pi * grid.nodes / 10.0))

    cfg = default_propagator_config(sysf, grid, tau=1e-5)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_forward(sysf, field, psi0, cfg, grid=grid)
    chi = propagate_backward(sysf, field, None, op @ traj.final_state, cfg,
                             grid=grid)

    out = j_total(traj, field, config, sysf, chi_traj=chi)
    assert isinstance(out, FunctionalBreakdown)
    assert out.j == out.j_max + out.j_bound + out.j_forb + out.j_penal
    assert out.j_max == pytest.approx(j_max_final(traj.final_state, op), abs=0)
    assert out.j_penal == pytest.approx(j_penal_time(field, 0.5), abs=0)
    assert out.j_bound == 0.0 and out.j_forb == 0.0
    assert abs(out.j_con_residual) < 1e-6 * max(abs(out.j), 1.0)


def test_evaluate_spectral_target_and_residual():
    T, n_t = 10.0, 65
    system = build_level_system([1.0, 4.0], SX, target=SX)
    grid = TimeGrid(T, n_t)
    config = FunctionalConfig(
        "frequency", "spectral",
        f_eps=FilterSpec.rectangular(0.5, 1.5, 10.0),
        f_o=FilterSpec.rectangular(2.8, 3.3, 1.0),
    )
    ctx = prepare_context(system, grid, config)

    bar = np.zeros(n_t)
    bar[ctx.f_eps.values > 0] = 1.0
    field = ControlField.from_spectrum(grid, bar)

    cfg = default_propagator_config(system, grid, tau=1e-5)
    traj = propagate_forward(system, field, np.array([1.0, 0.0], dtype=complex),
                             cfg, grid=grid, observables=ctx.observables)
    source = hg_source_signal(traj, ctx.o_a, ctx.f_o)
    chi = propagate_backward(system, field,
                             HGSource(traj, source, ctx.o_a),
                             np.zeros(2, dtype=complex), cfg, grid=grid)

    out = evaluate(ctx, traj, field, chi_traj=chi, s_signal=source)
    assert out.j == out.j_max + out.j_bound + out.j_forb + out.j_penal
    assert out.j_max == pytest.approx(j_max_spectral(traj, ctx.o_a, ctx.f_o), abs=0)
    assert out.j_penal == pytest.approx(j_penal_freq(field.spectrum(), ctx.f_eps),
                                        abs=0)
    assert abs(out.j_con_residual) < 1e-6 * max(abs(out.j), 1.0)


def test_terminal_chi_feeds_bound_term():
    # kappa > 0: chi(T) from the boundary term matches j_bound's derivative
    system = tls()
    psi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    chi_T = terminal_chi(2.0, system, psi)
    # j_bound = -kappa/2 d^2 and chi stores kappa*d*[H0,O]psi contributions
    assert j_bound(psi, 2.0, system) == pytest.approx(-9.0, abs=1e-12)
    assert np.linalg.norm(chi_T) > 0
