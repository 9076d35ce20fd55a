"""Objective terms, Euler-Lagrange field maps, and analytic gradients.

Both optimization formulations live here: the time form with a penalty
weight alpha (constant or sampled) and the frequency form with a strictly
positive penalty filter whose reciprocal acts as alpha(omega).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .spectral import (
    FilterSpec, RealSignal, Spectrum, endpoint_factors, dct1, idct1,
    integrate_freq, integrate_time, make_filter,
)
from .system import (
    StateRestriction, _require_hermitian, apply_mu, apply_operator,
    commutator_H0_O, dense_target, diagonalize, projectors,
)
from .dynamics import _grid_expectation, _sample_interp, state_map

# keys of the node expectations a forward run records (observables=)
OBS_FORBIDDEN = "forbidden"  # <P_f^gamma>, recorded by the optimizers


class ControlField:
    """Drive field with synchronized time and frequency views.

    One representation is native; the other is produced through the scaled
    cosine transform on first use and cached.  Instances are treated as
    immutable: updates go through with_time_values / with_spectrum_values.
    """

    def __init__(self, grid, time_values=None, spectrum_values=None):
        if (time_values is None) == (spectrum_values is None):
            raise ValueError("give exactly one of time_values/spectrum_values")
        self.grid = grid
        if time_values is not None:
            v = np.asarray(time_values, dtype=float)
            if v.shape != (grid.n_t,):
                raise ValueError("time samples do not match the grid")
            self.native = "time"
            self._time, self._spec = v, None
        else:
            v = np.asarray(spectrum_values, dtype=float)
            if v.shape != (grid.n_t,):
                raise ValueError("spectrum samples do not match the grid")
            self.native = "frequency"
            self._time, self._spec = None, v

    @classmethod
    def from_time(cls, grid, values):
        return cls(grid, time_values=values)

    @classmethod
    def from_spectrum(cls, grid, values):
        return cls(grid, spectrum_values=values)

    def time_values(self):
        if self._time is None:
            self._time = idct1(self.spectrum()).values
        return self._time

    def spectrum(self):
        if self._spec is None:
            self._spec = dct1(self.signal()).values
        return Spectrum(self.grid.frequency_grid(), self._spec)

    def signal(self):
        return RealSignal(self.grid, self.time_values())

    def with_time_values(self, values):
        return ControlField(self.grid, time_values=values)

    def with_spectrum_values(self, values):
        return ControlField(self.grid, spectrum_values=values)

    def blended_with(self, other, k):
        """k*self + (1-k)*other, mixed in this field's native representation."""
        if self.native == "frequency":
            mine = self.spectrum().values
            theirs = other.spectrum().values if isinstance(other, ControlField) \
                else dct1(RealSignal(self.grid, np.asarray(other, float))).values
            return self.with_spectrum_values(k * mine + (1.0 - k) * theirs)
        mine = self.time_values()
        theirs = other.time_values() if isinstance(other, ControlField) \
            else np.asarray(other, dtype=float)
        return self.with_time_values(k * mine + (1.0 - k) * theirs)


@dataclass(frozen=True)
class FunctionalConfig:
    """What is being maximized and how deviations are penalized.

    formulation: 'time' (penalty weight alpha) or 'frequency' (penalty
    filter f_eps, alpha(omega) = 1/f_eps).  target: 'final' (<O> at T),
    'spectral' (filtered emission spectrum), or 'td' (weighted expectation
    of a time-dependent operator).
    """

    formulation: str
    target: str
    alpha: object = None
    f_eps: FilterSpec = None
    f_o: FilterSpec = None
    restriction: StateRestriction = None
    kappa: float = 0.0
    weight: RealSignal = None
    op_of_t: object = None

    def __post_init__(self):
        if self.formulation not in ("time", "frequency"):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.target not in ("final", "spectral", "td"):
            raise ValueError(f"unknown target kind {self.target!r}")
        if self.formulation == "time":
            if self.f_eps is not None:
                raise ValueError("the time formulation cannot carry a "
                                 "penalty filter; use alpha")
            if self.alpha is None:
                raise ValueError("the time formulation needs alpha")
            a = np.asarray(self.alpha, dtype=float)
            if not (a > 0).all():
                raise ValueError("alpha must be positive")
        else:
            if self.f_eps is None:
                raise ValueError("the frequency formulation needs f_eps")
        if self.target == "spectral" and self.f_o is None:
            raise ValueError("the spectral target needs f_o")
        if self.target == "td" and self.weight is None:
            raise ValueError("the time-dependent target needs a weight")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")


@dataclass(frozen=True)
class FunctionalBreakdown:
    """Value of the maximization functional and its components.

    j equals j_max + j_bound + j_forb + j_penal; the constraint term is
    zero for consistent trajectories and reported only as a residual.
    """

    j: float
    j_max: float
    j_bound: float
    j_forb: float
    j_penal: float
    j_con_residual: float = 0.0


def _node_expect(traj, op, obs_key=None):
    if obs_key is not None and obs_key in traj.observations:
        return traj.observations[obs_key]
    return traj.node_expectation(state_map(op))


def j_max_final(psi_T, op):
    """<psi(T)|O|psi(T)> for a Hermitian target operator."""
    op = _require_hermitian(op, "operator", diagonal=True)
    psi_T = np.asarray(psi_T, dtype=complex)
    return float(np.vdot(psi_T, apply_operator(op, psi_T)).real)


def j_max_spectral(traj, o_a, f_o):
    """Half the filter-weighted power of the transformed <O_a>(t)."""
    if (f_o.values < 0).any():
        raise ValueError("spectral target filter must be nonnegative")
    sig = RealSignal(traj.grid, _grid_expectation(traj, state_map(o_a)))
    bar = dct1(sig)
    power = Spectrum(bar.grid, bar.values * bar.values)
    return 0.5 * integrate_freq(power, f_o)


def j_max_td(traj, weight, op_of_t):
    """Integral of w(t) <O(t)>(t) over the run, by per-step quadrature."""
    rule = traj.rule
    h = traj.dt_step
    s = traj.s_nodes
    if callable(op_of_t):
        vals = np.empty((traj.n_steps, rule.n_c))
        for k in range(traj.n_steps):
            nodes = traj.step_nodes(k)
            for j in range(rule.n_c):
                o = np.asarray(op_of_t((k + s[j]) * h))
                vals[k, j] = np.vdot(nodes[j], o @ nodes[j]).real
    else:
        vals = _node_expect(
            traj, _require_hermitian(op_of_t, "operator", diagonal=True))
    times = (np.arange(traj.n_steps)[:, None] + s[None, :]) * h
    wvals = _sample_interp(weight.values, weight.grid, times)
    return integrate_time(wvals * vals, rule, h)


def j_penal_time(field, alpha, grid=None):
    """-sum_i (dt/h_i) alpha_i eps_i^2 (trapezoid over the time samples)."""
    if isinstance(field, ControlField):
        values, grid = field.time_values(), field.grid
    elif isinstance(field, RealSignal):
        values, grid = field.values, field.grid
    else:
        values = np.asarray(field, dtype=float)
        if grid is None:
            raise ValueError("sample arrays need an explicit grid")
    a = np.asarray(alpha, dtype=float)
    if not (a > 0).all():
        raise ValueError("alpha must be positive")
    w = grid.dt / endpoint_factors(grid.n_t)
    return -float(np.sum(w * a * values * values))


def j_penal_freq(spectrum, f_eps):
    """-integral of spectrum^2 / f_eps over the filter support.

    Bins where the filter vanishes must carry exactly zero amplitude.
    """
    if isinstance(spectrum, ControlField):
        spectrum = spectrum.spectrum()
    if spectrum.grid != f_eps.grid:
        raise ValueError("spectrum and filter grids differ")
    sup = f_eps.values > 0
    if np.any(spectrum.values[~sup] != 0.0):
        raise ValueError("field has amplitude where the penalty filter "
                         "vanishes")
    h = endpoint_factors(spectrum.grid.n_t)
    v = spectrum.values[sup]
    total = np.sum(v * v / (f_eps.values[sup] * h[sup]))
    return -float(spectrum.grid.dw * total)


def j_forb(traj, p_f):
    """-integral of <P_f^gamma>(t) by the per-step quadrature."""
    if p_f is None:
        return 0.0
    vals = _node_expect(traj, p_f, OBS_FORBIDDEN)
    return -integrate_time(vals, traj.rule, traj.dt_step)


def j_bound(psi_T, kappa, system, comm=None):
    """-(kappa/2) [d<O>/dt at T]^2 with d<O>/dt = i<[H0,O]>."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if kappa == 0:
        return 0.0
    if comm is None:
        comm = commutator_H0_O(system)
    psi_T = np.asarray(psi_T, dtype=complex)
    deriv = (1j * np.vdot(psi_T, comm @ psi_T)).real
    return -0.5 * kappa * deriv * deriv


def alpha_from_filter(f_eps):
    """alpha(omega) = 1/f_eps on the support, +inf where the filter is 0."""
    out = np.full(f_eps.values.shape, np.inf)
    sup = f_eps.values > 0
    with np.errstate(over="ignore"):
        # a filter tail below ~5e-309 overflows to inf, which is exactly
        # the excluded-bin meaning
        out[sup] = 1.0 / f_eps.values[sup]
    return out


def cross_mu_signal(system, psi_traj, chi_traj):
    """Im <chi(t)|mu|psi(t)> on the TimeGrid."""
    psi = psi_traj.grid_states()
    chi = chi_traj.grid_states()
    return np.imag(np.einsum("ij,ij->i", chi.conj(), apply_mu(system, psi)))


def cross_mu_nodes(system, psi_traj, chi_traj):
    """Im <chi|mu|psi> at every internal node, shape (n_steps, n_c)."""
    if psi_traj.n_steps != chi_traj.n_steps:
        raise ValueError("trajectories are not aligned")
    if psi_traj.node_states is not None and chi_traj.node_states is not None:
        mp = apply_mu(system, psi_traj.node_states.reshape(-1, psi_traj.dim))
        flat = np.einsum("ij,ij->i", chi_traj.node_states.reshape(-1, chi_traj.dim).conj(), mp)
        return flat.imag.reshape(psi_traj.n_steps, psi_traj.rule.n_c)
    out = np.empty((psi_traj.n_steps, psi_traj.rule.n_c))
    for k in range(psi_traj.n_steps):
        mp = apply_mu(system, psi_traj.step_nodes(k))
        out[k] = np.einsum("ij,ij->i", chi_traj.step_nodes(k).conj(), mp).imag
    return out


def node_cosine_transform(node_values, traj, bins=None):
    """sqrt(2/pi) * integral of g(t) cos(omega_j t) dt by the step rule.

    This is the propagation-grade counterpart of dct1: it integrates the
    internal-node samples with the per-step quadrature, so gradients built
    from it are the exact adjoints of the discrete propagation.  The nodes
    sit at h(k + s_i) with h = T/n_steps, so the sum over steps k is one FFT
    of length 2 n_steps per node i, read at the bins and rotated by the
    node's phase exp(-i pi j s_i/n_steps).
    """
    fgrid = traj.grid.frequency_grid()
    n = traj.n_steps
    g = np.asarray(node_values, dtype=float).reshape(n, traj.rule.n_c)
    wg = (traj.dt_step * traj.rule.w) * g
    spec = scipy.fft.fft(wg, n=2 * n, axis=0)
    idx = np.arange(fgrid.n_t) if bins is None else np.asarray(bins)
    phase = np.exp((-1j * math.pi / n) * np.multiply.outer(idx, traj.s_nodes))
    vals = np.einsum("ji,ji->j", phase, spec[idx]).real
    vals *= math.sqrt(2.0 / math.pi)
    if bins is None:
        return Spectrum(fgrid, vals)
    out = np.zeros(fgrid.n_t)
    out[bins] = vals
    return Spectrum(fgrid, out)


def _cross_transform(system, psi_traj, chi_traj, bins=None):
    nodes = cross_mu_nodes(system, psi_traj, chi_traj)
    return node_cosine_transform(nodes, psi_traj, bins)


def field_from_el_time(system, psi_traj, chi_traj, alpha):
    """eps(t) = -Im<chi|mu|psi>(t)/alpha on the TimeGrid.

    The cross signal is taken in its band-limited form (transform by the
    step rule, then back), which is what the discrete functional is
    stationary against; at grid resolution the two agree to O(dt^2).
    """
    a = np.asarray(alpha, dtype=float)
    if not (a > 0).all():
        raise ValueError("alpha must be positive")
    cross = idct1(_cross_transform(system, psi_traj, chi_traj)).values
    return ControlField.from_time(psi_traj.grid, -cross / a)


def field_from_el_freq(system, psi_traj, chi_traj, f_eps):
    """eps-bar(omega) = f_eps(omega) * transform of -Im<chi|mu|psi>."""
    if f_eps.grid != psi_traj.grid.frequency_grid():
        raise ValueError("penalty filter grid mismatch")
    sup = np.flatnonzero(f_eps.values > 0)
    bar = _cross_transform(system, psi_traj, chi_traj, bins=sup)
    return ControlField.from_spectrum(psi_traj.grid, -f_eps.values * bar.values)


def gradient_time(system, field, psi_traj, chi_traj, alpha):
    """-2 [alpha eps(t) + Im<chi|mu|psi>(t)] on the TimeGrid (band-limited
    cross signal, the exact discrete adjoint)."""
    values = field.time_values() if isinstance(field, ControlField) \
        else np.asarray(field, dtype=float)
    cross = idct1(_cross_transform(system, psi_traj, chi_traj)).values
    return RealSignal(psi_traj.grid, -2.0 * (np.asarray(alpha) * values + cross))


def gradient_freq(system, field, psi_traj, chi_traj, alpha_omega):
    """-2 {alpha(omega) eps-bar + transform of Im<chi|mu|psi>} on the
    support bins; excluded bins come back as exact zeros."""
    spec = field.spectrum() if isinstance(field, ControlField) else field
    a = np.asarray(alpha_omega, dtype=float)
    sup = np.flatnonzero(np.isfinite(a))
    bar = _cross_transform(system, psi_traj, chi_traj, bins=sup)
    out = np.zeros(spec.grid.n_t)
    out[sup] = -2.0 * (a[sup] * spec.values[sup] + bar.values[sup])
    return Spectrum(spec.grid, out)


def build_beta_kernel(alpha_omega, grid):
    """Two-time penalty kernel beta(t,t') = (2/pi) integral of
    alpha(omega) cos(omega t) cos(omega t') by the grid quadrature."""
    a = np.asarray(alpha_omega, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("alpha(omega) diverges on some bins; the kernel "
                         "form cannot express complete filtration")
    fgrid = grid.frequency_grid()
    h = endpoint_factors(grid.n_t)
    cos = np.cos(np.multiply.outer(grid.nodes, fgrid.nodes))
    return (2.0 / math.pi) * (cos * (fgrid.dw * a / h)) @ cos.T


@dataclass
class EvalContext:
    """Prepared operators and sampled filters for repeated evaluation."""

    system: object
    grid: object
    config: FunctionalConfig
    o_full: object
    o_a: object
    p_f: object
    f_o: Spectrum
    f_eps: Spectrum
    alpha_omega: np.ndarray
    comm: np.ndarray

    @property
    def observables(self):
        """Operators recorded at internal nodes during forward runs."""
        return {} if self.p_f is None else {OBS_FORBIDDEN: self.p_f}


def prepare_context(system, grid, config):
    """Resolve the config against a system: projected operators, sampled
    filters, and the commutator needed for the boundary term."""
    o_full = system.target
    if config.restriction is not None:
        basis = diagonalize(system)
        p_a, p_f = projectors(basis, config.restriction)
        if system.eigen()[1] is None:  # H0 diagonal: P_f^gamma is too
            p_f = np.diag(p_f).real
        o_a = p_a @ dense_target(system) @ p_a
        o_a = 0.5 * (o_a + o_a.conj().T)
        p_f = 0.5 * (p_f + p_f.conj().T)
    else:
        o_a, p_f = o_full, None
    fgrid = grid.frequency_grid()
    f_o = make_filter(config.f_o, fgrid) if config.f_o is not None else None
    f_eps = make_filter(config.f_eps, fgrid) if config.f_eps is not None else None
    alpha_omega = alpha_from_filter(f_eps) if f_eps is not None else None
    comm = commutator_H0_O(system) if config.kappa > 0 else None
    return EvalContext(system, grid, config, o_full, o_a, p_f, f_o, f_eps,
                       alpha_omega, comm)


def _constraint_residual(ctx, traj, chi_traj, s_signal):
    boundary = (np.vdot(chi_traj.final_state, traj.final_state)
                - np.vdot(chi_traj.initial_state, traj.initial_state))
    integral = 0.0
    cfg = ctx.config
    if cfg.target == "spectral" and s_signal is not None:
        h = traj.dt_step
        svals = s_signal.on_lattice(traj.n_steps, traj.s_nodes)
        oa = _node_expect(traj, ctx.o_a)
        inner = svals * oa
        if ctx.p_f is not None:
            inner = inner - _node_expect(traj, ctx.p_f, OBS_FORBIDDEN)
        integral = integrate_time(inner, traj.rule, h)
    elif cfg.target == "td":
        integral = j_max_td(traj, cfg.weight, cfg.op_of_t)
    return -2.0 * float(boundary.real + integral)


def evaluate(ctx, traj, field, chi_traj=None, s_signal=None):
    """FunctionalBreakdown of the current trajectory and field."""
    cfg = ctx.config
    if cfg.target == "final":
        jm = j_max_final(traj.final_state, ctx.o_full)
    elif cfg.target == "spectral":
        jm = j_max_spectral(traj, ctx.o_a, ctx.f_o)
    else:
        jm = j_max_td(traj, cfg.weight, cfg.op_of_t)
    jb = j_bound(traj.final_state, cfg.kappa, ctx.system, ctx.comm)
    jf = j_forb(traj, ctx.p_f)
    if cfg.formulation == "time":
        jp = j_penal_time(field, cfg.alpha, ctx.grid)
    else:
        jp = j_penal_freq(field, ctx.f_eps)
    res = 0.0
    if chi_traj is not None:
        res = _constraint_residual(ctx, traj, chi_traj, s_signal)
    return FunctionalBreakdown(jm + jb + jf + jp, jm, jb, jf, jp, res)


def j_total(traj, field, config, system, chi_traj=None, s_signal=None):
    """One-shot evaluation; prefer prepare_context + evaluate in loops."""
    ctx = prepare_context(system, traj.grid, config)
    return evaluate(ctx, traj, field, chi_traj, s_signal)
