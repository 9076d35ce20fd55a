"""Slow, direct reference implementations that only the tests use.

Each one computes by the plain definition what the package computes by a
faster route: a dense midpoint-exponential propagator, the direct cosine
sum of a spectrum, a field's value at any time, a one-shot functional
evaluation, the grid Hamiltonian applied to one state, an expectation
signal, the time-dependent-target source with its weight check, the cross
signal Im<chi|mu|psi> on the grid, and the states and backward sources
between a trajectory's nodes, read without the factors a trajectory keeps
per fraction set.
"""

import math
import numbers
import warnings
from collections import namedtuple

import numpy as np
import scipy.integrate
import scipy.linalg

from specdrive.dynamics import TDTargetSource, _lagrange, state_map
from specdrive.functionals import evaluate, prepare_context
from specdrive.spectral import RealSignal, Spectrum, endpoint_factors
from specdrive.system import apply_mu, apply_operator, dense_h0, dense_mu


def expm_stepper(system, field, psi0, grid, substeps=64):
    """Dense midpoint-exponential propagator, a slow cross-check for small
    systems (dim <= 16)."""
    if system.dim > 16:
        raise ValueError("dense cross-check is limited to dim <= 16")
    h0 = dense_h0(system)
    mu = dense_mu(system)
    dt = grid.dt / substeps
    u = np.asarray(psi0, dtype=complex).copy()
    for i in range(grid.n_t - 1):
        for j in range(substeps):
            tm = i * grid.dt + (j + 0.5) * dt
            ham = h0 - float(field_at(field, tm)) * mu
            u = scipy.linalg.expm(-1j * dt * ham) @ u
    return u


def eval_cosine_series(spectrum, t):
    """Evaluate the truncated cosine series at arbitrary t in [0, T].

    Uses the same 1/h_j bin weights as the inverse transform, so at grid
    times it reproduces idct1 samples.  Accepts scalar or array t.
    """
    grid = spectrum.grid
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if (t_arr < -1e-12 * grid.T).any() or (t_arr > (1 + 1e-12) * grid.T).any():
        raise ValueError("evaluation time outside [0, T]")
    coef = spectrum.values / endpoint_factors(grid.n_t)
    phases = np.cos(np.multiply.outer(t_arr, grid.nodes))
    out = (math.sqrt(2.0 * math.pi) / grid.T) * (phases @ coef)
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def six_point(signal, t):
    """Lagrange interpolation of a RealSignal's samples at the times t by
    the product formula, through the six samples around each time (the
    first or last six near an end), the window the propagator reads a
    sampled field with."""
    grid, t = signal.grid, np.asarray(t, dtype=float)
    flat = t.ravel()
    base = np.clip(np.floor(flat / grid.dt).astype(int) - 2, 0, grid.n_t - 6)
    out = np.zeros(flat.size)
    for i, (x, b) in enumerate(zip(flat, base)):
        xs = (b + np.arange(6)) * grid.dt
        for j in range(6):
            others = np.delete(xs, j)
            out[i] += signal.values[b + j] * np.prod(
                (x - others) / (xs[j] - others))
    return out.reshape(t.shape)


def field_at(field, t):
    """A field's value at the times t: None or a constant as it is, a
    RealSignal by six_point, a Spectrum or a two-view field by its direct
    cosine sum."""
    if field is None or isinstance(field, numbers.Number):
        return np.full(np.shape(t), 0.0 if field is None else float(field))
    if isinstance(field, RealSignal):
        return six_point(field, t)
    spectrum = field if isinstance(field, Spectrum) else field.spectrum()
    return eval_cosine_series(spectrum, t)


def j_total(traj, field, config, system, chi_traj=None, s_signal=None):
    """One-shot evaluation; prefer prepare_context + evaluate in loops."""
    ctx = prepare_context(system, traj.grid, config)
    return evaluate(ctx, traj, field, chi_traj, s_signal)


def apply_grid_hamiltonian(system, state, field_value):
    """(P^2/2m + V - eps*mu) applied to one state vector."""
    state = np.asarray(state)
    if state.shape[-1] != system.n_grid:
        raise ValueError("state length does not match the grid")
    return system.h_apply(np.atleast_2d(state), float(field_value))[0] \
        if state.ndim == 1 else system.h_apply(state, field_value)


ExpectationSignal = namedtuple("ExpectationSignal", "signal nodes")


def expectation_signal(traj, op):
    """Re<psi|O|psi> on the TimeGrid plus all internal nodes."""
    states = traj.grid_states()
    grid_vals = np.einsum("ij,ij->i", states.conj(),
                          apply_operator(np.asarray(op), states)).real
    node_vals = traj.node_expectation(state_map(op))
    return ExpectationSignal(RealSignal(traj.grid, grid_vals), node_vals)


def td_target_source(w, op_of_t, traj):
    """Build the time-dependent-target source; warns unless int w dt = 1."""
    total = scipy.integrate.trapezoid(w.values, dx=w.grid.dt)
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"weight function integrates to {total:.6g}, not 1",
                      stacklevel=2)
    return TDTargetSource(w, op_of_t, traj)


def cross_mu_signal(system, psi_traj, chi_traj):
    """Im <chi(t)|mu|psi(t)> on the TimeGrid."""
    psi = psi_traj.grid_states()
    chi = chi_traj.grid_states()
    return np.imag(np.einsum("ij,ij->i", chi.conj(), apply_mu(system, psi)))


def node_poly(s, values, q, h=0.0, energies=None):
    """Each step's node polynomial read at fractions q, its Lagrange matrix
    and phases built at every call: values holds the node values of steps
    of length h, (..., n_c, d), and the result is (..., len(q), d).  Given
    the energies, values are eigen-coefficients of states, read in the
    interaction picture c(tau) = e^{iE tau} psi(tau)."""
    lagrange = _lagrange(s, q)
    if energies is None:
        return np.matmul(lagrange, values)
    turn = np.exp(1j * h * np.multiply.outer(s, energies))
    back = np.exp(-1j * h * np.multiply.outer(q, energies))
    return np.matmul(lagrange, values * turn) * back


def between_nodes(traj, q, k):
    """States at the fractions q of step k of traj, (len(q), dim)."""
    nodes = traj.node_states[k]  # in the system basis
    energies, w = traj._energies, traj._basis  # the stepped H0 and its V
    if w is None:
        return node_poly(traj.s_nodes, nodes, q, traj.dt_step, energies)
    return node_poly(traj.s_nodes, nodes @ w.conj(), q, traj.dt_step,
                     energies) @ w.T


def hg_step_values(forward, filtered, o_a, p_f, k, s):
    """{s(t) O_a - P_f} psi(t) at the fractions s of forward step k, with
    s(t) the direct cosine sum of the filtered spectrum."""
    psi = between_nodes(forward, s, k)
    times = forward.dt_step * (k + np.asarray(s, dtype=float))
    out = apply_operator(np.asarray(o_a), psi) * eval_cosine_series(
        filtered, times)[:, None]
    if p_f is not None:
        out -= apply_operator(np.asarray(p_f), psi)
    return out


def td_step_values(forward, w, op, k, s):
    """w(t) O psi(t) at the fractions s of forward step k, for a constant
    O and w evaluated at the node times."""
    psi = between_nodes(forward, s, k)
    times = forward.dt_step * (k + np.asarray(s, dtype=float))
    return apply_operator(np.asarray(op), psi) * field_at(w, times)[:, None]
