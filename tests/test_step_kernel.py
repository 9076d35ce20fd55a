"""The per-iterate step kernel: GridSystem.h_apply against its dense H0,
and StepSolver.picard against the unfolded fixed-point loop."""

import math

import numpy as np
import pytest

from specdrive.spectral import chebyshev_rule
from specdrive.system import (
    apply_mu, build_grid_system, build_level_system, choose_x_domain,
    dense_h0, h0_norm_estimate, hcl_dipole, morse_potential,
)
from specdrive.dynamics import StepSolver

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
    dt = direction * 0.5 / h0_norm_estimate(system)
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
