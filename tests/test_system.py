import math

import numpy as np
import pytest

from specdrive.system import (
    build_level_system, build_grid_system,
    apply_mu, apply_target, dense_h0, dense_mu, dense_target, diagonalize,
    morse_potential, toda_potential, harmonic_potential, hcl_dipole,
    hcl_fictitious_dipole, toda_dipole, linear_dipole, choose_x_domain,
    projectors, bohr_frequencies, commutator_H0_O,
    StateRestriction,
)
from oracles import apply_grid_hamiltonian

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def hcl_system():
    return build_grid_system(-0.69407, 3.51178, 32, 1785.0,
                             morse_potential(0.171, 0.975), hcl_dipole)


def test_build_level_system_validation():
    sys2 = build_level_system([1.0, 4.0], SX)
    assert sys2.dim == 2
    assert np.all(sys2.target == SX)
    with pytest.raises(ValueError):
        build_level_system([4.0, 1.0], SX)
    with pytest.raises(ValueError):
        build_level_system([1.0, 2.0], np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        build_level_system([1.0], np.eye(1))


def test_catalog_style_level_systems():
    three = build_level_system([1.0, 1.9, 3.0],
                               np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
    assert np.abs(dense_h0(three) - np.diag([1, 1.9, 3])).max() == 0
    eleven_mu = np.zeros((11, 11))
    for i in range(10):
        eleven_mu[i, i + 1] = eleven_mu[i + 1, i] = 1.0
    eleven_mu[0, 10] = eleven_mu[10, 0] = 1.0
    eleven = build_level_system([1, 2.1, 3, 3.9, 5, 6.1, 7, 8.1, 9, 9.9, 11],
                                eleven_mu)
    assert eleven.dim == 11


def test_grid_kinetic_eigenfunction():
    n = 64
    sys_free = build_grid_system(0.0, 2 * math.pi, n, 1.0,
                                 np.zeros(n), np.zeros(n))
    x = sys_free.x
    k = 5.0  # an exact grid momentum for L = 2*pi
    state = np.exp(1j * k * x) / math.sqrt(n)
    out = apply_grid_hamiltonian(sys_free, state, 0.0)
    assert np.abs(out - (k * k / 2.0) * state).max() < 1e-12


def test_grid_harmonic_ground_state():
    sys_ho = build_grid_system(-8 * math.pi, 8 * math.pi, 128, 1.0,
                               harmonic_potential, linear_dipole)
    x = sys_ho.x
    psi = np.exp(-x * x / 2.0)
    psi = psi / np.linalg.norm(psi)
    out = apply_grid_hamiltonian(sys_ho, psi.astype(complex), 0.0)
    assert np.abs(out - 0.5 * psi).max() < 1e-8


def test_grid_field_term_is_pointwise():
    sys_ho = build_grid_system(-8 * math.pi, 8 * math.pi, 128, 1.0,
                               harmonic_potential, linear_dipole)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    a = apply_grid_hamiltonian(sys_ho, psi, 0.0)
    b = apply_grid_hamiltonian(sys_ho, psi, 0.7)
    assert np.abs((a - b) - 0.7 * sys_ho.dipole * psi).max() < 1e-12


def test_diagonalize_level_system_is_trivial():
    sys2 = build_level_system([1.0, 4.0], SX)
    b = diagonalize(sys2)
    assert np.abs(b.energies - [1.0, 4.0]).max() == 0
    assert np.abs(b.states - np.eye(2)).max() < 1e-15


def test_diagonalize_harmonic_grid():
    sys_ho = build_grid_system(-8 * math.pi, 8 * math.pi, 128, 1.0,
                               harmonic_potential, linear_dipole)
    b = diagonalize(sys_ho)
    err = np.abs(b.energies[:22] - (np.arange(22) + 0.5))
    assert err[:19].max() < 1e-6
    assert err.max() < 1e-4
    h0 = dense_h0(sys_ho)
    assert np.abs(h0 @ b.states - b.states * b.energies).max() < 1e-8
    assert np.abs(b.states @ b.states.conj().T - np.eye(128)).max() < 1e-8
    assert np.abs(b.states.conj().T @ b.states - np.eye(128)).max() < 1e-10


def test_diagonalize_toda_grid_softening():
    sys_t = build_grid_system(-3.8045, 41.0989, 128, 1.0,
                              toda_potential, linear_dipole)
    b = diagonalize(sys_t)
    gaps = np.diff(b.energies[:12])
    assert gaps[0] < 1.0
    assert np.all(np.diff(gaps) < 0)


def test_potentials():
    mp = morse_potential(0.171, 0.975)
    assert mp(0.0) == 0.0
    assert mp(500.0) == pytest.approx(0.171, rel=1e-12)
    assert toda_potential(0.0) == 0.0
    eps = 1e-4
    d1 = (toda_potential(eps) - toda_potential(-eps)) / (2 * eps)
    d2 = (toda_potential(eps) - 2 * toda_potential(0.0) + toda_potential(-eps)) / eps**2
    assert abs(d1) < 1e-8
    assert d2 == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        morse_potential(-1.0, 1.0)


def test_dipoles():
    eps = 1e-6
    assert toda_dipole(0.0) == 0.0
    slope = (toda_dipole(eps) - toda_dipole(-eps)) / (2 * eps)
    assert slope == pytest.approx(1.0, abs=1e-9)
    x = np.linspace(-0.5, 3.0, 7)
    assert np.abs(hcl_fictitious_dipole(x)
                  - 0.0963 * x * (1.0 - np.tanh(x - 0.7))).max() < 1e-15
    # decay toward the dissociation region: monotone beyond the maximum
    xs = np.linspace(0.0, 3.5, 400)
    mu = hcl_dipole(xs)
    am = int(np.argmax(mu))
    assert np.all(np.diff(mu[am:]) < 0)
    assert mu[-1] < 0.1 * mu[am]


def test_hcl_diagonal_coupling_trend():
    sys_hcl = hcl_system()
    b = diagonalize(sys_hcl)
    diag = np.array([((b.states[:, n].conj() * sys_hcl.dipole) @ b.states[:, n]).real
                     for n in range(16)])
    assert np.all(np.diff(diag[:15]) > 0)


def test_choose_x_domain_toda():
    xl, xr = choose_x_domain(toda_potential, 1.0, 128)
    assert xl == pytest.approx(-3.8045, abs=1e-4)
    assert xr == pytest.approx(41.0989, abs=1e-4)
    dx = (xr - xl) / 128
    c = math.pi**2 / (2.0 * dx * dx)
    assert float(toda_potential(xl)) == pytest.approx(c, rel=1e-6)
    assert float(toda_potential(xr)) == pytest.approx(c, rel=1e-6)


def test_choose_x_domain_hcl():
    mp = morse_potential(0.171, 0.975)
    xl, xr = choose_x_domain(mp, 1785.0, 32, v_cap=(1 - 1e-6) * 0.171)
    assert xl == pytest.approx(-0.69407, abs=1e-4)
    assert xr == pytest.approx(3.51178, abs=1e-4)
    # a tight cap makes the balance infeasible
    with pytest.raises(ValueError):
        choose_x_domain(mp, 1785.0, 32, v_cap=0.01)


def test_choose_x_domain_harmonic_closed_form():
    xl, xr = choose_x_domain(harmonic_potential, 1.0, 128)
    assert xr == pytest.approx(math.sqrt(64 * math.pi), rel=1e-9)
    assert xl == pytest.approx(-xr, rel=1e-9)


def test_projectors():
    sys_hcl = hcl_system()
    b = diagonalize(sys_hcl)
    res = StateRestriction(19, [(n - 19) ** 2 for n in range(20, 32)])
    p_a, p_f = projectors(b, res)
    assert np.abs(p_a - p_a.conj().T).max() < 1e-12
    assert np.abs(p_f - p_f.conj().T).max() < 1e-12
    assert np.abs(p_a @ p_a - p_a).max() < 1e-12
    # P_f weights: <phi_25|P_f|phi_25> = gamma_25 = 36
    phi25 = b.states[:, 25]
    assert (phi25.conj() @ p_f @ phi25).real == pytest.approx(36.0, rel=1e-10)
    # L = dim-1: everything allowed
    res_all = StateRestriction(31, [])
    p_a, p_f = projectors(b, res_all)
    assert np.abs(p_a - np.eye(32)).max() < 1e-10
    assert np.abs(p_f).max() == 0.0
    with pytest.raises(ValueError):
        StateRestriction(19, [0.0])


def test_bohr_frequencies():
    sys2 = build_level_system([1.0, 4.0], SX)
    w = bohr_frequencies(diagonalize(sys2))
    assert w[1, 0] == 3.0
    assert np.abs(w + w.T).max() == 0.0
    w_hcl = bohr_frequencies(diagonalize(hcl_system()))
    assert w_hcl[2, 0] == pytest.approx(2.54e-2, abs=2e-4)
    sys_t = build_grid_system(-3.8045, 41.0989, 128, 1.0,
                              toda_potential, linear_dipole)
    w_t = bohr_frequencies(diagonalize(sys_t))
    assert w_t[6, 0] == pytest.approx(4.82, abs=5e-3)


def test_commutator():
    sys2 = build_level_system([1.0, 4.0], SX)
    c = commutator_H0_O(sys2)
    # [diag(1,4), sx] couples off-diagonals with +-3
    assert np.abs(c - np.array([[0, -3.0], [3.0, 0]])).max() < 1e-12
    # diagonal target commutes with H0
    sysd = build_level_system([1.0, 4.0], SX, target=np.diag([0.3, 0.9]))
    with pytest.raises(ValueError):
        commutator_H0_O(sysd)  # [mu, O] != 0 is rejected
    sys_same = build_level_system([1.0, 4.0], np.diag([0.3, 0.9]),
                                  target=np.diag([0.3, 0.9]))
    assert np.abs(commutator_H0_O(sys_same)).max() == 0.0
    # grid systems: mu and O are both coordinate functions, [H0, O] dense
    sys_t = build_grid_system(-3.8045, 41.0989, 128, 1.0,
                              toda_potential, toda_dipole)
    ct = commutator_H0_O(sys_t)
    assert np.abs(ct + ct.conj().T).max() < 1e-10  # anti-Hermitian


def test_apply_helpers():
    sys2 = build_level_system([1.0, 4.0], SX)
    psi = np.array([[1.0 + 0j, 2.0 - 1j]])
    assert np.abs(apply_mu(sys2, psi) - psi @ SX.T).max() == 0
    assert np.abs(apply_target(sys2, psi) - psi @ SX.T).max() == 0
    sys_t = build_grid_system(-3.8045, 41.0989, 128, 1.0,
                              toda_potential, linear_dipole, harmonic_potential)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 128)) + 1j * rng.standard_normal((3, 128))
    assert np.array_equal(apply_mu(sys_t, rows), rows @ dense_mu(sys_t).T)
    assert np.array_equal(apply_target(sys_t, rows),
                          rows @ dense_target(sys_t).T)


def _grid(**change):
    args = dict(x_min=0.0, x_max=1.0, n_grid=16, mass=1.0,
                potential=np.zeros(16), dipole=np.ones(16), target=None)
    args.update(change)
    return build_grid_system(**args)


def _with(index, value, n=16):
    out = np.linspace(0.0, 1.0, n)
    out[index] = value
    return out


@pytest.mark.parametrize("build", [
    lambda: _grid(mass=0.0),
    lambda: _grid(mass=-1.0),
    lambda: _grid(mass=math.nan),
    lambda: _grid(x_max=math.inf),
    lambda: _grid(potential=_with(3, math.inf)),
    lambda: _grid(dipole=_with(0, math.nan)),
    lambda: _grid(target=_with(15, -math.inf)),
    lambda: build_level_system([0.0, math.inf], SX),
    lambda: build_level_system([0.0, 1.0], [[0.0, math.nan], [math.nan, 0.0]]),
    lambda: build_level_system([0.0, 1.0], SX, np.diag([1.0, math.nan])),
], ids=["zero-mass", "negative-mass", "nan-mass", "inf-domain", "inf-potential",
        "nan-dipole", "inf-target", "inf-energy", "nan-mu", "nan-target"])
def test_builders_reject_out_of_range_input(build):
    with pytest.raises(ValueError):
        build()
