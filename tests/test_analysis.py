import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdrive.spectral import FilterSpec, RealSignal, TimeGrid, dct1, make_filter
from specdrive.system import (
    build_grid_system, build_level_system, diagonalize, harmonic_potential,
    linear_dipole,
)
from specdrive.dynamics import default_propagator_config, propagate_forward
from specdrive.functionals import j_max_spectral
from specdrive.analysis import (
    HermitianComponents, OccupationRecord, amplitude_spectra,
    component_spectra, equal_occupation_optimum_scan, hermitian_components,
    j_max_per_component, occupations, write_component_jmax_csv,
    write_component_spectra_csv, write_occupations_csv,
)

MU3 = np.array([[0.3, 1.0, 0.4],
                [1.0, -0.2, 1.0],
                [0.4, 1.0, 0.1]])
E3 = [1.0, 2.2, 4.0]


def three_level():
    return build_level_system(E3, MU3)


def free_run(system, psi0, T=20.0, n_t=129, tau=1e-10):
    grid = TimeGrid(T, n_t)
    cfg = default_propagator_config(system, grid, tau=tau)
    return propagate_forward(system, 0.0, np.asarray(psi0, complex), cfg,
                             grid=grid)


def rand_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- splitting

def test_components_diagonal_operator():
    o = np.diag([0.5, -1.0, 2.0])
    comps = hermitian_components(o)
    assert np.abs(comps[0] - o).max() == 0.0
    assert np.abs(comps[1]).max() == 0.0
    assert np.abs(comps[2]).max() == 0.0


def test_components_three_level_dipole_split():
    comps = hermitian_components(np.array([[0.0, 1.0, 1.0],
                                           [1.0, 0.0, 1.0],
                                           [1.0, 1.0, 0.0]]))
    tridiag = np.array([[0.0, 1.0, 0.0],
                        [1.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0]])
    corners = np.array([[0.0, 0.0, 1.0],
                        [0.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0]])
    assert np.abs(comps[0]).max() == 0.0
    assert np.abs(comps[1] - tridiag).max() == 0.0
    assert np.abs(comps[2] - corners).max() == 0.0


def test_components_reconstruction_and_band_pattern():
    rng = np.random.default_rng(7)
    o = rand_hermitian(rng, 6)
    comps = hermitian_components(o)
    assert len(comps) == 6
    assert np.abs(comps.reconstruct() - o).max() < 1e-13
    for n in range(6):
        band = comps[n]
        assert np.abs(band - band.conj().T).max() == 0.0
        i, j = np.nonzero(band)
        assert (np.abs(i - j) == n).all()
    # d table reads the lower bands
    for n in range(6):
        for j in range(6 - n):
            assert comps.d[n, j] == o[n + j, j]
        assert not comps.d[n, 6 - n:].any()


def test_components_validation():
    with pytest.raises(ValueError):
        hermitian_components(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_components(np.array([[0.0, 1.0], [0.5, 0.0]]))
    ho = build_grid_system(-8 * math.pi, 8 * math.pi, 128, 1.0,
                           harmonic_potential, linear_dipole)
    with pytest.raises(ValueError):
        hermitian_components(np.eye(3), basis=diagonalize(ho))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_components_reject_non_finite_operator(bad):
    with pytest.raises(ValueError, match="finite"):
        hermitian_components(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        hermitian_components(np.diag([1.0, bad]))


def test_components_harmonic_position_is_single_band():
    # the lowest grid eigenstates are faithful oscillator states, so X
    # restricted to them must be the pure ladder band
    ho = build_grid_system(-8 * math.pi, 8 * math.pi, 128, 1.0,
                           harmonic_potential, linear_dipole)
    basis = diagonalize(ho)
    x_eig = basis.states.conj().T @ np.diag(ho.x) @ basis.states
    block = x_eig[:16, :16]
    comps = hermitian_components(block)
    assert np.abs(block - comps[1]).max() < 1e-8
    for n in (0, 2, 3, 4, 5):
        assert np.abs(comps[n]).max() < 1e-8
    ladder = np.sqrt((np.arange(15) + 1) / 2.0)
    assert np.abs(np.abs(comps.d[1, :15]) - ladder).max() < 1e-8


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 7))
def test_components_expectation_matches_matrix(seed, n):
    rng = np.random.default_rng(seed)
    o = rand_hermitian(rng, n)
    comps = hermitian_components(o)
    c = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    per_band = comps.expectations(c)
    for band in range(n):
        direct = np.einsum("ti,ij,tj->t", c.conj(), comps[band], c).real
        assert np.abs(per_band[:, band] - direct).max() < 1e-12 * n
    full = np.einsum("ti,ij,tj->t", c.conj(), o, c).real
    assert np.abs(per_band.sum(axis=1) - full).max() < 1e-12 * n


def test_expectations_single_row_and_mismatch():
    comps = hermitian_components(MU3)
    one = comps.expectations(np.array([1.0, 0.0, 0.0]))
    assert one.shape == (3,)
    assert one[0] == pytest.approx(MU3[0, 0])
    with pytest.raises(ValueError):
        comps.expectations(np.zeros((2, 4)))


# ------------------------------------------------------------------ spectra

def test_component_spectra_bohr_peak_and_cosine_sum():
    system = three_level()
    psi0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    traj = free_run(system, psi0)
    comps = hermitian_components(MU3)
    series = comps.expectations(traj.grid_states())

    # free evolution from a frozen superposition: each band is an explicit
    # cosine sum over the Bohr frequencies it couples
    t = traj.grid.nodes
    e = np.asarray(E3)
    b = psi0.astype(complex)
    ana = np.zeros_like(series)
    for i in range(3):
        l = 2.0 if i == 0 else 1.0
        for j in range(3 - i):
            dij = comps.d[i, j]
            amp = 2.0 / l * abs(b[i + j]) * abs(b[j]) * abs(dij)
            if amp == 0.0:
                continue
            phi = np.angle(np.conj(b[i + j]) * b[j] * dij)
            ana[:, i] += amp * np.cos((e[i + j] - e[j]) * t + phi)
    assert np.abs(series - ana).max() < 1e-8

    spectra = component_spectra(traj, comps)
    dw = traj.grid.frequency_grid().dw
    mags = np.abs(spectra[2].values)
    assert 1 + int(np.argmax(mags[1:])) == round((e[2] - e[0]) / dw)
    # level 1 is unoccupied, so the one-step band carries nothing
    assert np.abs(spectra[1].values).max() < 1e-10


def test_component_spectra_adjacent_pair_peak():
    system = three_level()
    psi0 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    traj = free_run(system, psi0)
    spectra = component_spectra(traj, hermitian_components(MU3))
    dw = traj.grid.frequency_grid().dw
    mags = np.abs(spectra[1].values)
    assert 1 + int(np.argmax(mags[1:])) == round((E3[1] - E3[0]) / dw)


def test_component_spectra_stationary_state():
    traj = free_run(three_level(), [0.0, 1.0, 0.0])
    for s in component_spectra(traj, hermitian_components(MU3)):
        assert np.abs(s.values[1:]).max() < 1e-9


def test_component_spectra_sum_to_full_spectrum():
    system = three_level()
    psi0 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    grid = TimeGrid(20.0, 129)
    cfg = default_propagator_config(system, grid, tau=1e-9)
    traj = propagate_forward(system, 0.3, psi0.astype(complex), cfg, grid=grid)
    spectra = component_spectra(traj, hermitian_components(MU3))
    c = traj.grid_states()
    full = np.einsum("ti,ij,tj->t", c.conj(), MU3, c).real
    bar = dct1(RealSignal(grid, full))
    total = sum(s.values for s in spectra)
    scale = np.abs(bar.values).max()
    assert np.abs(total - bar.values).max() < 1e-12 * max(1.0, scale)


def test_component_expectations_sum_pointwise():
    system = three_level()
    grid = TimeGrid(15.0, 97)
    cfg = default_propagator_config(system, grid, tau=1e-9)
    psi0 = np.array([0.6, 0.0, 0.8], dtype=complex)
    traj = propagate_forward(system, 0.5, psi0, cfg, grid=grid)
    comps = hermitian_components(MU3)
    c = traj.grid_states()
    per_band = comps.expectations(c)
    full = np.einsum("ti,ij,tj->t", c.conj(), MU3, c).real
    assert np.abs(per_band.sum(axis=1) - full).max() < 1e-12


# ------------------------------------------------------------- band yields

def test_j_max_per_component_single_band_operator():
    traj = free_run(three_level(), np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0))
    corners = np.zeros((3, 3))
    corners[0, 2] = corners[2, 0] = 0.4
    filt = make_filter(FilterSpec.rectangular(2.0, 4.0, 1.0),
                       traj.grid.frequency_grid())
    per_band = j_max_per_component(traj, hermitian_components(corners), filt)
    full = j_max_spectral(traj, corners, filt)
    assert per_band[2] == pytest.approx(full, rel=1e-12)
    assert per_band[0] == 0.0
    assert per_band[1] == 0.0


def test_j_max_per_component_rejects_negative_filter():
    traj = free_run(three_level(), [1.0, 0.0, 0.0])
    from specdrive.spectral import Spectrum
    bad = Spectrum(traj.grid.frequency_grid(), -np.ones(traj.grid.n_t))
    with pytest.raises(ValueError):
        j_max_per_component(traj, hermitian_components(MU3), bad)


def test_j_max_per_component_cross_terms_break_additivity():
    # both transitions radiate into the passband; the band split drops the
    # interference contribution, so the parts need not add up to the total
    traj = free_run(three_level(), np.ones(3) / math.sqrt(3.0))
    filt = make_filter(FilterSpec.rectangular(0.0, 10.0, 1.0),
                       traj.grid.frequency_grid())
    per_band = j_max_per_component(traj, hermitian_components(MU3), filt)
    full = j_max_spectral(traj, MU3, filt)
    assert (per_band > 0).all()
    assert abs(per_band.sum() - full) > 1e-6


# ------------------------------------------------------------- occupations

def test_occupations_free_run_is_frozen():
    system = three_level()
    psi0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    traj = free_run(system, psi0)
    rec = occupations(traj, diagonalize(system))
    assert rec.norm_defect < 1e-9
    assert np.abs(rec.occupations - rec.occupations[0]).max() < 1e-9
    b = rec.interaction_amplitudes
    assert np.abs(b - b[0]).max() < 1e-8


def test_occupations_stationary_state():
    system = three_level()
    traj = free_run(system, [0.0, 1.0, 0.0])
    rec = occupations(traj, system)
    assert np.abs(rec.occupations[:, 1] - 1.0).max() < 1e-10
    assert rec.max_abs[0] < 1e-8 and rec.max_abs[2] < 1e-8


def test_occupations_norm_tracks_propagator_tolerance():
    system = three_level()
    grid = TimeGrid(20.0, 129)
    cfg = default_propagator_config(system, grid, tau=1e-5)
    psi0 = np.ones(3, dtype=complex) / math.sqrt(3.0)
    traj = propagate_forward(system, 0.4, psi0, cfg, grid=grid)
    rec = occupations(traj, system)
    assert rec.norm_defect < 10 * 1e-5


def test_occupations_grid_ground_state():
    ho = build_grid_system(-8 * math.pi, 8 * math.pi, 128, 1.0,
                           harmonic_potential, linear_dipole)
    basis = diagonalize(ho)
    grid = TimeGrid(5.0, 65)
    cfg = default_propagator_config(ho, grid, tau=1e-8)
    traj = propagate_forward(ho, 0.0, basis.states[:, 0].copy(), cfg,
                             grid=grid)
    rec = occupations(traj, basis)
    assert np.abs(rec.occupations[:, 0] - 1.0).max() < 1e-7
    assert rec.max_abs[1:].max() < 1e-4


def test_occupation_record_validates_shape():
    grid = TimeGrid(1.0, 9)
    with pytest.raises(ValueError):
        OccupationRecord(grid, np.zeros(2), np.zeros((9, 3), complex))
    with pytest.raises(ValueError):
        OccupationRecord(grid, np.zeros(2), np.zeros((4, 2), complex))


# ------------------------------------------------------------- equal mixes

def test_equal_occupation_scan_shape_and_peak():
    theta, amp = equal_occupation_optimum_scan((0, 2), 0.4)
    assert theta.shape == amp.shape == (101,)
    assert amp[0] == 0.0
    assert amp[-1] == pytest.approx(0.0, abs=1e-15)
    k = int(np.argmax(amp))
    assert theta[k] == pytest.approx(math.pi / 4)
    assert amp[k] == pytest.approx(0.4)
    assert np.abs(amp - 0.4 * np.sin(2 * theta)).max() < 1e-14
    # unique interior maximum
    assert (amp[k] > amp[:k]).all() and (amp[k] > amp[k + 1:]).all()


def test_equal_occupation_scan_table_lookup():
    comps = hermitian_components(MU3)
    theta, amp = equal_occupation_optimum_scan((2, 0), comps, n_theta=11)
    assert amp.max() == pytest.approx(abs(MU3[2, 0]))
    theta2, amp2 = equal_occupation_optimum_scan((0, 1), comps.d)
    assert amp2.max() == pytest.approx(abs(MU3[1, 0]))


# ------------------------------------------------------- amplitude spectra

def synthetic_record(fn, T=10.0, n_t=65, n_states=1):
    grid = TimeGrid(T, n_t)
    t = grid.nodes
    cols = [np.asarray(fn(t, n), complex) for n in range(n_states)]
    return OccupationRecord(grid, np.zeros(n_states), np.column_stack(cols))


def test_amplitude_spectra_constant():
    rec = synthetic_record(lambda t, n: np.ones_like(t))
    omega, vals = amplitude_spectra(rec)
    mags = np.abs(vals[:, 0])
    k = int(np.argmax(mags))
    assert omega[k] == 0.0
    assert mags[k] == pytest.approx(10.0 / math.sqrt(2 * math.pi))
    mags[k] = 0.0
    assert mags.max() < 1e-13


def test_amplitude_spectra_single_tone():
    T = 10.0
    nu = 2 * math.pi * 5 / T
    rec = synthetic_record(lambda t, n: np.exp(-1j * nu * t), T=T)
    omega, vals = amplitude_spectra(rec)
    k = int(np.argmax(np.abs(vals[:, 0])))
    assert omega[k] == pytest.approx(nu)
    assert abs(vals[k, 0]) == pytest.approx(T / math.sqrt(2 * math.pi))


def test_amplitude_spectra_linearity():
    T, n_t = 10.0, 65
    nu = 2 * math.pi * 3 / T
    rec_a = synthetic_record(lambda t, n: np.ones_like(t), T, n_t)
    rec_b = synthetic_record(lambda t, n: np.exp(-1j * nu * t), T, n_t)
    rec_ab = synthetic_record(
        lambda t, n: 0.25 * np.ones_like(t) + 2.0 * np.exp(-1j * nu * t),
        T, n_t)
    omega, va = amplitude_spectra(rec_a)
    _, vb = amplitude_spectra(rec_b)
    _, vab = amplitude_spectra(rec_ab)
    assert np.abs(vab - 0.25 * va - 2.0 * vb).max() < 1e-12
    assert omega[0] < 0 < omega[-1]
    assert np.abs(np.diff(omega) - omega[1] + omega[0]).max() < 1e-12


def test_amplitude_spectra_multi_state():
    T = 8.0
    nu = 2 * math.pi * 4 / T

    def fn(t, n):
        return np.ones_like(t) if n == 0 else np.exp(-1j * nu * t)

    rec = synthetic_record(fn, T=T, n_t=33, n_states=2)
    omega, vals = amplitude_spectra(rec)
    assert omega[int(np.argmax(np.abs(vals[:, 0])))] == 0.0
    assert omega[int(np.argmax(np.abs(vals[:, 1])))] == pytest.approx(nu)


# -------------------------------------------------------------- csv output

def test_csv_emitters(tmp_path):
    system = three_level()
    traj = free_run(system, np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0),
                    n_t=33)
    comps = hermitian_components(MU3)
    rec = occupations(traj, system)

    p_occ = tmp_path / "occupations.csv"
    write_occupations_csv(p_occ, rec)
    lines = p_occ.read_text().strip().split("\n")
    assert lines[0] == "t,occ_0,occ_1,occ_2"
    assert len(lines) == 1 + traj.grid.n_t
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0
    assert row[1] == pytest.approx(0.5, abs=1e-12)

    filt = make_filter(FilterSpec.rectangular(0.0, 10.0, 1.0),
                       traj.grid.frequency_grid())
    jm = j_max_per_component(traj, comps, filt)
    p_jm = tmp_path / "components_jmax.csv"
    write_component_jmax_csv(p_jm, jm)
    lines = p_jm.read_text().strip().split("\n")
    assert lines[0] == "n,j_max"
    assert len(lines) == 4
    assert float(lines[3].split(",")[1]) == pytest.approx(jm[2], rel=1e-15)

    spectra = component_spectra(traj, comps)
    p_sp = tmp_path / "spectra.csv"
    write_component_spectra_csv(p_sp, spectra)
    lines = p_sp.read_text().strip().split("\n")
    assert lines[0] == "omega,band_0,band_1,band_2"
    assert len(lines) == 1 + traj.grid.n_t
    # 17 significant digits survive the round trip
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.abs(back[:, 1 + 2] - spectra[2].values).max() == 0.0
