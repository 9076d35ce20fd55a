"""Post-run mechanism diagnostics.

An observable O, written in the eigenbasis of the drift Hamiltonian, splits
into Hermitian parts O^(n) that couple exactly the n-th off-diagonals.  Each
part's expectation value oscillates at the Bohr frequencies of the level
pairs it connects, so the split attributes emitted spectral lines (and their
share of the filter-weighted power) to specific level-pair ladders.  The
module also tracks eigenstate occupations |c_n(t)|^2 and interaction-picture
amplitudes b_n(t) = c_n(t) e^{i E_n t}, whose slow drift separates the
field-driven population transfer from the fast free evolution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import RealSignal, Spectrum, dct1, integrate_freq
from .system import _HERM_TOL, SpectralBasis, _require_finite, diagonalize


def _as_basis(basis):
    if isinstance(basis, SpectralBasis):
        return basis
    return diagonalize(basis)


def _l_weight(n):
    # the diagonal part is counted once, every off-diagonal pair twice
    return 2.0 if n == 0 else 1.0


@dataclass(frozen=True)
class HermitianComponents:
    """Diagonal-band split of a Hermitian operator in the eigenbasis.

    operators[n] keeps exactly the +/- n-th diagonals of the operator, so the
    stack sums back to the operator entry for entry.  d[n, j] is the coupling
    O[n + j, j] read off the lower band (zero where n + j runs off the
    matrix); it drives the analytic expectation formulas.
    """

    operators: np.ndarray
    d: np.ndarray

    @property
    def dim(self):
        return self.operators.shape[1]

    def __len__(self):
        return self.operators.shape[0]

    def __getitem__(self, n):
        return self.operators[n]

    def reconstruct(self):
        return self.operators.sum(axis=0)

    def expectations(self, amplitudes):
        """Per-part expectation values from eigenbasis amplitude rows.

        amplitudes is (dim,) or (k, dim); returns matching (dim,)/(k, dim)
        with column n holding <O^(n)> = (2/l_n) Re sum_j c*_{n+j} c_j d_nj.
        """
        c = np.asarray(amplitudes, dtype=complex)
        one_row = c.ndim == 1
        if one_row:
            c = c[None, :]
        n = self.dim
        if c.shape[1] != n:
            raise ValueError("amplitude rows do not match the operator dimension")
        out = np.empty((c.shape[0], n))
        for i in range(n):
            j = np.arange(n - i)
            term = np.einsum("tj,tj,j->t", c[:, i + j].conj(), c[:, j],
                             self.d[i, : n - i])
            out[:, i] = (2.0 / _l_weight(i)) * term.real
        return out[0] if one_row else out


def hermitian_components(o, basis=None):
    """Split a Hermitian operator into its diagonal-band parts.

    With basis given (a SpectralBasis or a system to diagonalize), the
    operator is first transformed into that eigenbasis.  The transformed
    matrix is Hermitized before masking so every part is exactly Hermitian;
    the input must already be Hermitian to one part in 1e-12.
    """
    o = np.asarray(o, dtype=complex)
    _require_finite(o, "operator")
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise ValueError("operator must be a square matrix")
    if basis is not None:
        v = _as_basis(basis).states
        if v.shape[0] != o.shape[0]:
            raise ValueError("operator and basis dimensions differ")
        o = v.conj().T @ o @ v
    scale = np.abs(o).max()
    if np.abs(o - o.conj().T).max() > _HERM_TOL * max(1.0, scale):
        raise ValueError("operator is not Hermitian")
    o = 0.5 * (o + o.conj().T)
    n = o.shape[0]
    ops = np.zeros((n, n, n), dtype=complex)
    d = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    ops[0][idx, idx] = o[idx, idx]
    d[0] = o[idx, idx]
    for band in range(1, n):
        j = np.arange(n - band)
        ops[band][band + j, j] = o[band + j, j]
        ops[band][j, band + j] = o[j, band + j]
        d[band, : n - band] = o[band + j, j]
    return HermitianComponents(ops, d)


def _eigen_amplitudes(traj, basis):
    states = traj.grid_states()
    if basis is None:
        return states
    return _as_basis(basis).coefficients(states)


def component_spectra(traj, components, basis=None):
    """Cosine-transform spectrum of each <O^(n)>(t) along the trajectory.

    For level systems the stored states already are eigenbasis amplitudes;
    pass basis (a SpectralBasis or the system) when they are not.  Returns a
    list of Spectrum, one per part; their pointwise sum is the spectrum of
    the full <O>(t) by linearity of the transform.
    """
    c = _eigen_amplitudes(traj, basis)
    series = components.expectations(c)
    return [dct1(RealSignal(traj.grid, series[:, n]))
            for n in range(components.dim)]


def j_max_per_component(traj, components, f_o, basis=None):
    """Filter-weighted power carried by each diagonal band.

    Same quadrature as the spectral yield of the full operator, applied to
    each band's spectrum separately.  Cross terms between bands are real, so
    the entries do not sum to the full yield.
    """
    if (f_o.values < 0).any():
        raise ValueError("spectral target filter must be nonnegative")
    out = np.empty(components.dim)
    for n, bar in enumerate(component_spectra(traj, components, basis=basis)):
        power = Spectrum(bar.grid, bar.values * bar.values)
        out[n] = 0.5 * integrate_freq(power, f_o)
    return out


@dataclass(frozen=True)
class OccupationRecord:
    """Eigenstate amplitudes c_n(t) at the grid nodes, plus derived views."""

    grid: object
    energies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.amplitudes, dtype=complex)
        e = np.asarray(self.energies, dtype=float)
        if c.ndim != 2 or c.shape[0] != self.grid.n_t or c.shape[1] != len(e):
            raise ValueError("amplitude array must be (n_t, n_states)")
        object.__setattr__(self, "amplitudes", c)
        object.__setattr__(self, "energies", e)

    @property
    def occupations(self):
        """|c_n(t)|^2, shape (n_t, n_states)."""
        return np.abs(self.amplitudes) ** 2

    @property
    def max_abs(self):
        """Per-state max over time of |c_n(t)|, shape (n_states,)."""
        return np.abs(self.amplitudes).max(axis=0)

    @property
    def interaction_amplitudes(self):
        """b_n(t) = c_n(t) e^{i E_n t}; constant when the field does nothing."""
        phases = np.exp(1j * np.outer(self.grid.nodes, self.energies))
        return self.amplitudes * phases

    @property
    def norm_defect(self):
        """Worst deviation of sum_n |c_n|^2 from one over the run."""
        return float(np.abs(self.occupations.sum(axis=1) - 1.0).max())


def occupations(traj, basis):
    """Project the stored trajectory onto an eigenbasis at every grid node."""
    b = _as_basis(basis)
    return OccupationRecord(traj.grid, b.energies,
                            b.coefficients(traj.grid_states()))


def equal_occupation_optimum_scan(pair, coupling, n_theta=101):
    """Beat amplitude of one level pair as its population mix is tilted.

    Under frozen occupations cos(theta)|m> + sin(theta)|n>, the (m, n) line
    in <O> oscillates with amplitude 2|b_m||b_n||d| = |d| sin(2 theta), so
    the equal mix theta = pi/4 radiates hardest.  coupling may be the scalar
    d, a full d table, or a HermitianComponents (looked up at the pair).
    Returns (theta, amplitude) arrays over [0, pi/2].
    """
    m, n = pair
    d = getattr(coupling, "d", coupling)
    if np.ndim(d) == 2:
        d = np.asarray(d)[abs(m - n), min(m, n)]
    theta = np.linspace(0.0, 0.5 * math.pi, n_theta)
    amplitude = 2.0 * abs(d) * np.cos(theta) * np.sin(theta)
    return theta, amplitude


def amplitude_spectra(record):
    """Windowed transform (1/sqrt(2 pi)) sum_i b(t_i) e^{i w t_i} dt per state.

    Plain finite-window sum with trapezoid end weights and no taper: good for
    reading off peak positions, not line shapes.  Returns (omega, values)
    with omega the two-sided DFT grid of the run window, ascending, and
    values[k, n] the transform of state n at omega[k].
    """
    b = record.interaction_amplitudes
    m = record.grid.n_t - 1
    dt = record.grid.dt
    work = b[:m].copy()
    work[0] = 0.5 * (b[0] + b[m])
    vals = m * np.fft.ifft(work, axis=0)
    omega = 2.0 * math.pi * np.fft.fftfreq(m, d=dt)
    order = np.fft.fftshift(np.arange(m))
    return omega[order], (dt / math.sqrt(2.0 * math.pi)) * vals[order]


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def write_occupations_csv(path, record):
    """Columns: t, then |c_n(t)|^2 per state."""
    header = ["t"] + ["occ_%d" % n for n in range(len(record.energies))]
    occ = record.occupations
    rows = ([t] + list(occ[i]) for i, t in enumerate(record.grid.nodes))
    _write_rows(path, header, rows)


def write_component_jmax_csv(path, values):
    """Columns: n, j_max."""
    _write_rows(path, ["n", "j_max"],
                ([n, v] for n, v in enumerate(np.asarray(values))))


def write_component_spectra_csv(path, spectra):
    """Columns: omega, then one spectrum column per band."""
    header = ["omega"] + ["band_%d" % n for n in range(len(spectra))]
    grid = spectra[0].grid
    for s in spectra:
        if s.grid != grid:
            raise ValueError("spectra live on different grids")
    cols = np.column_stack([s.values for s in spectra])
    rows = ([w] + list(cols[j]) for j, w in enumerate(grid.nodes))
    _write_rows(path, header, rows)
