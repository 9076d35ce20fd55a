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

from .spectral import Spectrum, _dct1_rows, integrate_freq
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

    d[n, j] is the coupling O[n + j, j] read off the lower band (zero where
    n + j runs off the matrix); it drives the analytic expectation formulas.
    Part n keeps exactly the +/- n-th diagonals of the operator and is built
    from d on request, its upper band the conjugate of the lower one, so the
    parts sum back to the operator entry for entry.
    """

    d: np.ndarray

    @property
    def dim(self):
        return self.d.shape[0]

    def __len__(self):
        return self.dim

    def __getitem__(self, n):
        n = range(self.dim)[n]
        lower = self.d[n, : self.dim - n]
        if n == 0:
            return np.diag(lower)
        return np.diag(lower, -n) + np.diag(lower.conj(), n)

    @property
    def operators(self):
        """Every part as one (dim, dim, dim) stack."""
        return np.stack([self[n] for n in range(self.dim)])

    def reconstruct(self):
        return self.operators.sum(axis=0)

    def expectations(self, amplitudes):
        """Per-part expectation values from eigenbasis amplitude rows.

        amplitudes is (dim,) or (k, dim); returns matching (dim,)/(k, dim)
        with column n holding <O^(n)> = (2/l_n) Re sum_j c*_{n+j} c_j d_nj.
        """
        c = np.asarray(amplitudes, dtype=complex)
        one_row = c.ndim == 1
        out = self._bands(c[None, :] if one_row else c)
        return out[:, 0] if one_row else out.T

    def _live(self):
        # the bands with a nonzero coupling; every other part is zero
        return np.flatnonzero(self.d.any(axis=1))

    def _bands(self, c):
        """The expectations of the (k, dim) amplitude rows c as (dim, k)
        rows.  The rows of bands without a coupling stay zero; every other
        band forms its products over the span of its nonzero couplings only,
        on contiguous rows of c^T in one work array."""
        n = self.dim
        if c.shape[1] != n:
            raise ValueError("amplitude rows do not match the operator dimension")
        c = np.ascontiguousarray(c.T)
        work = np.empty_like(c)
        out = np.zeros((n, c.shape[1]))
        for i in self._live():
            nonzero = np.flatnonzero(self.d[i])
            lo, hi = nonzero[0], nonzero[-1] + 1
            prod = np.conj(c[i + lo: i + hi], out=work[: hi - lo])
            prod *= c[lo:hi]
            out[i] = (2.0 / _l_weight(i)) * (self.d[i, lo:hi] @ prod).real
        return out


def hermitian_components(o, basis=None):
    """Split a Hermitian operator into its diagonal-band parts.

    With basis given (a SpectralBasis or a system to diagonalize), the
    operator is first transformed into that eigenbasis.  The transformed
    matrix is Hermitized so every part is exactly Hermitian; the input must
    already be Hermitian to one part in 1e-12.  Entries of the transformed
    matrix at or below dim * eps * max|o|, the rounding bound of V^dag o V,
    are set to exact zero, so a target confined to a block of the basis
    keeps zero couplings outside it.  An operator given without a basis is
    kept as given.
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
    n = o.shape[0]
    scale = np.abs(o).max()
    if np.abs(o - o.conj().T).max() > _HERM_TOL * max(1.0, scale):
        raise ValueError("operator is not Hermitian")
    o = 0.5 * (o + o.conj().T)
    if basis is not None:
        o[np.abs(o) <= n * np.finfo(float).eps * scale] = 0.0
    rows, cols = np.tril_indices(n)
    d = np.zeros((n, n), dtype=complex)
    d[rows - cols, cols] = o[rows, cols]
    return HermitianComponents(d)


def _eigen_amplitudes(traj, basis):
    """Grid-time amplitudes in the basis, read off the trajectory's stored
    states when the basis is its own (see Trajectory.grid_states)."""
    return traj.grid_states(None if basis is None
                            else _as_basis(basis).states)


def component_spectra(traj, components, basis=None):
    """Cosine-transform spectrum of each <O^(n)>(t) along the trajectory.

    The transform is dct1 of the grid samples (the grid-sample trapezoid),
    the form j_max_spectral scores.  For level systems the stored states
    already are eigenbasis amplitudes; pass basis (a SpectralBasis or the
    system) when they are not.  Returns a list of Spectrum, one per part;
    their pointwise sum is the spectrum of the full <O>(t) by linearity of
    the transform.  Only the bands with a nonzero coupling are transformed;
    every other spectrum is exactly zero.
    """
    c = _eigen_amplitudes(traj, basis)
    bands = components._bands(c)
    live = components._live()
    # the live bands in one transform, row for row bitwise dct1's
    bands[live] = _dct1_rows(traj.grid, bands[live])
    fgrid = traj.grid.frequency_grid()
    return [Spectrum(fgrid, values) for values in bands]


def j_max_per_component(traj, components, f_o, basis=None):
    """Filter-weighted power carried by each diagonal band.

    Same quadrature as the spectral yield of the full operator, the dct1
    (grid-sample trapezoid) form of j_max_spectral, applied to each band's
    spectrum separately.  A band without a coupling carries exactly zero.
    Cross terms between bands are real, so the entries do not sum to the
    full yield.
    """
    if (f_o.values < 0).any():
        raise ValueError("spectral target filter must be nonnegative")
    spectra = component_spectra(traj, components, basis=basis)
    out = np.zeros(components.dim)
    for n in components._live():
        bar = spectra[n]
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
    return OccupationRecord(traj.grid, b.energies, _eigen_amplitudes(traj, b))


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
