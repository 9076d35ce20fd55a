"""Quantum-system construction.

Dense level systems and 1-D Fourier-grid oscillators under the dipole
approximation H(t) = H0 - mu*eps(t), their eigenbases, allowed/forbidden
projectors, Bohr frequencies, and the potential/dipole function catalog.

Both kinds hold H0, mu and O each as a diagonal (1-D) or a matrix (2-D)
in the state basis; apply_operator alone reads that form, so h_apply,
eigen() and the dense_* helpers are shared.
"""

from dataclasses import dataclass, field
import math

import numpy as np
import scipy.fft
from scipy.optimize import brentq, minimize_scalar

__all__ = [
    "LevelSystem", "GridSystem", "SpectralBasis", "StateRestriction",
    "build_level_system", "build_grid_system",
    "apply_operator", "apply_mu", "apply_target", "dense_h0", "dense_mu",
    "dense_target", "diagonalize", "morse_potential", "toda_potential",
    "harmonic_potential", "hcl_dipole", "hcl_fictitious_dipole",
    "toda_dipole", "linear_dipole", "choose_x_domain", "projectors",
    "bohr_frequencies", "commutator_H0_O", "rotate_operator",
]

_HERM_TOL = 1e-12


def _require_hermitian(a, name, diagonal=False):
    """a as a Hermitian operator; with diagonal=True a 1-D array is taken
    as a diagonal, which must be real and is returned as a real array."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    if diagonal and a.ndim == 1:
        if np.iscomplexobj(a) and np.abs(a.imag).max() > _HERM_TOL:
            raise ValueError(f"{name} diagonal must be real")
        return np.real(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if np.abs(a - a.conj().T).max() > _HERM_TOL:
        raise ValueError(f"{name} is not Hermitian")
    return a


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")


def apply_operator(op, states):
    """op applied to each row of the (k, dim) states: a 1-D op is a
    diagonal, a 2-D one a matrix."""
    return states * op if op.ndim == 1 else states @ op.T


def rotate_operator(op, vecs):
    """V^dagger op V as a matrix, for an op of apply_operator's form."""
    return vecs.conj().T @ apply_operator(op, vecs.T).T


class _System:
    """What both system kinds share; each supplies h0, mu and target in the
    operator form of apply_operator."""

    @property
    def dim(self):
        return len(self.h0)

    def h_apply(self, states, field_values):
        """(H0 - eps*mu) row-wise; field_values scalar or one per row."""
        fv = np.asarray(field_values)
        if fv.ndim == 1:
            fv = fv[:, None]
        return (apply_operator(self.h0, states)
                - fv * apply_operator(self.mu, states))

    def eigen(self):
        """(E, V, M) of H0, built once and kept on the instance: a diagonal
        H0 gives its entries, V = None (the identity) and M = mu; a matrix
        H0 its ascending energies, eigenvectors as V's columns (see
        diagonalize) and M = V^dagger mu V."""
        data = self.__dict__.get("_eigen")
        if data is None:
            if self.h0.ndim == 1:
                data = self.h0, None, self.mu
            else:
                energies, vecs = _fixed_phase_eigh(self.h0)
                data = energies, vecs, rotate_operator(self.mu, vecs)
            object.__setattr__(self, "_eigen", data)
        return data

    def eigen_system(self):
        """(LevelSystem(E, M, V^dagger O V), V), kept on the instance: this
        system in the eigen representation of H0; (self, None) if diagonal."""
        energies, vecs, coupling = self.eigen()
        if vecs is not None and "_eigen_system" not in self.__dict__:
            object.__setattr__(self, "_eigen_system", LevelSystem(
                energies, coupling, rotate_operator(self.target, vecs)))
        return (self, None) if vecs is None else (self._eigen_system, vecs)


@dataclass(frozen=True)
class LevelSystem(_System):
    """Diagonal H0 with energies E_n, dipole mu, and target operator O."""

    energies: np.ndarray
    mu: np.ndarray
    target: np.ndarray

    @property
    def h0(self):
        return self.energies


@dataclass(frozen=True)
class GridSystem(_System):
    """1-D system on an equidistant x grid, with a Fourier-grid kinetic term.

    h0 is P^2/2m + V as a dense matrix, built once from the FFT form
    applied to the identity; mu (the dipole) and the target are diagonals.
    """

    x_min: float
    x_max: float
    n_grid: int
    mass: float
    potential: np.ndarray
    dipole: np.ndarray
    target: np.ndarray
    h0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_grid
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("n_grid must be a power of two")
        if len(self.potential) != n or len(self.dipole) != n or len(self.target) != n:
            raise ValueError("potential/dipole/target must have n_grid samples")
        if not 0.0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        _require_finite(self.potential, "potential")
        _require_finite(self.dipole, "dipole")
        _require_finite(self.target, "target")
        k = 2.0 * math.pi * scipy.fft.fftfreq(n, d=self.dx)
        eye = np.eye(n, dtype=complex)
        kin = scipy.fft.ifft(scipy.fft.fft(eye, axis=-1)
                             * (k * k / (2.0 * self.mass)), axis=-1)
        # row i is H0 applied to e_i, so the sum is H0 transposed
        object.__setattr__(self, "h0", (kin + eye * self.potential).T.copy())

    @property
    def mu(self):
        return self.dipole

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_grid

    @property
    def x(self):
        return self.x_min + self.dx * np.arange(self.n_grid)


def build_level_system(energies, mu, target=None):
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or len(energies) < 2:
        raise ValueError("need at least two energy levels")
    _require_finite(energies, "energies")
    if not (np.diff(energies) > 0).all():
        raise ValueError("energies must be strictly increasing")
    mu = _require_hermitian(mu, "mu")
    if mu.shape[0] != len(energies):
        raise ValueError("mu dimension does not match the energies")
    target = mu if target is None else _require_hermitian(target, "target")
    if target.shape[0] != len(energies):
        raise ValueError("target dimension does not match the energies")
    return LevelSystem(energies, mu, target)


def build_grid_system(x_min, x_max, n_grid, mass, potential, dipole, target=None):
    """Sample callables (or accept arrays) onto the half-open grid [x_min, x_max)."""
    if not 0.0 < x_max - x_min < math.inf:
        raise ValueError("x domain must be nonempty and finite")
    dx = (x_max - x_min) / n_grid
    x = x_min + dx * np.arange(n_grid)

    def _samples(f):
        return np.asarray(f(x) if callable(f) else f, dtype=float)

    v = _samples(potential)
    mu = _samples(dipole)
    o = mu if target is None else _samples(target)
    return GridSystem(x_min, x_max, n_grid, mass, v, mu, o)


def apply_mu(system, states):
    return apply_operator(system.mu, states)


def apply_target(system, states):
    return apply_operator(system.target, states)


def _dense(op):
    """An operator of apply_operator's form as a new dense complex matrix."""
    return (np.diag(op) if op.ndim == 1 else op).astype(complex)


def dense_h0(system):
    return _dense(system.h0)


def dense_mu(system):
    return _dense(system.mu)


def dense_target(system):
    return _dense(system.target)


@dataclass(frozen=True)
class SpectralBasis:
    """Eigen-decomposition of H0: column n of states is phi_n, energy E_n."""

    energies: np.ndarray
    states: np.ndarray

    @property
    def dim(self):
        return len(self.energies)

    def reconstruct(self, coeffs):
        return np.asarray(coeffs) @ self.states.T


def diagonalize(system):
    """Full dense eigenbasis, ascending, with a fixed phase convention:
    the largest-magnitude component of each eigenvector is made positive real.

    The arrays are copies of the system's cached eigen data, which the
    propagator shares.
    """
    energies, vecs, _ = system.eigen()
    # V is None for a level system, whose H0 is already diagonal
    vecs = np.eye(len(energies), dtype=complex) if vecs is None else vecs.copy()
    return SpectralBasis(energies.copy(), vecs)


def _fixed_phase_eigh(h0):
    energies, vecs = np.linalg.eigh(h0)
    for n in range(vecs.shape[1]):
        col = vecs[:, n]
        k = int(np.argmax(np.abs(col)))
        phase = col[k] / abs(col[k])
        vecs[:, n] = col / phase
    if np.abs(vecs.imag).max() < 1e-14:
        vecs = vecs.real.astype(complex)
    return energies, vecs


def morse_potential(d0, a):
    """D0*(exp(-a*x) - 1)^2; well bottom at x = 0, dissociation limit D0."""
    if d0 <= 0 or a <= 0:
        raise ValueError("Morse parameters must be positive")

    def v(x):
        return d0 * (np.exp(-a * np.asarray(x, dtype=float)) - 1.0) ** 2

    v.d0 = d0
    v.a = a
    return v


def toda_potential(x):
    """exp(-x) + x - 1: softens upward in x, hardens exponentially downward."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x) + x - 1.0


def harmonic_potential(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x


def hcl_dipole(x):
    """Fitted diatomic dipole: nearly linear at the well, decaying to zero
    toward dissociation; real part of a complex tanh form, taken pointwise.
    """
    x = np.asarray(x, dtype=float)
    z = (0.17069 + 0.056854j) * (x - 0.10630 + 0.0j) ** 1.8977
    return 0.19309 * x * (1.0 - np.tanh(z).real)


def hcl_fictitious_dipole(x):
    """Same linear slope at the well but cut off rapidly beyond x ~ 0.7."""
    x = np.asarray(x, dtype=float)
    return 0.0963 * x * (1.0 - np.tanh(x - 0.7))


def toda_dipole(x):
    """-4*(exp(-x/4) - 1); unit slope at the origin."""
    x = np.asarray(x, dtype=float)
    return -4.0 * (np.exp(-0.25 * x) - 1.0)


def linear_dipole(x):
    return np.asarray(x, dtype=float)


def _expand_until(predicate, start, step):
    # geometric search for a bracket endpoint satisfying the predicate
    x, s = start, step
    for _ in range(200):
        x = x + s
        if predicate(x):
            return x
        s *= 2.0
    raise ValueError("bracket expansion failed")


def choose_x_domain(potential, mass, n_grid, v_cap=None, x_hint=0.0):
    """Domain [x_min, x_max) with V(x_min) = V(x_max) = pi^2/(2 m dx^2).

    Solved by bisection on the common potential level c; v_cap bounds the
    usable level for potentials that saturate (dissociative wells).  Raises
    when no level in the bracket satisfies the kinetic-balance condition.
    """
    res = minimize_scalar(lambda xx: float(potential(xx)),
                          bracket=(x_hint - 1.0, x_hint + 1.0))
    x0, v_min = float(res.x), float(res.fun)

    def crossings(c):
        left = _expand_until(lambda xx: potential(xx) > c, x0, -0.5)
        right = _expand_until(lambda xx: potential(xx) > c, x0, 0.5)
        xl = brentq(lambda xx: potential(xx) - c, left, x0, xtol=1e-13)
        xr = brentq(lambda xx: potential(xx) - c, x0, right, xtol=1e-13)
        return xl, xr

    def imbalance(c):
        xl, xr = crossings(c)
        dx = (xr - xl) / n_grid
        return c - math.pi**2 / (2.0 * mass * dx * dx)

    c_lo = v_min + 1e-9 * (1.0 + abs(v_min))
    if v_cap is not None:
        c_hi = v_cap
        if imbalance(c_hi) < 0:
            raise ValueError("no balanced domain below the potential cap")
    else:
        c_hi = _expand_until(lambda c: imbalance(c) > 0, c_lo, 1.0)
    c_star = brentq(imbalance, c_lo, c_hi, xtol=1e-13, rtol=1e-15)
    return crossings(c_star)


@dataclass(frozen=True)
class StateRestriction:
    """Allowed subspace n <= L; gamma holds the weights for n = L+1..dim-1."""

    L: int
    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if (g <= 0).any():
            raise ValueError("forbidden-state weights must be positive")
        object.__setattr__(self, "gamma", g)


def projectors(basis, restriction):
    """(P_a, P_f^gamma): allowed projector and weighted forbidden projector."""
    dim = basis.dim
    L = restriction.L
    if not L < dim:
        raise ValueError("L must be below the basis dimension")
    if len(restriction.gamma) != dim - L - 1:
        raise ValueError("need one gamma per forbidden state")
    allowed = basis.states[:, : L + 1]
    p_a = allowed @ allowed.conj().T
    forbidden = basis.states[:, L + 1:]
    p_f = (forbidden * restriction.gamma) @ forbidden.conj().T
    return p_a, p_f


def bohr_frequencies(basis):
    """omega_mn = E_m - E_n as an antisymmetric matrix."""
    e = basis.energies
    return e[:, None] - e[None, :]


def commutator_H0_O(system):
    """[H0, O] as a dense matrix, read-only, built once and kept on the
    instance like eigen(); requires [mu, O] = 0 to 1e-10."""
    comm = system.__dict__.get("_commutator")
    if comm is None:
        mu, o = dense_mu(system), dense_target(system)
        if np.abs(mu @ o - o @ mu).max() > 1e-10:
            raise ValueError("dipole and target operators do not commute")
        h0 = dense_h0(system)
        comm = h0 @ o - o @ h0
        comm.flags.writeable = False
        object.__setattr__(system, "_commutator", comm)
    return comm

