"""Cosine-transform toolbox.

Paired time/frequency grids, the scaled DCT-I linking them, filter-function
constructors, and boundary-including Chebyshev quadrature (pointwise weights
plus a cumulative integration matrix used by the propagator).
"""

from dataclasses import dataclass
import math

import numpy as np
import scipy.fft

__all__ = [
    "TimeGrid", "FrequencyGrid", "RealSignal", "Spectrum", "FilterSpec",
    "ChebyshevRule", "endpoint_factors", "dct1", "idct1", "make_filter",
    "chebyshev_rule", "step_node_times", "integrate_time", "integrate_freq",
    "eval_cosine_series",
]


def endpoint_factors(n):
    """h_i: 2 at the two endpoints, 1 inside."""
    h = np.ones(n)
    h[0] = h[-1] = 2.0
    return h


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant samples t_i = i*dt covering [0, T] inclusively."""

    T: float
    n_t: int

    def __post_init__(self):
        if self.n_t < 2:
            raise ValueError("time grid needs at least 2 samples")
        if not self.T > 0:
            raise ValueError("final time must be positive")

    @property
    def dt(self):
        return self.T / (self.n_t - 1)

    @property
    def nodes(self):
        return np.linspace(0.0, self.T, self.n_t)

    def frequency_grid(self):
        return FrequencyGrid(self.T, self.n_t)


@dataclass(frozen=True)
class FrequencyGrid:
    """Cosine-transform partner grid: omega_j = j*pi/T, j < n_t."""

    T: float
    n_t: int

    @property
    def dw(self):
        return math.pi / self.T

    @property
    def nodes(self):
        return np.arange(self.n_t) * (math.pi / self.T)

    @property
    def omega_max(self):
        return (self.n_t - 1) * math.pi / self.T

    def time_grid(self):
        return TimeGrid(self.T, self.n_t)


@dataclass(frozen=True)
class RealSignal:
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_t,):
            raise ValueError("signal length does not match its grid")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Spectrum:
    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_t,):
            raise ValueError("spectrum length does not match its grid")
        object.__setattr__(self, "values", v)


def _dct1_halved(values):
    # sum_i (1/h_i) v_i cos(ij pi/(N-1)) for all j, via the type-1 DCT
    return 0.5 * scipy.fft.dct(values, type=1, axis=-1)


def _transform_scale(grid):
    # multiplies the forward transform, divides the inverse
    return grid.T / math.sqrt((grid.n_t - 1) * math.pi)


def dct1(signal):
    """Scaled DCT-I of a real signal.

    Equals the 1/h-weighted trapezoid approximation of
    sqrt(2/pi) * integral_0^T g(t) cos(omega_j t) dt on the partner grid.
    """
    grid = signal.grid
    n = grid.n_t
    raw = math.sqrt(2.0 / (n - 1)) * _dct1_halved(signal.values)
    return Spectrum(grid.frequency_grid(), _transform_scale(grid) * raw)


def idct1(spectrum):
    """Inverse of dct1 (the unscaled DCT-I is self-inverse)."""
    grid = spectrum.grid
    n = grid.n_t
    raw = math.sqrt(2.0 / (n - 1)) * _dct1_halved(spectrum.values)
    return RealSignal(grid.time_grid(), raw / _transform_scale(grid))


@dataclass(frozen=True)
class FilterSpec:
    """Frequency-filter recipe; sampled onto a grid by make_filter.

    kind is one of rectangular, gaussian, hat-sech, delta-comb, explicit.
    The amplitude scales every kind.
    """

    kind: str
    amplitude: float = 1.0
    omega_min: float = None
    omega_max: float = None
    center: float = None
    coefficient: float = None
    steepness: float = None
    comb: tuple = None
    samples: tuple = None

    _KINDS = ("rectangular", "gaussian", "hat-sech", "delta-comb", "explicit")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not self.amplitude > 0:
            raise ValueError("filter amplitude must be positive")
        if self.kind == "rectangular":
            if self.omega_min is None or self.omega_max is None:
                raise ValueError("rectangular filter needs omega_min and omega_max")
            if not self.omega_max > self.omega_min:
                raise ValueError("rectangular filter support is empty")
        elif self.kind == "gaussian":
            if self.center is None or self.coefficient is None:
                raise ValueError("gaussian filter needs center and coefficient")
            if not self.coefficient > 0:
                raise ValueError("gaussian coefficient must be positive")
        elif self.kind == "hat-sech":
            if self.center is None or self.steepness is None:
                raise ValueError("hat-sech filter needs center and steepness")
            if not self.steepness > 0:
                raise ValueError("hat-sech steepness must be positive")
        elif self.kind == "delta-comb":
            if not self.comb:
                raise ValueError("delta-comb filter needs (bin, value) pairs")
            if any(v < 0 for _, v in self.comb):
                raise ValueError("delta-comb values must be nonnegative")
        elif self.kind == "explicit":
            if self.samples is None:
                raise ValueError("explicit filter needs samples")
            if any(v < 0 for v in self.samples):
                raise ValueError("explicit filter samples must be nonnegative")

    @classmethod
    def rectangular(cls, omega_min, omega_max, amplitude=1.0):
        return cls("rectangular", amplitude, omega_min=omega_min, omega_max=omega_max)

    @classmethod
    def gaussian(cls, center, coefficient, amplitude=1.0):
        return cls("gaussian", amplitude, center=center, coefficient=coefficient)

    @classmethod
    def hat_sech(cls, center, steepness, amplitude=1.0):
        return cls("hat-sech", amplitude, center=center, steepness=steepness)

    @classmethod
    def delta_comb(cls, pairs, amplitude=1.0):
        return cls("delta-comb", amplitude, comb=tuple((int(j), float(v)) for j, v in pairs))

    @classmethod
    def explicit(cls, samples, amplitude=1.0):
        return cls("explicit", amplitude, samples=tuple(float(v) for v in samples))


def make_filter(spec, grid):
    """Sample a FilterSpec onto a frequency grid.

    Rectangular filters are exactly zero outside the closed interval
    [omega_min, omega_max]; delta combs put value*h_j/dw on bin j so the
    grid quadrature reproduces the continuum delta integral.
    """
    w = grid.nodes
    A = spec.amplitude
    if spec.kind == "rectangular":
        inside = (w >= spec.omega_min) & (w <= spec.omega_max)
        if not inside.any():
            raise ValueError("rectangular filter covers no grid bin")
        values = np.where(inside, A, 0.0)
    elif spec.kind == "gaussian":
        values = A * np.exp(-spec.coefficient * (w - spec.center) ** 2)
    elif spec.kind == "hat-sech":
        # sech(x) = 2 e^-x / (1 + e^-2x), overflow-free for the large
        # arguments the quartic produces far from the center
        x = spec.steepness * (w - spec.center) ** 4
        e = np.exp(-x)
        values = A * 2.0 * e / (1.0 + e * e)
    elif spec.kind == "delta-comb":
        values = np.zeros(grid.n_t)
        h = endpoint_factors(grid.n_t)
        for j, v in spec.comb:
            if not 0 <= j < grid.n_t:
                raise ValueError("delta-comb bin outside the grid")
            values[j] += A * v * h[j] / grid.dw
    else:
        if len(spec.samples) != grid.n_t:
            raise ValueError("explicit filter length does not match the grid")
        values = A * np.asarray(spec.samples)
    return Spectrum(grid, values)


@dataclass(frozen=True)
class ChebyshevRule:
    """Boundary-including Chebyshev nodes for one step, with weights.

    y holds the node offsets cos(k*pi/(n_c-1)) running from 1 down to -1;
    node k of a step [a, a+dt] sits at a + (dt/2)*(1-y_k).  w are the
    quadrature weights (integral over the step = dt * sum_k w_k g_k), and
    qmat is the cumulative matrix: integral from the step start to node k
    = dt * (qmat @ g)[k].  Its last row equals w.
    """

    n_c: int
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    qmat: np.ndarray


def chebyshev_rule(n_c):
    """Build the ChebyshevRule for n_c nodes per step (n_c >= 2)."""
    if n_c < 2:
        raise ValueError("need at least 2 Chebyshev nodes per step")
    k = np.arange(n_c)
    theta = k * math.pi / (n_c - 1)
    y = np.cos(theta)
    h = endpoint_factors(n_c)

    # weights from the even-order Chebyshev moments
    c = np.zeros(n_c)
    m_even = np.arange(0, n_c, 2)
    c[m_even] = -1.0 / (m_even**2 - 1.0)
    cos_km = np.cos(np.outer(k, k) * math.pi / (n_c - 1))
    w = (2.0 / ((n_c - 1) * h)) * (cos_km @ (c / h))

    # node values -> Chebyshev coefficients
    amat = (2.0 / (n_c - 1)) * cos_km / np.outer(h, h)

    # analytic antiderivatives of T_m evaluated at the nodes and at y=1
    m = np.arange(n_c)
    p_nodes = np.empty((n_c, n_c))
    p_one = np.empty(n_c)
    p_nodes[:, 0] = np.cos(theta)
    p_one[0] = 1.0
    if n_c > 1:
        p_nodes[:, 1] = (np.cos(2 * theta) + 1.0) / 4.0
        p_one[1] = 0.5
    for mm in range(2, n_c):
        p_nodes[:, mm] = 0.5 * (np.cos((mm + 1) * theta) / (mm + 1)
                                - np.cos((mm - 1) * theta) / (mm - 1))
        p_one[mm] = -1.0 / (mm**2 - 1.0)
    emat = p_one[None, :] - p_nodes
    qmat = 0.5 * (emat @ amat)
    return ChebyshevRule(n_c, y, w, h, qmat)


def step_node_times(T, n_steps, rule):
    """Node times for n_steps equal steps over [0, T], shape (n_steps, n_c)."""
    dt = T / n_steps
    starts = dt * np.arange(n_steps)
    offsets = 0.5 * dt * (1.0 - rule.y)
    return starts[:, None] + offsets[None, :]


def integrate_time(step_values, rule, dt):
    """Sum of per-step Chebyshev quadratures; step_values is (n_steps, n_c)."""
    step_values = np.asarray(step_values)
    if step_values.ndim != 2 or step_values.shape[1] != rule.n_c:
        raise ValueError("step_values must be (n_steps, n_c)")
    return dt * float((step_values @ rule.w).sum())


def integrate_freq(spectrum, weight):
    """dw * sum_j (1/h_j) weight_j spectrum_j (the DCT-I trapezoid)."""
    if spectrum.grid != weight.grid:
        raise ValueError("spectrum and weight live on different grids")
    h = endpoint_factors(spectrum.grid.n_t)
    return spectrum.grid.dw * float(np.sum(weight.values * spectrum.values / h))


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
