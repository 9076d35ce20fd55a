"""Schrodinger propagation on Chebyshev nodes with fixed-point stepping.

Forward runs are homogeneous; backward runs optionally carry an
inhomogeneous source built from the stored forward trajectory.  Each step
solves the integral form of the equation of motion on internal Chebyshev
nodes in the interaction picture of H0: with psi(t0+tau) =
V e^{-iE tau} c(tau), H0 is exact and the fixed-point iteration runs on
the eigen-coefficients c, carrying only the field coupling and the source.
It iterates until the relative change at the step end drops below a
per-step tolerance.  Each step of a run after the first starts from the
previous step's node polynomial, extrapolated over one more step (as in
the semi-global propagator), which cuts the iterates per step to about
1.0-1.5 on the benchmark's workloads, from 3.3-4.8 from a constant start.
A step is bisected while the Bohr spread times its length exceeds what the
node polynomial resolves, or when its iteration stalls.  States enter and
leave a step in the system basis, which for the optimizers' runs is the
eigenbasis of H0 itself (V = I).
"""

import math
import numbers
import warnings
from collections import namedtuple
import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.integrate
import scipy.linalg

from .spectral import (
    RealSignal, Spectrum, chebyshev_rule, dct1, endpoint_factors, idct1,
)
from .system import apply_operator, commutator_H0_O, dense_h0, dense_mu

_EPS = float(np.finfo(float).eps)
_NODE_STORAGE_CAP = 64 * 2**20  # bytes of internal node states kept in memory
_DEFAULT_NODES = 9  # Chebyshev nodes per step of the default propagator
# Largest Bohr spread (E_max - E_min) times |dt| of one step: up to here
# the node polynomial resolves the phases e^{i(E_a - E_b) tau} of the
# rotated coupling.  The default config's substeps and the solver's
# bisection both hold to it.
_PHASE_SPAN = 0.7


class PropagationError(RuntimeError):
    """A step kept failing to converge at the smallest allowed size."""


class InstabilityError(RuntimeError):
    """Norm blow-up while propagating a homogeneous equation."""


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepping parameters; steps must subdivide the time grid evenly."""

    steps: int
    rule: object
    zeta: float
    max_picard: int = 40
    max_halvings: int = 6
    store_nodes: object = None  # True/False forces, None decides by memory

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not self.zeta > 0:
            raise ValueError("propagator tolerance must be positive")


def default_propagator_config(system, grid, tau=1e-3):
    """The fewest power-of-two substeps m per grid interval with
    (E_max - E_min)*dt/m <= _PHASE_SPAN, nine nodes, and zeta = 1e-3*tau.

    The field does not enter: a step whose iteration it stalls is bisected
    by the solver."""
    spread = float(np.ptp(system.eigen()[0]))
    m = 1
    while spread * grid.dt / m > _PHASE_SPAN:
        m *= 2
    return PropagatorConfig(steps=(grid.n_t - 1) * m,
                            rule=chebyshev_rule(_DEFAULT_NODES),
                            zeta=1e-3 * tau)


def state_map(op):
    """Normalize an operator (callable, matrix, or diagonal) to a map on
    (k, dim) state blocks."""
    if op is None or callable(op):
        return op
    arr = np.asarray(op)
    return lambda states: apply_operator(arr, states)


def _block_expectation(states, apply_op):
    out = apply_op(states)
    if out.shape != states.shape:
        raise ValueError("operator/state dimension mismatch")
    return np.real(np.einsum("ij,ij->i", states.conj(), out))


def _barycentric_interp(xs, values, q):
    """Polynomial interpolation through (xs, values) evaluated at points q.

    values is (n,) or (n, dim); exact node hits are substituted directly.
    """
    xs = np.asarray(xs, dtype=float)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    values = np.asarray(values)
    diff = xs[:, None] - xs[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    d = q[:, None] - xs[None, :]
    span = max(float(xs.max() - xs.min()), 1e-300)
    hit = np.abs(d) < 1e-13 * span
    terms = w[None, :] / np.where(hit, 1.0, d)
    num = terms @ values
    den = terms.sum(axis=1)
    out = num / (den[:, None] if values.ndim == 2 else den)
    rows = hit.any(axis=1)
    if rows.any():
        ri, ci = np.nonzero(hit)
        out[ri] = values[ci]
    return out


def _sample_interp(samples, grid, t):
    """Local polynomial interpolation of equidistant samples (6-point window)."""
    n = grid.n_t
    flat = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
    if n <= 6:
        out = _barycentric_interp(grid.nodes, samples, flat)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])
    dt = grid.dt
    base = np.clip(np.floor(flat / dt).astype(int) - 2, 0, n - 6)
    idx = base[:, None] + np.arange(6)
    xs = idx * dt
    vals = samples[idx]
    d = flat[:, None] - xs
    hit = np.abs(d) < 1e-12 * dt
    w = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
    terms = w / np.where(hit, 1.0, d)
    out = (terms * vals).sum(axis=1) / terms.sum(axis=1)
    rows = hit.any(axis=1)
    if rows.any():
        out[rows] = vals[hit]
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


class _CosineEval:
    """Evaluate a spectrum's cosine series (support bins only; matches
    eval_cosine_series).

    on_lattice() serves the propagator's node times t = h(k + s_i),
    h = T/n_steps.  With omega_j = j pi/T the phase is pi j (k + s_i)/n_steps,
    so for each fraction s_i the series over k is one inverse FFT of length
    2 n_steps of the coefficients c_j exp(i pi j s_i/n_steps); the result is
    exact, not interpolated.  Calling the evaluator sums the series directly
    and serves the off-lattice times (bisected half-steps, spot checks).
    """

    def __init__(self, spectrum):
        grid = spectrum.grid
        h = endpoint_factors(grid.n_t)
        idx = np.flatnonzero(spectrum.values != 0.0)
        self._bins = idx
        self._omega = grid.nodes[idx]
        self._coef = spectrum.values[idx] / h[idx]
        self._scale = math.sqrt(2.0 * math.pi) / grid.T

    def __call__(self, times):
        t = np.asarray(times, dtype=float)
        if self._omega.size == 0:
            return np.zeros(t.shape)
        flat = t.ravel()
        out = np.empty(flat.size)
        # keep the phase matrix below ~32MB regardless of series length
        block = max(1, (1 << 22) // max(self._omega.size, 1))
        for k in range(0, flat.size, block):
            part = flat[k:k + block]
            out[k:k + block] = np.cos(np.multiply.outer(part, self._omega)) @ self._coef
        return self._scale * out.reshape(t.shape)

    def on_lattice(self, n_steps, fractions):
        """Series at h(k + s_i) for k < n_steps, shape (n_steps, len(s))."""
        s = np.atleast_1d(np.asarray(fractions, dtype=float))
        if self._bins.size == 0:
            return np.zeros((n_steps, s.size))
        # a propagation has n_steps >= n_t - 1: every bin lies below 2*n_steps
        coef = np.zeros((s.size, 2 * n_steps), dtype=complex)
        coef[:, self._bins] = self._coef * np.exp(
            (1j * math.pi / n_steps) * np.multiply.outer(s, self._bins))
        vals = scipy.fft.ifft(coef, axis=-1, norm="forward")[:, :n_steps]
        return self._scale * vals.real.T


class _FieldEval:
    """Uniform field evaluator: zero, constant, sampled, or cosine series.

    Fields that carry a spectrum (Spectrum objects and two-view drive
    fields) are evaluated exactly through their cosine series; bare sample
    arrays through local polynomial interpolation.  on_lattice() gives the
    values at every node time of a propagation, __call__ at any times.
    """

    def __init__(self, field, grid=None):
        self.grid = grid
        if field is None:
            self._const, self._mode = 0.0, "const"
        elif isinstance(field, numbers.Number):
            self._const, self._mode = float(field), "const"
        elif isinstance(field, RealSignal):
            self.grid, self._samples, self._mode = field.grid, field.values, "samples"
        elif isinstance(field, Spectrum):
            self.grid = field.grid.time_grid()
            self._cos, self._mode = _CosineEval(field), "series"
        elif isinstance(field, np.ndarray):
            if grid is None:
                raise ValueError("array-valued field needs an explicit grid")
            if field.shape != (grid.n_t,):
                raise ValueError("field samples do not match the grid")
            self._samples, self._mode = np.asarray(field, dtype=float), "samples"
        elif hasattr(field, "native") and hasattr(field, "grid"):
            # optimization fields carry synchronized views; the cosine
            # series is their exact between-sample meaning in both reps
            self.grid = field.grid
            self._cos, self._mode = _CosineEval(field.spectrum()), "series"
        else:
            raise TypeError(f"unsupported field object {type(field).__name__}")

    def __call__(self, times):
        t = np.asarray(times, dtype=float)
        if self._mode == "const":
            return np.full(t.shape, self._const)
        if self._mode == "series":
            return self._cos(t)
        return _sample_interp(self._samples, self.grid, t)

    def on_lattice(self, n_steps, fractions):
        """Field at h(k + s_i), h = T/n_steps, k < n_steps: (n_steps, len(s))."""
        s = np.atleast_1d(np.asarray(fractions, dtype=float))
        if self._mode == "const":
            return np.full((n_steps, s.size), self._const)
        if self._mode == "series":
            return self._cos.on_lattice(n_steps, s)
        h = self.grid.T / n_steps
        return _sample_interp(self._samples, self.grid,
                              h * (np.arange(n_steps)[:, None] + s[None, :]))

    def steps(self, n_steps, s, backward):
        """Execution step k -> (field at its nodes, evaluator for bisected
        halves); a backward run executes the lattice from T down."""
        if backward:  # T - h(k + s) = h((n_steps - 1 - k) + (1 - s))
            f_all = self.on_lattice(n_steps, 1.0 - s)[::-1]
        else:
            f_all = self.on_lattice(n_steps, s)
        return lambda k: (f_all[k], self)


_StepTable = namedtuple("_StepTable", "ph ph_bar q dq ph_end")


def _same(states):
    return states


class StepSolver:
    """Per-step fixed-point solver on the internal Chebyshev nodes.

    solve() takes and returns system-basis states: the node states over
    [t0, t0+dt] (dt may be negative).  A system with an eigen() basis is
    stepped in the interaction picture of H0, psi(t0+tau) =
    V e^{-iE tau} c(tau), so H0 is exact and the iterate only carries the
    field; a bare h_apply system iterates on the states with E = 0.  A step
    is bisected, up to max_halvings times, while its Bohr spread times |dt|
    exceeds _PHASE_SPAN or its iteration stalls.  Given the previous step's
    nodes, a full step starts from their extrapolation (see picard): on the
    benchmark's workloads about 1.0-1.5 iterates per step instead of
    3.3-4.8 from the constant start.  iterates, stalls and bisections count
    this solver's work.
    """

    def __init__(self, system, rule, zeta_step, max_picard=40, max_halvings=6):
        self.system = system
        self.rule = rule
        self.s = rule.s
        self.zeta_step = zeta_step
        self.max_picard = max_picard
        self.max_halvings = max_halvings
        self._tables = {}  # step length -> _StepTable
        # Lagrange basis of the nodes s at 1 + s: node values of a step ->
        # its node polynomial's values over the next step of the same length
        self._extrap = _barycentric_interp(self.s, np.eye(len(self.s)),
                                           1.0 + self.s)
        self._last = (None, None)  # last returned nodes, their c
        self.iterates = self.stalls = self.bisections = 0
        eigen = getattr(system, "eigen", None)
        energies, vecs, coupling = eigen() if eigen else (None,) * 3
        self._energies = energies
        self.spread = 0.0 if energies is None else float(np.ptp(energies))
        # c = c0 - i dt Q conj(ph) H_I(ph c) + the source part: H_I = -eps M
        # as weight * (-M u), weight = eps conj(ph); a bare system has E = 0
        if energies is None:
            self._weight, self._rhs = (lambda f, ph_bar: f), system.h_apply
        else:
            minus_m = -coupling.astype(complex)  # no cast per iterate
            self._weight = lambda f, ph_bar: f[:, None] * ph_bar
            self._rhs = lambda u, w: w * apply_operator(minus_m, u)
        self._to_eigen = self._to_system = _same
        if vecs is not None:
            v_conj, v_t = vecs.conj(), vecs.T.copy()
            self._to_eigen = lambda u: u @ v_conj
            self._to_system = lambda c: c @ v_t

    def _table(self, dt):
        """Phases e^{-iE tau_j}, their conjugates, the integration matrices
        and the end phase e^{-iE dt} of a step of length dt, built once per
        length."""
        tab = self._tables.get(dt)
        if tab is None:
            ph = 1.0 if self._energies is None else np.exp(
                -1j * np.multiply.outer(dt * self.s, self._energies))
            qmat = self.rule.qmat
            tab = _StepTable(ph, np.conj(ph), (-1j * dt) * qmat, dt * qmat,
                             1.0 if self._energies is None else ph[-1])
            self._tables[dt] = tab
        return tab

    def picard(self, u0, f_vals, src, dt, start=None):
        """Fixed-point iteration at this step's nodes; None if stalled.

        f_vals is the field at the nodes, or a function of the node iterate
        that gives it (an immediate update, recomputed every iterate).
        Without start the iteration starts from the constant c(tau) = c0.
        start is the node states of the step of the same length just before
        this one: the iteration then starts from their node polynomial in
        the interaction picture, extrapolated over this step and rotated
        into its frame, c = (X (conj(ph) V^dagger start)) e^{-iE dt} with X
        the Lagrange matrix of the nodes s at 1 + s.  The nodes this solver
        returned last need no basis change for that.
        """
        ph, ph_bar, q, dq, ph_end = self._table(dt)
        to_eigen, to_system = self._to_eigen, self._to_system
        c0 = to_eigen(u0)
        # the source part, dq conj(ph) V^dagger src, is fixed for the step
        base = c0 if src is None else c0 + dq @ (ph_bar * to_eigen(src))
        if start is None:
            c = np.repeat(c0[None, :], len(self.s), axis=0)
        else:
            last, c_last = self._last
            c_prev = c_last if start is last else ph_bar * to_eigen(start)
            c = (self._extrap @ c_prev) * ph_end
        end_prev = c[-1]
        update = f_vals if callable(f_vals) else None
        weight = None if update is not None else self._weight(f_vals, ph_bar)
        for _ in range(self.max_picard):
            self.iterates += 1
            u = ph * c
            if update is not None:
                weight = self._weight(update(to_system(u)), ph_bar)
            c = q @ self._rhs(u, weight)
            c += base
            end = c[-1]
            diff = end - end_prev
            delta = math.sqrt(np.vdot(diff, diff).real)
            end_prev = end
            if not math.isfinite(delta):
                break
            scale = max(math.sqrt(np.vdot(end, end).real), 1e-300)
            if delta <= self.zeta_step * scale:
                out = to_system(ph * c)
                self._last = (out, c)
                return out
        self.stalls += 1
        return None

    def solve(self, u0, t0, dt, f_eval, src_frac=None, f_vals=None,
              src_vals=None, depth=0, start=None):
        """f_vals/src_vals, when given, are the field and source at this
        step's own nodes; f_eval and src_frac serve bisected halves.  The
        field may be a function of the node iterate (see picard), and so
        may what f_eval returns.  start, the previous step's nodes, seeds
        picard (see there); bisected halves start from the constant."""
        if self.spread * abs(dt) <= _PHASE_SPAN:
            if f_vals is None:
                f_vals = f_eval(t0 + dt * self.s)
            if src_vals is None and src_frac is not None:
                src_vals = src_frac(self.s)
            u = (self.picard(u0, f_vals, src_vals, dt) if start is None
                 else self.picard(u0, f_vals, src_vals, dt, start))
            if u is not None:
                return u
        if depth >= self.max_halvings:
            raise PropagationError(
                f"step at t={t0:.6g} failed to converge after "
                f"{self.max_halvings} bisections")
        self.bisections += 1
        half = 0.5 * dt
        s_left = None if src_frac is None else (lambda s: src_frac(0.5 * s))
        s_right = None if src_frac is None else (lambda s: src_frac(0.5 + 0.5 * s))
        left = self.solve(u0, t0, half, f_eval, s_left, depth=depth + 1)
        right = self.solve(left[-1], t0 + half, half, f_eval, s_right,
                           depth=depth + 1)
        return self._merge(u0, left, right)

    def _merge(self, u0, left, right):
        # reassemble the parent's node values from the two half solutions
        s, lo = self.s, self.s <= 0.5
        out = np.empty_like(left)
        out[lo] = _barycentric_interp(s, left, 2.0 * s[lo])
        out[~lo] = _barycentric_interp(s, right, 2.0 * s[~lo] - 1.0)
        out[0], out[-1] = u0, right[-1]
        return out


@dataclass(frozen=True)
class PropagationStats:
    """Counts of one propagation: its steps, the Picard iterates of all its
    step solves, the solves that stalled or diverged, and the bisections."""

    steps: int
    iterates: int
    stalls: int
    bisections: int


class Trajectory:
    """States at step boundaries (always) and internal nodes (when stored).

    Arrays follow absolute-time order regardless of propagation direction:
    boundary_states[k] is the state at k*dt_step, and step k's node j sits
    at (k + s_j)*dt_step.  When node states are not retained, step_nodes()
    re-solves the step from its stored boundary state.  That re-solve
    starts from the constant guess, where the run started from the previous
    step's extrapolation, so both meet the same per-step tolerance but may
    differ in the last digits.  stats holds the run's PropagationStats
    (None for a trajectory built outside the stepping loop).
    """

    def __init__(self, grid, rule, m, boundary_states, norms, field_nodes,
                 node_states=None, observations=None, regen=None, stats=None):
        self.grid = grid
        self.rule = rule
        self.m = m
        self.boundary_states = boundary_states
        self.norms = norms
        self.field_nodes = field_nodes
        self.node_states = node_states
        self.observations = {} if observations is None else observations
        self._regen = regen
        self.stats = stats

    @property
    def n_steps(self):
        return self.boundary_states.shape[0] - 1

    @property
    def dim(self):
        return self.boundary_states.shape[1]

    @property
    def dt_step(self):
        return self.grid.dt / self.m

    @property
    def s_nodes(self):
        return self.rule.s

    @property
    def initial_state(self):
        return self.boundary_states[0]

    @property
    def final_state(self):
        return self.boundary_states[-1]

    def grid_states(self):
        """States at the TimeGrid nodes, shape (n_t, dim)."""
        return self.boundary_states[:: self.m]

    def step_nodes(self, k):
        if self.node_states is not None:
            return self.node_states[k]
        if self._regen is None:
            raise ValueError("internal node states are unavailable")
        return self._regen(k)

    def in_basis(self, vecs):
        """This trajectory with each state c as vecs @ c, nodes when read."""
        return Trajectory(self.grid, self.rule, self.m,
                          self.boundary_states @ vecs.T, self.norms,
                          self.field_nodes, None, self.observations,
                          lambda k: self.step_nodes(k) @ vecs.T, self.stats)

    def node_expectation(self, apply_op):
        """Re(<u|Op|u>) at every internal node, shape (n_steps, n_c)."""
        n_c = self.rule.n_c
        if self.node_states is not None:
            flat = self.node_states.reshape(-1, self.dim)
            return _block_expectation(flat, apply_op).reshape(self.n_steps, n_c)
        out = np.empty((self.n_steps, n_c))
        for k in range(self.n_steps):
            out[k] = _block_expectation(self.step_nodes(k), apply_op)
        return out


def _step_solver(system, config, n_steps):
    """The StepSolver of an n_steps run under config: zeta split evenly."""
    zeta_step = max(config.zeta / n_steps, 100.0 * _EPS)
    return StepSolver(system, config.rule, zeta_step, config.max_picard,
                      config.max_halvings)


def _steps_for(config, grid):
    if config.steps % (grid.n_t - 1):
        raise ValueError("steps must be a multiple of the grid intervals")
    return config.steps // (grid.n_t - 1), config.steps


def _should_store(config, n_steps, n_c, dim):
    if config.store_nodes is not None:
        return bool(config.store_nodes)
    return n_steps * n_c * dim * 16 < _NODE_STORAGE_CAP


def _run(system, field, u_init, grid, config, backward=False, source=None,
         observables=None):
    """The stepping loop of every propagation; returns its Trajectory.

    field.steps() gives, for execution step k, the field at the step's
    nodes (values, or a function of the node iterate for an immediate
    update) and an evaluator for bisected halves.  A forward run starts at
    0; a backward one starts at T and carries the source, so execution step
    k covers forward step n_steps - 1 - k of the same node lattice, and the
    arrays are filled from the end to keep absolute-time order.
    observables are recorded on forward runs only: in one pass over the
    stored node states, or step by step when they are not stored.  Every
    step after the first starts its Picard solve from the previous step's
    nodes (see StepSolver.picard).  A run without a source conserves the
    norm, so a drift beyond 1e3*zeta raises InstabilityError.
    """
    m, n_steps = _steps_for(config, grid)
    rule = config.rule
    solver = _step_solver(system, config, n_steps)
    dim, n_c = len(u_init), rule.n_c
    h = grid.T / n_steps
    dt, t_init = (-h, grid.T) if backward else (h, 0.0)
    step_field = field.steps(n_steps, solver.s, backward)
    own_nodes = isinstance(source, _ForwardSource)

    def step_source(k):
        if source is None:
            return None, None
        i = n_steps - 1 - k

        def frac(s):
            return -source.step_values(i, 1.0 - np.asarray(s))

        # the backward step's nodes are the forward step's nodes reversed
        vals = -source.step_values(i)[::-1] if own_nodes else None
        return vals, frac

    boundaries = np.empty((n_steps + 1, dim), dtype=complex)
    norms = np.empty(n_steps + 1)
    f_nodes = np.empty((n_steps, n_c))
    store = _should_store(config, n_steps, n_c, dim)
    node_states = np.empty((n_steps, n_c, dim), dtype=complex) if store else None
    obs_maps = {name: state_map(op) for name, op in (observables or {}).items()}
    obs_out = {} if store else {name: np.empty((n_steps, n_c))
                                for name in obs_maps}
    # execution-order views of the absolute-order arrays
    ex = slice(None, None, -1) if backward else slice(None)
    b_x, norms_x, f_x = boundaries[ex], norms[ex], f_nodes[ex, ex]
    nodes_x = node_states[ex, ex] if store else None

    u = np.array(u_init, dtype=complex)
    b_x[0] = u
    ref = math.sqrt(np.vdot(u, u).real)
    norms_x[0] = ref
    guard = source is None and ref > 0.0
    nodes = None
    # a diverging iterate overflows the norm; picard's finiteness test
    # rejects the step, so the overflow itself needs no warning
    with np.errstate(over="ignore"):
        for k in range(n_steps):
            f_vals, f_at = step_field(k)
            src_vals, src_frac = step_source(k)
            nodes = solver.solve(u, t_init + dt * k, dt, f_at, src_frac,
                                 f_vals=f_vals, src_vals=src_vals,
                                 start=nodes)
            f_x[k] = f_vals(nodes) if callable(f_vals) else f_vals
            b_x[k + 1] = nodes[-1]
            u = b_x[k + 1]
            nn = math.sqrt(np.vdot(u, u).real)
            norms_x[k + 1] = nn
            if guard and abs(nn - ref) > 1e3 * config.zeta * ref:
                raise InstabilityError(
                    f"norm drifted to {nn:.6g} at t={t_init + dt * (k + 1):.6g}")
            if store:
                nodes_x[k] = nodes
            else:
                for name, amap in obs_maps.items():
                    obs_out[name][k] = _block_expectation(nodes, amap)
    stats = PropagationStats(n_steps, solver.iterates, solver.stalls,
                             solver.bisections)

    # a step is re-solved with the field values it settled on; an immediate
    # update's halves interpolate them, so its partner need not be kept
    f_half = None if callable(f_vals) else field

    def regen(k):
        kx = n_steps - 1 - k if backward else k
        t0, vals = t_init + dt * kx, f_x[kx]
        f_at = f_half if f_half is not None else (
            lambda t: _barycentric_interp(
                solver.s, vals, (np.asarray(t, dtype=float) - t0) / dt))
        src_vals, src_frac = step_source(kx)
        out = solver.solve(b_x[kx], t0, dt, f_at, src_frac, f_vals=vals,
                           src_vals=src_vals)
        return out[::-1] if backward else out

    traj = Trajectory(grid, rule, m, boundaries, norms, f_nodes, node_states,
                      obs_out, regen, stats)
    if store:
        for name, amap in obs_maps.items():
            obs_out[name] = traj.node_expectation(amap)
    return traj


def _grid_for(f_eval, grid):
    grid = f_eval.grid if f_eval.grid is not None else grid
    if grid is None:
        raise ValueError("no time grid: pass grid= or a grid-carrying field")
    return grid


def propagate_forward(system, field, psi0, config, grid=None, observables=None):
    """Propagate psi0 from 0 to T under H0 - eps(t)*mu.

    field may be a ControlField-like object, RealSignal, Spectrum, sample
    array, constant, or None; sample arrays and constants need grid=.
    observables maps names to operators whose node expectations are
    recorded during the run (kept on trajectory.observations).
    """
    f_eval = _FieldEval(field, grid)
    grid = _grid_for(f_eval, grid)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (system.dim,):
        raise ValueError("initial state does not match the system dimension")
    return _run(system, f_eval, psi0, grid, config, observables=observables)


def propagate_backward(system, field, source, chi_T, config, grid=None):
    """Propagate chi from T down to 0: dchi/dt = -iH(t)chi - S(t).

    source supplies the inhomogeneous term S(t) per forward step through
    step_values(k, s) (None means the homogeneous equation); sources read
    off a stored forward trajectory (HGSource, TDTargetSource) also give
    step_values(k) at the step's own nodes without interpolation.  The
    returned trajectory is stored in absolute-time order like a forward one.
    """
    f_eval = _FieldEval(field, grid)
    grid = _grid_for(f_eval, grid)
    chi_T = np.asarray(chi_T, dtype=complex)
    if chi_T.shape != (system.dim,):
        raise ValueError("terminal state does not match the system dimension")
    return _run(system, f_eval, chi_T, grid, config, backward=True,
                source=source)


ExpectationSignal = namedtuple("ExpectationSignal", "signal nodes")


def _grid_expectation(traj, apply_op):
    return _block_expectation(traj.grid_states(), apply_op)


def expectation_signal(traj, op):
    """Re<psi|O|psi> on the TimeGrid plus all internal nodes."""
    apply_op = state_map(op)
    grid_vals = _grid_expectation(traj, apply_op)
    node_vals = traj.node_expectation(apply_op)
    return ExpectationSignal(RealSignal(traj.grid, grid_vals), node_vals)


@dataclass(frozen=True)
class FilteredSignal:
    """A spectrally filtered real signal with exact off-grid evaluation."""

    spectrum: Spectrum
    signal: RealSignal
    _eval: _CosineEval = dataclasses.field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_eval", _CosineEval(self.spectrum))

    def at(self, times):
        return self._eval(times)

    def on_lattice(self, n_steps, fractions):
        """Values at the node times h(k + s_i), h = T/n_steps."""
        return self._eval.on_lattice(n_steps, fractions)


def hg_source_signal(traj, o_a, filt):
    """Filtered expectation signal: transform <O_a>(t), multiply by the
    filter, transform back."""
    apply_op = state_map(o_a)
    sig = RealSignal(traj.grid, _grid_expectation(traj, apply_op))
    spec = dct1(sig)
    if filt.grid != spec.grid:
        raise ValueError("filter grid does not match the trajectory grid")
    fspec = Spectrum(spec.grid, filt.values * spec.values)
    return FilteredSignal(fspec, idct1(fspec))


def terminal_chi(kappa, system, psi_T):
    """Boundary state kappa*<[H0,O]>(T) [H0,O]|psi(T)>; zero when kappa=0."""
    psi_T = np.asarray(psi_T, dtype=complex)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if kappa == 0:
        return np.zeros_like(psi_T)
    comm = commutator_H0_O(system)  # rejects [mu, O] != 0
    c_psi = comm @ psi_T
    return (kappa * np.vdot(psi_T, c_psi)) * c_psi


class _ForwardSource:
    """A backward source read off a stored forward trajectory.

    step_values(k, s) gives the source at fractions s of forward step k;
    step_values(k) gives it at the step's own nodes, read straight from the
    stored node states.
    """

    def _states(self, k, s):
        nodes = self.forward.step_nodes(k)
        if s is None:
            return nodes
        return _barycentric_interp(self.forward.s_nodes, nodes, s)


class HGSource(_ForwardSource):
    """Backward-equation source {s(t) O_a - P_f^gamma} psi(t) built from the
    stored forward trajectory and the filtered dipole signal.

    filtered is a FilteredSignal, evaluated once on the whole node lattice
    of the forward run, or None for no signal term: the source of a final
    target with forbidden states, -P_f^gamma psi(t).
    """

    def __init__(self, forward, filtered, o_a, p_f=None):
        if filtered is None and p_f is None:
            raise ValueError("a source needs a signal or a forbidden-state "
                             "projector")
        self.forward = forward
        self._filtered = filtered
        if filtered is not None:
            self._s_lattice = filtered.on_lattice(forward.n_steps,
                                                  forward.s_nodes)
        self._oa = state_map(o_a)
        self._pf = state_map(p_f)

    def step_values(self, k, s=None):
        psi = self._states(k, s)
        if self._filtered is None:
            return -self._pf(psi)
        if s is None:
            sval = self._s_lattice[k]
        else:
            h = self.forward.dt_step
            sval = self._filtered.at(k * h + h * np.asarray(s, dtype=float))
        out = sval[:, None] * self._oa(psi)
        if self._pf is not None:
            out -= self._pf(psi)
        return out


class TDTargetSource(_ForwardSource):
    """Source w(t) O(t) psi(t) for a time-dependent expectation target."""

    def __init__(self, w, op_of_t, forward):
        self.forward = forward
        self._w_eval = _FieldEval(w)
        if callable(op_of_t):
            self._op_of_t, self._const = op_of_t, None
        else:
            self._op_of_t, self._const = None, state_map(op_of_t)

    def step_values(self, k, s=None):
        psi = self._states(k, s)
        h = self.forward.dt_step
        frac = self.forward.s_nodes if s is None else np.asarray(s, dtype=float)
        times = k * h + h * frac
        if self._const is not None:
            out = self._const(psi)
        else:
            out = np.stack([np.asarray(self._op_of_t(t)) @ p
                            for t, p in zip(times, psi)])
        return np.asarray(self._w_eval(times))[:, None] * out


def td_target_source(w, op_of_t, traj):
    """Build the time-dependent-target source; warns unless int w dt = 1."""
    total = scipy.integrate.trapezoid(w.values, dx=w.grid.dt)
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"weight function integrates to {total:.6g}, not 1",
                      stacklevel=2)
    return TDTargetSource(w, op_of_t, traj)


def expm_stepper(system, field, psi0, grid, substeps=64):
    """Dense midpoint-exponential propagator, a slow cross-check for small
    systems (dim <= 16)."""
    if system.dim > 16:
        raise ValueError("dense cross-check is limited to dim <= 16")
    h0 = dense_h0(system)
    mu = dense_mu(system)
    f_eval = _FieldEval(field, grid)
    dt = grid.dt / substeps
    u = np.asarray(psi0, dtype=complex).copy()
    for i in range(grid.n_t - 1):
        for j in range(substeps):
            tm = i * grid.dt + (j + 0.5) * dt
            ham = h0 - float(f_eval(np.array([tm]))[0]) * mu
            u = scipy.linalg.expm(-1j * dt * ham) @ u
    return u
