"""Schrodinger propagation on Chebyshev nodes with fixed-point stepping.

Forward runs are homogeneous; backward runs optionally carry an
inhomogeneous source built from the stored forward trajectory, once per run
on its whole node lattice.  A backward run reads that lattice reversed, the
field and the source alike, through one helper (_executed).  Each step
solves the integral form of the equation of motion on internal Chebyshev
nodes in the interaction picture of a diagonal H0: with psi(t0+tau) =
e^{-iE tau} c(tau), H0 is exact and the fixed-point iteration runs on
the coefficients c, carrying only the field coupling and the source.
It iterates until the change at the step end drops below a stop of zeta
per grid interval, relative to the step-start norm or to the run's
reference norm if that is larger.  Each step of a run after the first
starts from the previous step's node polynomial, extrapolated over one
more step (as in the semi-global propagator): on the benchmark's searched
lattices a step then takes about 2.0-2.3 iterates (ladder-qn-time), 2.8
(hcl-hg-relax's final forward run) and 3.6 (s2s-krotov's sweeps, on 13
nodes and steps twice as long, with a chord step on their field).
Since H0 is exact and the field is exact at any node time, one step may
span r field-grid intervals (Schaefer, Tal-Ezer & Kosloff, J. Comput.
Phys. 343, 368 (2017)): the node lattice is then coarser than the field
grid, and every reader of grid-time states goes through the steps' node
polynomials.  A converged step measures its own truncation error, the top
Chebyshev coefficient of c(tau), as that propagator does, and is bisected
when the estimate exceeds the stop, or when its iteration stalls; after
either, the following steps start at the depth that converged.
A run changes basis in one place, _run: a system whose H0 is a matrix is
stepped as its eigen_system(), the level system (E, V^dagger mu V,
V^dagger O V), with the start state and the source mapped into it by
V^dagger, and the Trajectory maps the states it is read for back by V.
The optimizers' runs step that level system themselves (V = I).
"""

import functools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .spectral import (
    RealSignal, Spectrum, chebyshev_rule, dct1, endpoint_factors,
)
from .system import apply_operator, commutator_H0_O

_EPS = float(np.finfo(float).eps)
_DEFAULT_NODES = 9  # Chebyshev nodes per step of the default propagator
# Largest Bohr spread (E_max - E_min) times |dt| of one step of the default
# config: up to here the node polynomial resolves the phases
# e^{i(E_a - E_b) tau} of the rotated coupling.  The default config's
# substeps hold to it; the solver bisects by its measured estimate instead.
_PHASE_SPAN = 0.7
# Most grid intervals a step of the optimizers' first lattice spans (see
# _long_steps).  The first lattice does not see the field, so with a small
# Bohr spread nothing else would bound its step against the field's own
# time scale, which only the grid reflects.
_LONG_INTERVALS = 16
# Forward steps per read of a source at a fraction set (_ForwardSource):
# a bisected costate's pieces read their set in blocks of this many steps,
# which bounds the waste of a lone bisected step at this many per-step reads.
_SOURCE_BLOCK = 16
# Highest Chebyshev degree of a predicted step start (_node_tables): the
# previous step's series cut there extrapolates with ||X||_inf below 9e5
# at any node count, where the full degree n_c - 1 grows past 1e17 by 25
# nodes.
_START_DEGREE = 8


class PropagationError(RuntimeError):
    """A step kept failing to converge at the smallest allowed size."""


class InstabilityError(RuntimeError):
    """Norm blow-up while propagating a homogeneous equation."""


class _Unresolved(RuntimeError):
    """A forward run under a _Searched config met a step that its lattice
    does not resolve.  depth counts the halvings the step needed: the depth
    at which its pieces passed their truncation estimate, or one more than
    the depth at which a step kept whole (a sweep's) failed it."""

    def __init__(self, t, depth):
        super().__init__(f"step at t={t:.6g} resolved only at bisection "
                         f"depth {depth}")
        self.depth = depth


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepping parameters.  steps is a multiple of the grid intervals
    n_t - 1 (m steps per interval) or divides them (one step spans
    r = (n_t - 1)/steps intervals)."""

    steps: int
    rule: object
    zeta: float
    max_picard: int = 40
    max_halvings: int = 6

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        if not self.zeta > 0:
            raise ValueError("propagator tolerance must be positive")
        if self.max_picard < 1:
            raise ValueError("max_picard must be at least 1")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


class _Searched(PropagatorConfig):
    """A lattice of the optimizers' search (optimizers._Run), which a finer
    lattice can redo: a forward run under it ends with _Unresolved at its
    first step bisected for resolution, instead of carrying on."""


def default_propagator_config(system, grid, tau=1e-3):
    """The floor lattice, with nine nodes and zeta = 1e-3*tau: one step per
    grid interval, or m substeps per interval (m a power of two) while the
    Bohr spread times the substep, spread*dt/m, exceeds _PHASE_SPAN.  The
    field does not enter: a step that it leaves unresolved, or whose
    iteration it stalls, is bisected by the solver.  A single run takes this
    lattice; the optimizers search from a longer one down to it (see
    optimizers._Run)."""
    span, n_int = float(np.ptp(system.eigen()[0])) * grid.dt, grid.n_t - 1
    steps = n_int
    while span * n_int / steps > _PHASE_SPAN:
        steps *= 2
    return PropagatorConfig(steps=steps, rule=chebyshev_rule(_DEFAULT_NODES),
                            zeta=1e-3 * tau)


def _long_steps(grid, span):
    """Steps of the longest lattice on grid: one step spans the most grid
    intervals r, a power of two dividing n_t - 1 and at most
    _LONG_INTERVALS, with span*r <= pi (span per grid interval), and r = 1
    when even one interval exceeds it."""
    n_int = grid.n_t - 1
    steps = n_int
    while (steps % 2 == 0 and 2 * n_int <= _LONG_INTERVALS * steps
           and span * n_int / (steps // 2) <= math.pi):
        steps //= 2
    return steps


def state_map(op):
    """Normalize an operator (callable, matrix, or diagonal) to a map on
    (k, dim) state blocks; an array becomes an _OperatorMap.  A callable
    is kept as it is and must return a new array."""
    if op is None or callable(op):
        return op
    return _OperatorMap(np.asarray(op))


def _floats(states):
    """Complex states as float rows holding each entry's real and imaginary
    parts side by side: a view, not a copy, of contiguous complex rows."""
    states = np.asarray(states, dtype=complex)
    if states.strides[-1] != states.itemsize:
        states = np.ascontiguousarray(states)
    return states.view(float)


class _OperatorMap:
    """An operator of apply_operator's form, applied to (k, dim) state
    blocks by its structure.

    A matrix that is exactly zero outside a set of rows and columns (O_a in
    the eigen representation of H0, a level target) is applied on that
    block only: apply_operator's products without its zero terms, summed
    in an order BLAS may choose otherwise for a complex-valued block, and
    exact for a single nonzero entry.  expectation() gives
    Re<psi|op|psi> per row without a conjugate copy of the states: a real
    diagonal as sum op |psi|^2, anything else as the dot product of the
    real views of psi and op psi, on the block.
    """

    def __init__(self, op):
        self.op = op
        self._support = None  # the block's rows and columns, if not all
        self._squares = None  # a real diagonal's weights of the float view
        if op.ndim == 2:
            nonzero = op != 0
            live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
            if live.size < len(op):
                self._block_t = op[np.ix_(live, live)].T
                contiguous = live.size and live[-1] - live[0] + 1 == live.size
                self._support = (slice(live[0], live[-1] + 1) if contiguous
                                 else live)
        elif not np.iscomplexobj(op):
            self._squares = np.repeat(op, 2)

    def __call__(self, states):
        if states.shape[-1] != len(self.op):
            raise ValueError("operator/state dimension mismatch")
        if self._support is None:
            return apply_operator(self.op, states)
        sup = self._support
        out = np.zeros(states.shape, np.result_type(states, self.op))
        out[..., sup] = states[..., sup] @ self._block_t
        return out

    def expectation(self, states):
        """Re<psi|op|psi> for each row psi of the (k, dim) states."""
        if states.shape[-1] != len(self.op):
            raise ValueError("operator/state dimension mismatch")
        if self._squares is not None:
            return np.square(_floats(states)) @ self._squares
        if self._support is not None:
            return self._on_block(states[..., self._support])
        return _real_dot(states, self(states))

    def _on_block(self, block):
        """Re<psi|op|psi> per row from the states' columns on the support
        only."""
        return _real_dot(block, block @ self._block_t)


def _real_dot(a, b):
    """Re sum_j conj(a_j) b_j for each row, from the real views."""
    return np.einsum("ij,ij->i", _floats(a), _floats(b))


def _block_expectation(states, apply_op):
    expectation = getattr(apply_op, "expectation", None)
    if expectation is not None:
        return expectation(states)
    out = apply_op(states)
    if out.shape != states.shape:
        raise ValueError("operator/state dimension mismatch")
    return _real_dot(states, out)


def _lagrange(xs, q):
    """Lagrange basis of the nodes xs at the points q, (len(q), len(xs)),
    in barycentric form; a point on a node reads that node exactly."""
    xs = np.asarray(xs, dtype=float)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    diff = xs[:, None] - xs[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    d = q[:, None] - xs[None, :]
    span = max(float(xs.max() - xs.min()), 1e-300)
    hit = np.abs(d) < 1e-13 * span
    terms = w[None, :] / np.where(hit, 1.0, d)
    out = terms / terms.sum(axis=1)[:, None]
    rows = hit.any(axis=1)
    out[rows] = hit[rows]
    return out


def _sample_interp(samples, grid, t):
    """Local polynomial interpolation of equidistant samples at the times
    t, an array: the Lagrange basis of the window of min(n_t, 6) samples
    around each time."""
    m = min(grid.n_t, 6)
    x = t.ravel() / grid.dt
    base = np.clip(np.floor(x).astype(int) - 2, 0, grid.n_t - m)
    window = samples[base[:, None] + np.arange(m)]
    out = np.einsum("ij,ij->i", _lagrange(np.arange(m), x - base), window)
    return out.reshape(t.shape)


class _CosineEval:
    """A spectrum's cosine series (support bins only) on the propagator's
    node lattice; tests/oracles.py keeps the plain direct sum,
    eval_cosine_series, that it matches.

    on_lattice() serves the node times t = h(k + s_i), h = T/n_steps.  With
    omega_j = j pi/T the phase is pi j (k + s_i)/n_steps, so for each
    fraction s_i the series over k is one inverse FFT of length 2 n_steps of
    the coefficients c_j exp(i pi j s_i/n_steps); the result is exact, not
    interpolated.  That sum is periodic in j with period 2 n_steps, so on a
    lattice of steps longer than the grid interval (2 n_steps < n_t) bin j
    is folded onto j mod 2 n_steps, keeping its phase, as
    node_cosine_transform reads it.

    The phases come from two short tables, exp(i pi j s_i/n_steps) at
    j = first + width a and at j = c < width, width about the square root
    of the bins they cover, whose products give every j = first + width a
    + c (see _table_bins).  A support of at least one period is written as
    blocks of one period, j = 2 n_steps b + m: the blocks are folded first
    with their phases exp(2 pi i b s_i), one (n_s x blocks)(blocks x
    2 n_steps) product, and the fold is then turned by the table's phases
    at m < 2 n_steps.  A smaller support takes its phases at its own bins:
    the fold would pay for a full-period table and product that it does not
    fill (timed on a 2-CPU x86 host, a 22-bin support at 64 to 1,024 steps
    reads in about 0.6 of the fold's time, and a 2,049-bin one at 2,048
    steps in about 0.9).
    """

    def __init__(self, spectrum):
        grid = spectrum.grid
        h = endpoint_factors(grid.n_t)
        idx = np.flatnonzero(spectrum.values != 0.0)
        self._bins = idx
        self._coef = spectrum.values[idx] / h[idx]
        self._scale = math.sqrt(2.0 * math.pi) / grid.T
        if idx.size:  # the tables of a read at the support's own bins,
            # and the columns of each bin's two factors in them
            first = int(idx[0])
            self._exps, width = _table_bins(first, int(idx[-1]) - first + 1)
            m = idx - first
            self._at = (m // width, m % width + len(self._exps) - width)

    def on_lattice(self, n_steps, fractions):
        """Series at h(k + s_i) for k < n_steps, shape (n_steps, len(s))."""
        s = np.atleast_1d(np.asarray(fractions, dtype=float))
        bins = self._bins
        if bins.size == 0:
            return np.zeros((n_steps, s.size))
        period = 2 * n_steps
        blocks = -(-(int(bins[-1]) + 1) // period)
        angle = (1j * math.pi / n_steps) * s
        if bins.size >= period:
            exps, width = _table_bins(0, period)
            exps = np.concatenate([period * np.arange(blocks), exps])
            e = np.exp(np.multiply.outer(angle, exps))
            table = np.zeros(blocks * period)
            table[bins] = self._coef
            fold = e[:, :blocks] @ table.reshape(blocks, period)
            hi, lo = e[:, blocks:-width], e[:, -width:]
            fold *= (hi[:, :, None] * lo[:, None, :]).reshape(
                s.size, -1)[:, :period]
        else:
            e = np.exp(np.multiply.outer(angle, self._exps))
            fold = np.zeros((s.size, blocks * period), dtype=complex)
            at_hi, at_lo = self._at
            fold[:, bins] = self._coef * e.take(at_hi, 1) * e.take(at_lo, 1)
            if blocks > 1:  # a sum over one block would only copy
                fold = fold.reshape(s.size, blocks, period).sum(axis=1)
        vals = scipy.fft.ifft(fold, axis=-1, norm="forward")[:, :n_steps]
        return self._scale * vals.real.T


def _table_bins(first, count):
    """The bins of _CosineEval's two phase tables for first <= j <
    first + count: first + width a for a < ceil(count/width), then c <
    width, with width = ceil(sqrt(count)).  Returns (bins, width)."""
    width = math.isqrt(count - 1) + 1
    return np.concatenate([first + width * np.arange(-(-count // width)),
                           np.arange(width)]), width


class _FieldEval:
    """Uniform evaluator of a scalar function of time: zero, constant,
    sampled, or cosine series (the field, the HG source's s(t), the TD
    source's w(t), Krotov's alpha).

    Fields that carry a spectrum (Spectrum objects and two-view drive
    fields) are evaluated exactly through their cosine series; bare sample
    arrays through local polynomial interpolation.  on_lattice() gives the
    values at the fractions s of every step of a lattice, and keeps them
    per (n_steps, fractions): a bisected run's pieces read the same few
    fraction sets at every step, one lattice read each.
    """

    def __init__(self, field, grid=None):
        self.grid = grid
        self._lattice = {}  # (n_steps, fraction bytes) -> on_lattice
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

    def on_lattice(self, n_steps, fractions):
        """Values at h(k + s_i), h = T/n_steps, k < n_steps: (n_steps, len(s)),
        kept per fraction set; callers must not write to them."""
        s = np.atleast_1d(np.asarray(fractions, dtype=float))
        key = (n_steps, s.tobytes())
        if key not in self._lattice:
            if self._mode == "const":
                vals = np.full((n_steps, s.size), self._const)
            elif self._mode == "series":
                vals = self._cos.on_lattice(n_steps, s)
            else:
                h = self.grid.T / n_steps
                vals = _sample_interp(self._samples, self.grid,
                                      h * (np.arange(n_steps)[:, None] + s))
            self._lattice[key] = vals
        return self._lattice[key]

    def steps(self, n_steps, s, backward):
        """Execution step k -> (field at its nodes, reader of the field at
        fractions q of the step, for bisected pieces); see _executed."""
        return _executed(self.on_lattice(n_steps, s),
                         lambda i, q: self.on_lattice(n_steps, q)[i],
                         n_steps, backward)


def _executed(lattice, at, n_steps, backward):
    """Execution step k -> (lattice[k], reader of fractions q of the step)
    for StepSolver.solve, from a node lattice in forward order,
    (n_steps, n_c, ...), or None, and at(i, q), the values at fractions q of
    forward step i.  A backward run executes the lattice from T down: its
    step k is forward step n_steps - 1 - k with the nodes reversed, and its
    fractions q are that step's 1 - q.  The lattice is reversed rather than
    read again at 1 - s, since a rule's fractions mirror only to rounding
    (about 1.1e-16 for nine Chebyshev nodes): a backward run's field and
    source are then read at the forward run's node times themselves.  A
    lattice read off a run on another number of steps raises ValueError."""
    if lattice is not None:
        if len(lattice) != n_steps:
            raise ValueError(f"the lattice was read off a run of "
                             f"{len(lattice)} steps, this run takes {n_steps}")
        if backward:
            lattice = lattice[::-1, ::-1]

    def step(k):
        vals = None if lattice is None else lattice[k]
        if backward:
            return vals, lambda q: at(n_steps - 1 - k, 1.0 - np.asarray(q))
        return vals, lambda q: at(k, q)

    return step


_StepTable = namedtuple("_StepTable", "ph ph_bar q dq ph_end")


def _same(states):
    return states


def _transpose(states):
    return states.T


def _half(frac, lo):
    """The reader of the half of a step from its fraction lo on."""
    return None if frac is None else (lambda q: frac(lo + 0.5 * q))


@functools.lru_cache(maxsize=None)
def _node_tables(s_bytes, cols):
    """StepSolver's tables of the nodes s in its layout, shared read-only:
    the top Chebyshev coefficient row; X, node values of a step -> their
    Chebyshev series of degree min(n_c - 1, _START_DEGREE) at 1 + s, over
    the next step of the same length (up to that degree the Lagrange basis
    of s at 1 + s itself); and the Lagrange bases of s at the parent's
    nodes in each half (2s for s <= 1/2, 2s - 1 above, for _merge).
    Complex, so that their products with the complex iterate cast
    nothing."""
    s = np.frombuffer(s_bytes)
    n_c = len(s)
    if n_c <= _START_DEGREE + 1:
        extrap = _lagrange(s, 1.0 + s)
    else:  # chebyshev_rule's node values -> coefficients matrix, its rows
        # up to _START_DEGREE, read at y = -1 - 2s (tau = 1 + s)
        j, h = np.arange(n_c), endpoint_factors(n_c)
        amat = (2.0 / (n_c - 1)) * np.cos(
            np.outer(j, j) * math.pi / (n_c - 1)) / np.outer(h, h)
        extrap = np.polynomial.chebyshev.chebvander(
            -1.0 - 2.0 * s, _START_DEGREE) @ amat[:_START_DEGREE + 1]

    def frozen(rows):  # complex, read-only, in the layout (a view)
        rows = rows.astype(complex)
        rows.flags.writeable = False
        return rows.T if cols else rows

    # node values -> their top (degree n_c - 1) Chebyshev coefficient
    top = frozen((-1.0) ** np.arange(n_c)
                 / (endpoint_factors(n_c) * (n_c - 1)))
    left = s <= 0.5
    return top, frozen(extrap), (
        frozen(_lagrange(s, 2.0 * s[left])),
        frozen(_lagrange(s, 2.0 * s[~left] - 1.0)))


class StepSolver:
    """Per-step fixed-point solver on the internal Chebyshev nodes.

    solve() takes and returns the node states over [t0, t0+dt] (dt may be
    negative).  A system with eigen() is stepped in the interaction picture
    of its diagonal H0, psi(t0+tau) = e^{-iE tau} c(tau), so H0 is exact and
    the iterate only carries the field; a system whose eigen() has a V, a
    matrix H0, raises ValueError (_run steps its eigen_system() instead).  A
    bare h_apply system iterates on the states with E = 0.  The
    stop is zeta_step times the step-start norm, or times floor if that is
    larger, taken once per solve: a run that conserves the norm keeps it to
    within zeta, and a costate that starts below the forward run's norm is
    scaled by that norm, its floor.  A converged step's truncation
    estimate is the norm of the top Chebyshev coefficient of its c(tau)
    over the same scale; a step is bisected, up to max_halvings times,
    while that estimate exceeds zeta_step or its iteration stalls, and the
    steps after it start at the depth that converged (see solve).  Given
    the previous step's nodes, a full step starts from their extrapolation
    (see picard): on the benchmark's searched lattices about 2.0-2.3
    iterates per step (ladder-qn-time), 2.8 (hcl-hg-relax's final forward
    run) and 3.6 (s2s-krotov's sweeps on 13 x 32: 914 iterates, where plain
    iteration took 1,804 on 9 x 64).  iterates, stalls and bisections count
    this solver's work, truncation holds the largest estimate of any
    converged solve, and unresolved the deepest bisection that any estimate
    above zeta_step called for, kept or not, over the solver's whole run
    (0 while every estimate passed; nothing resets it).

    An immediate-update field eps = Im<u|w> (Krotov's; optimizers._NodeField
    carries its weights w) is real-linear in the iterate, and recomputing it
    from every iterate slows the coupled (state, field) map: the field's
    feedback enters its contraction.  picard therefore takes a chord
    (fixed-Jacobian Newton) step on the field.  With J the (n_c x n_c) real
    response of Im<u'|w> to the field eps that takes the iterate u to u'
    (see _chord_matrix), each iterate moves the field by
    eps <- eps + K (Im<u|w> - eps), K = (I - J)^{-1}, instead of
    eps <- Im<u|w>.  The fixed point is the same, and the contraction is
    left to the state: the final forward sweep of the tests' two-level
    Krotov problem on 9 x 64 takes 2.3 iterates per step for plain
    iteration's 4.0.  K is built at the start iterate of a step and kept
    for the following steps of the same length; a solve that takes more
    than 3 iterates, or stalls, drops it, and the next solve builds it
    anew (built for every step instead, an s2s-krotov operation took 22 ms
    for 18 ms, min of 25 on a 2-CPU x86 host).  A bare h_apply system has
    no coupling matrix for J and iterates plainly.

    The iterate c is kept in one of two layouts, picked here once from the
    system.  Node rows, (n_c, dim), take the coupling product u (-M)^T in
    complex arithmetic, through the transposed view of -M kept once (a
    diagonal coupling takes the elementwise product).  Node columns,
    (dim, n_c), serve a coupling matrix with no imaginary part (a grid's
    M = V^dagger mu V) on more levels than nodes: the product -M u is then
    one real (dim x dim)(dim x 2 n_c) GEMM on the float view of u, about
    two thirds of the time of the complex one at dim = 64, while up to
    about n_c levels the rows are the cheaper.  The step tables, the
    extrapolation and merge matrices, the truncation row and the c kept in
    _last follow the layout; node states enter and leave as rows, (ph c)^T
    in columns, so nothing outside the solver sees it.  The extrapolation
    and merge matrices and the truncation row are built once per (node
    set, layout) and shared read-only (_node_tables).  Krotov's field reads
    the node rows as Im<u|w>, one vecdot (optimizers._NodeField), and its
    chord matrix is built from the same products in either layout.  The
    products of two 2-D arrays go through ndarray.dot, which at these sizes
    skips about half a microsecond of matmul's dispatch per call, with the
    same result.
    """

    def __init__(self, system, rule, zeta_step, max_picard=40, max_halvings=6,
                 floor=1e-300):
        self.system = system
        self.rule = rule
        self.s = rule.s
        self.zeta_step = zeta_step
        self.max_picard = max_picard
        self.max_halvings = max_halvings
        self.floor = floor
        self._tables = {}  # step length -> _StepTable
        eigen = getattr(system, "eigen", None)
        energies, vecs, coupling = eigen() if eigen else (None,) * 3
        if vecs is not None:
            raise ValueError("StepSolver steps a diagonal H0; step the "
                             "system's eigen_system() instead")
        n_c = len(self.s)
        self._cols = (energies is not None and np.ndim(coupling) == 2
                      and len(energies) > n_c
                      and not np.imag(coupling).any())
        self._end = (slice(None), -1) if self._cols else -1  # the last node
        self._top, self._extrap, self._halves = _node_tables(
            self.s.tobytes(), self._cols)
        self._last = (None, None, None)  # last returned nodes, c, step
        self._chord = None  # (step length, K) of an Im<u|w> field; picard
        self._hold = self._held = self._deep = 0  # see solve
        self._rejected = False
        self.iterates = self.stalls = self.bisections = self.unresolved = 0
        self.estimate = self.truncation = 0.0
        self.energies = energies
        self.spread = 0.0 if energies is None else float(np.ptp(energies))
        # c = c0 - i dt Q conj(ph) H_I(ph c) + the source part: H_I = -eps M
        # as weight * (-M u), weight = eps conj(ph); a bare system has E = 0.
        # _couple(u, weight, q) is q applied to that product, and
        # _minus_m(u) the product -M u alone (None without a coupling
        # matrix), for the chord step of picard
        self._minus_m = None
        if energies is None:
            self._weight = lambda f, ph_bar: f
            self._couple = lambda u, f, q: q.dot(system.h_apply(u, f))
        elif self._cols:
            minus_m = -np.real(coupling)  # contiguous, real

            def couple(u, w, q):
                r = minus_m.dot(u.view(float)).view(complex)
                r *= w
                return r.dot(q)

            self._weight = lambda f, ph_bar: ph_bar * f
            self._couple = couple
            self._minus_m = lambda u: minus_m.dot(u.view(float)).view(complex)
        else:
            minus_m = -coupling.astype(complex)  # no cast per iterate
            self._weight = lambda f, ph_bar: f[:, None] * ph_bar
            if minus_m.ndim == 1:  # a diagonal coupling
                self._couple = lambda u, w, q: q.dot(w * (u * minus_m))
                self._minus_m = lambda u: u * minus_m
            else:  # u (-M)^T, the transposed view kept once
                m_t = minus_m.T
                self._couple = lambda u, w, q: q.dot(w * u.dot(m_t))
                self._minus_m = lambda u: u.dot(m_t)
        self._to_rows = _transpose if self._cols else _same

    def _layout(self, rows):
        """Node rows, or a matrix acting on them from the left, in the
        iterate's layout: transposed for node columns (a view)."""
        return rows.T if self._cols else rows

    def _apply(self, m, c):
        """The node-axis matrix m, kept in the layout, applied to c."""
        return c.dot(m) if self._cols else m.dot(c)

    def _table(self, dt):
        """Phases e^{-iE tau_j}, their conjugates, the integration matrices
        and the end phase e^{-iE dt} of a step of length dt, built once per
        length in the iterate's layout."""
        tab = self._tables.get(dt)
        if tab is None:
            qmat = self.rule.qmat
            # dq is complex so that the source product casts nothing
            q, dq = (-1j * dt) * qmat, (dt * qmat).astype(complex)
            if self.energies is None:  # E = 0, one phase column
                ph = np.ones((len(self.s), 1))
            else:
                ph = np.exp(-1j * np.multiply.outer(dt * self.s,
                                                    self.energies))
            # ph_end multiplies node values: a row, or a column
            ph_end = ph[-1]
            if self._cols:
                ph, q, dq = ph.T.copy(), q.T.copy(), dq.T.copy()
                ph_end = ph_end[:, None]
            tab = _StepTable(ph, np.conj(ph), q, dq, ph_end)
            self._tables[dt] = tab
        return tab

    def picard(self, u0, f_vals, src, dt, start=None, norm=None, out=None):
        """Fixed-point iteration at this step's nodes; None if stalled.

        f_vals is the field at the nodes, or a function of the node iterate
        that gives it (an immediate update).  Such a function is called once
        per iterate, in order, with the iterate's node states as rows, and
        _run calls it once more on the converged nodes;
        a field that carries state from one call to the next (the kernel
        sweep's secant on its front sample) relies on that order.  A field
        with weights, an Im<u|w> (see the class), is iterated with the
        chord step on the field; one with settled(tol), the kernel sweep's
        front row, stops only once that also holds at zeta_step, besides
        the stop on the step end's change.
        Without start the iteration starts from the constant c(tau) = c0.
        start is the node states of the step of the same length just before
        this one: the iteration then starts from their node polynomial in
        the interaction picture, extrapolated over this step and rotated
        into its frame, c = (X (conj(ph) start)) e^{-iE dt} with X the
        extrapolation matrix of _node_tables; for the nodes this solver
        returned last, their c is kept.  norm is ||u0||, if the caller has
        it (_run takes it of every step end), and out a (n_c, dim) array
        for the converged node states, which are then written there and out
        is returned; both are passed by a run's full steps only, with their
        start.  A converged solve leaves its truncation estimate in estimate
        (see the class).
        """
        ph, ph_bar, q, dq, ph_end = self._table(dt)
        to_rows = self._to_rows
        couple, last_node, cols = self._couple, self._end, self._cols
        # c0 at every node, as a row or a column that broadcasts
        c = end_prev = u0
        if cols:
            c = c[:, None]
        # the source part, dq conj(ph) src, is fixed for the step
        base = c if src is None else c + self._apply(
            dq, ph_bar * self._layout(src))
        if start is not None:
            last, c_last, _ = self._last
            c_prev = c_last if start is last else ph_bar * self._layout(start)
            c = (c_prev.dot(self._extrap) if cols
                 else self._extrap.dot(c_prev)) * ph_end
            end_prev = c[last_node]
        update = settled = chord = eps = None
        if callable(f_vals):
            update, weight = f_vals, None
            settled = getattr(update, "settled", None)
            w = getattr(update, "weights", None)
            if w is not None and self._minus_m is not None:
                kept = self._chord
                if kept is None or kept[0] != dt:
                    kept = self._chord = dt, self._chord_matrix(
                        ph * c, w, ph, ph_bar, q)
                chord = kept[1]
        else:
            weight = self._weight(f_vals, ph_bar)
        if norm is None:
            norm = math.sqrt(np.vdot(u0, u0).real)
        scale = max(norm, self.floor)
        stop = self.zeta_step * scale
        n = 0  # iterates, added to the count once per solve
        for n in range(1, self.max_picard + 1):
            u = ph * c
            if update is not None:
                f = update(to_rows(u))
                if chord is not None:
                    if eps is not None:  # the chord step on the field
                        f = eps + chord.dot(f - eps)
                    eps = f
                weight = self._weight(f, ph_bar)
            c = couple(u, weight, q)
            c += base
            end = c[last_node]
            diff = end - end_prev
            delta = math.sqrt(np.vdot(diff, diff).real)
            end_prev = end
            if delta <= stop and (settled is None
                                  or settled(self.zeta_step)):
                if n > 3:  # K has gone stale: the next solve builds it
                    self._chord = None
                self.iterates += n
                top = c.dot(self._top) if cols else self._top.dot(c)
                self.estimate = math.sqrt(np.vdot(top, top).real) / scale
                if self.estimate > self.truncation:
                    self.truncation = self.estimate
                if out is None:
                    out = to_rows(ph * c)
                else:
                    np.multiply(ph, c, out=to_rows(out))
                self._last = (out, c, dt)
                return out
            if not math.isfinite(delta):  # NaN and inf miss the stop
                break
        self.iterates += n
        self.stalls += 1
        self._chord = None
        return None

    def _chord_matrix(self, u, w, ph, ph_bar, q):
        """K = (I - J)^-1 of the field Im<u|w> at the iterate u, in the
        layout, with w the weights as node rows.  One iterate maps the
        field eps to c' = base + Q (eps conj(ph) v), v = -M u, and
        Im<ph c'|w> responds to eps by J = Im(conj(Q) * ((conj(ph) w)
        (ph conj(v))^T)), which is real and (n_c x n_c)."""
        a = ph_bar * self._layout(w)
        b = ph * np.conj(self._minus_m(u))
        jac = (np.conj(self._layout(q)) * (a.T.dot(b) if self._cols
                                           else a.dot(b.T))).imag
        return np.linalg.inv(np.eye(len(jac)) - jac)

    def solve(self, u0, t0, dt, f_frac, src_frac=None, f_vals=None,
              src_vals=None, depth=0, start=None, hold=0, norm=None,
              out=None):
        """The step [t0, t0 + dt]; t0 serves only error messages.
        f_vals/src_vals, when given, are the field and source at this
        step's own nodes; f_frac(q) and src_frac(q) give them at fractions q
        of the step, for its nodes otherwise and for bisected pieces, whose
        fractions each halving maps into its parent's as lo + q/2.  The
        field may be a function of the node iterate (see picard), and so
        may what f_frac returns.  start, the previous step's nodes, seeds
        picard (see there); bisected halves start from the constant.  norm,
        ||u0||, and out, an array for the node states, go with start to the
        step's solve at full length (see picard): a step that converges
        there returns out, one that is bisected returns its merged nodes in
        a new array, and its pieces take their own norms.

        A converged step whose truncation estimate exceeds zeta_step is
        not resolved by its node polynomial: unresolved keeps the deepest
        bisection that would start, and the step is bisected like a stalled
        one.  Some steps are kept whatever their estimate (truncation
        reports them): a step without f_frac, which has no pieces; a step
        whose field is a function of the node iterate, since that field is
        read off the step's own nodes once the sweep is over, which halves
        would not resolve; and a step at max_halvings whose Bohr spread
        times |dt| is within _PHASE_SPAN.  A stall there, or a step at
        max_halvings still longer than that, raises PropagationError.

        A step that is unresolved, or that stalls although given a start,
        sets the depth that the steps after it are held at: they bisect
        down to it without a solve at the lengths above, and each piece
        starts from the one before it.  Every max_picard-th held step tries
        the full length again, and returns to the held depth if that fails:
        a failed try costs up to max_picard iterates, and holding a step
        that no longer needs it costs at least one."""
        retry = False
        if start is not None and not depth and self._hold:
            self._held += 1
            if self._held < self.max_picard:
                hold = self._hold
            else:
                self._held, retry = 0, True
        if depth >= hold:
            if f_vals is None:
                f_vals = f_frac(self.s)
            if src_vals is None and src_frac is not None:
                src_vals = src_frac(self.s)
            u = (self.picard(u0, f_vals, src_vals, dt) if start is None
                 else self.picard(u0, f_vals, src_vals, dt, start, norm, out))
            if u is not None and self.estimate > self.zeta_step:
                self.unresolved = max(self.unresolved, depth + 1)
                if not (f_frac is None or callable(f_vals) or (
                        depth >= self.max_halvings
                        and self.spread * abs(dt) <= _PHASE_SPAN)):
                    u, self._rejected = None, True
            if u is not None:
                if not depth:
                    self._hold = 0
                return u
            self._deep = max(self._deep, depth + 1)
            if retry:  # back to the held depth at once
                hold = self._hold
        if depth >= self.max_halvings:
            raise PropagationError(
                f"step at t={t0:.6g} failed to converge after "
                f"{self.max_halvings} bisections")
        self.bisections += 1
        half = 0.5 * dt
        held = depth < hold
        last, _, last_dt = self._last
        left = self.solve(u0, t0, half, _half(f_frac, 0.0),
                          _half(src_frac, 0.0), depth=depth + 1,
                          start=last if held and last_dt == half else None,
                          hold=hold)
        right = self.solve(left[-1], t0 + half, half, _half(f_frac, 0.5),
                           _half(src_frac, 0.5), depth=depth + 1,
                           start=left if held else None, hold=hold)
        out = self._merge(u0, left, right, half)
        if not depth:  # the deepest failure sets the depth of the next steps
            if start is not None or self._rejected:
                self._hold = max(hold, self._deep)
            self._deep, self._rejected = 0, False
        return out

    def _merge(self, u0, left, right, half):
        """The parent step's node values from its halves' node polynomials,
        taken in the parent's interaction picture c = e^{iE tau} psi (see
        Trajectory.between_nodes): the right half's own picture is turned
        by e^{iE half} into it."""
        tab = self._table(half)
        to_left, to_right = self._halves
        layout = self._layout
        c = np.concatenate([
            self._apply(to_left, tab.ph_bar * layout(left)),
            self._apply(to_right, tab.ph_bar * layout(right))
            * np.conj(tab.ph_end)], axis=int(self._cols))
        out = self._to_rows(self._table(2.0 * half).ph * c)
        out[0], out[-1] = u0, right[-1]
        return out


@dataclass(frozen=True)
class PropagationStats:
    """Counts of one propagation: its steps, the Picard iterates of all its
    step solves, the solves that stalled or diverged, the bisections, the
    most iterates one step took (its bisected pieces included), the norm
    drift, max |‖psi_k‖ - ‖psi_0‖| over the step ends, and truncation, the
    largest truncation estimate of any converged solve (see StepSolver).
    A truncation above the run's stop marks steps that were bisected
    because their lattice did not resolve them."""

    steps: int
    iterates: int
    stalls: int
    bisections: int
    max_iterates: int
    norm_drift: float
    truncation: float


def _on_grid(ends, n_int, inner):
    """Samples at the grid times i T/n_int of a lattice of len(ends) - 1
    equal steps, ends holding the values at the step boundaries.  When one
    step spans r > 1 grid intervals, inner(q) gives its r - 1 inner samples,
    the values at the fractions q = i/r of every step, (n_steps, r - 1, ...);
    inner is called only then."""
    n_steps = len(ends) - 1
    if n_steps >= n_int:
        return ends[:: n_steps // n_int]
    r = n_int // n_steps
    out = np.empty((n_int + 1,) + ends.shape[1:], dtype=ends.dtype)
    out[::r] = ends
    inner_rows = out[:-1].reshape((n_steps, r) + ends.shape[1:])
    inner_rows[:, 1:] = inner(np.arange(1, r) / r)
    return out


class Trajectory:
    """States at step boundaries and at every internal node.

    Arrays follow absolute-time order regardless of propagation direction:
    boundary_states[k] is the state at k*dt_step, and node_states[k, j],
    step k's node j, sits at (k + s_j)*dt_step, with dt_step = T/n_steps.
    A step covers one grid interval, a fraction of one, or r of them; the
    states between a step's nodes, the grid-time states among them, come
    from its node polynomial in the interaction picture of the stepped H0,
    diagonal with the energies E (None for a system without them; see
    between_nodes).  The states are stored as they were stepped; a
    trajectory with a basis V (a matrix H0's eigenvectors, from _run, or
    in_basis) returns each stored state c as V c: node_states and
    boundary_states map the stored arrays the first time each is read and
    keep them, and between_nodes and grid_states read the stored nodes and
    map only what they return.  stats holds the run's PropagationStats.
    """

    def __init__(self, grid, rule, boundary_states, norms, field_nodes,
                 node_states, stats, basis=None, energies=None):
        self.grid = grid
        self.rule = rule
        self.norms = norms
        self.field_nodes = field_nodes
        self._ends = boundary_states  # as stepped, like _nodes
        self._nodes = node_states
        self._basis = basis  # V, to apply to what is read, or None
        self._energies = energies
        self._factors = {}  # fractions -> between_nodes' factors
        self._spectra = {}  # id(map) -> (map, _expectation_spectrum)
        self.stats = stats

    def _mapped(self, stored):
        """Stored states, (..., dim), as returned: mapped by the basis."""
        if self._basis is None:
            return stored
        flat = stored.reshape(-1, self.dim) @ self._basis.T
        return flat.reshape(stored.shape)

    @functools.cached_property
    def node_states(self):
        """Internal node states, shape (n_steps, n_c, dim)."""
        return self._mapped(self._nodes)

    @functools.cached_property
    def boundary_states(self):
        """States at the step boundaries, shape (n_steps + 1, dim)."""
        return self._mapped(self._ends)

    @property
    def n_steps(self):
        return self._ends.shape[0] - 1

    @property
    def dim(self):
        return self._ends.shape[1]

    @property
    def dt_step(self):
        return self.grid.T / self.n_steps

    @property
    def s_nodes(self):
        return self.rule.s

    @property
    def initial_state(self):
        return self.boundary_states[0]

    @property
    def final_state(self):
        return self.boundary_states[-1]

    def grid_states(self, vecs=None, cols=None):
        """The one read of states at the TimeGrid nodes, (n_t, dim); given a
        unitary vecs, their coefficients vecs^dagger psi; given cols (a slice
        or index array), those columns only.  When vecs is this trajectory's
        basis (None on one without a basis), they are the stored states,
        read on cols only (ends, node rows and factors) and not mapped out
        of that basis and back; otherwise cols is taken after the mapping,
        so every entry is the one the full read gives."""
        cols = slice(None) if cols is None else cols
        if (self._basis is None if vecs is None else self._basis is not None
                and np.array_equal(vecs, self._basis)):
            return _on_grid(self._ends[:, cols], self.grid.n_t - 1,
                            lambda q: self._stored_between(q, cols=cols))
        states = _on_grid(self.boundary_states, self.grid.n_t - 1,
                          self.between_nodes)
        if vecs is not None:
            states = states @ vecs.conj()
        return states[:, cols]

    def grid_field(self):
        """The field at the grid times (a sweep's: the one it settled on),
        read off field_nodes: a step's ends at its end nodes, the samples
        inside a step of several grid intervals from its node polynomial."""
        eps = self.field_nodes
        return _on_grid(np.append(eps[:, 0], eps[-1, -1]), self.grid.n_t - 1,
                        lambda q: np.matmul(_lagrange(self.s_nodes, q),
                                            eps[..., None])[..., 0])

    def between_nodes(self, q, steps=slice(None)):
        """States at the fractions q of the given steps: (n, len(q), dim)
        for a slice of steps, (len(q), dim) for one step k.  They are read
        off each step's node polynomial in the interaction picture of H0,
        where it is smooth whatever the size of the energies:
        psi(h q) = V [(L(q) (c e^{iEhs})) e^{-iEhq}] with c the stored
        states at the nodes s and L(q) their Lagrange rows.  The factors
        that do not depend on the step, L(q), e^{iEhs} and e^{-iEhq}, are
        built the first time a fraction set is read and kept, keyed by its
        fractions, O(len(q) (n_c + dim)) each; the pieces of a bisected
        backward run read the same few sets at every step, in blocks of
        steps (see _ForwardSource).  The basis is applied to the result
        only."""
        out = self._stored_between(q, steps)
        return out if self._basis is None else out @ self._basis.T

    def _stored_between(self, q, steps=slice(None), cols=slice(None)):
        """The stored states at the fractions q of the steps, before the
        basis (see between_nodes), on the columns cols only."""
        nodes = self._nodes[steps][..., cols]
        lagrange, turn, back = self._read_factors(q)
        if turn is None:
            return np.matmul(lagrange, nodes)
        out = np.matmul(lagrange, nodes * turn[:, cols])
        out *= back[:, cols]
        return out

    def _read_factors(self, q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        key = q.tobytes()
        factors = self._factors.get(key)
        if factors is None:
            s, h, energies = self.s_nodes, self.dt_step, self._energies
            lagrange = _lagrange(s, q).astype(complex)
            factors = (lagrange, None, None) if energies is None else (
                lagrange,
                np.exp(1j * h * np.multiply.outer(s, energies)),
                np.exp(-1j * h * np.multiply.outer(q, energies)))
            self._factors[key] = factors
        return factors

    def step_nodes(self, k):
        return self.node_states[k]

    def in_basis(self, vecs):
        """This trajectory with each state c as vecs @ c; vecs is
        unitary."""
        basis = vecs if self._basis is None else vecs @ self._basis
        return Trajectory(self.grid, self.rule, self._ends, self.norms,
                          self.field_nodes, self._nodes, self.stats, basis,
                          self._energies)

    def node_expectation(self, apply_op):
        """Re(<u|Op|u>) at every internal node, shape (n_steps, n_c)."""
        flat = self.node_states.reshape(-1, self.dim)
        return _block_expectation(flat, apply_op).reshape(self.n_steps, -1)


def _steps_for(config, grid):
    """The steps of a run under config on grid, checked against the grid
    intervals: a multiple of them, or a divisor."""
    steps, n_int = config.steps, grid.n_t - 1
    if steps % n_int and n_int % steps:
        raise ValueError("steps must divide the grid intervals or be a "
                         "multiple of them")
    return steps


def _run(system, field, u_init, grid, config, backward=False, source=None):
    """The stepping loop of every propagation; returns its Trajectory.

    field.steps() gives, for execution step k, the field at the step's
    nodes (values, or a function of the node iterate for an immediate
    update) and its reader at fractions of the step, for bisected pieces;
    the source, negated, is read the same way, from its node lattice or,
    for a source with step_values only, by fractions.  A forward run starts
    at 0; a backward one starts at T and carries the source, so execution
    step k covers forward step n_steps - 1 - k of the same node lattice
    (_executed maps both), and the arrays, node states included, are filled
    from the end to keep absolute-time order.  Every step after the first
    starts its Picard solve from the previous step's nodes (see
    StepSolver.picard), with the norm of its start state, which the drift
    guard takes anyway, as its stop scale, and writes its converged nodes
    into its row of node_states; only a first or bisected step's nodes are
    copied there.  The step ends are the node rows' execution-order last
    nodes, filled in one slice after the loop, and a fixed field's node
    values are its node lattice; a field of the node iterate is read off
    each step's converged nodes.  A run
    without a source conserves the norm, so a drift beyond 1e3 times what
    its steps allow raises InstabilityError: zeta, or the steps times the
    worst truncation estimate so far if that is larger, since a step kept
    whatever its estimate (an immediate-update sweep's) errs by it.  Every
    run's stats carry its worst drift, the most iterates one step took and
    the worst truncation estimate.  The stop is
    zeta per grid interval, zeta min(h, dt)/T, however many intervals a
    step spans.  Its scale has the floor of the run's reference norm: the
    initial norm, or for a source read off a forward run the initial norm
    of that run's state if larger.  A costate enters the field and the
    gradient only through <chi|.|psi>, so its error counts against the
    state's norm; a costate that starts at zero is not held to its own
    small norm.  A forward run under a _Searched config ends with
    _Unresolved after its first step bisected for resolution.

    This is the one place where a basis changes.  A system whose
    eigen_system() has a V (a matrix H0) is stepped as that level system:
    the start state and the source rows, the node lattice and the fraction
    reads of bisected pieces alike, are mapped into its basis by V^dagger,
    and the returned Trajectory carries V as its basis, so it reads as
    system-basis states.  A field that is a function of the node iterate
    sees the iterate in the stepped basis.
    """
    system, vecs = getattr(system, "eigen_system", lambda: (system, None))()
    v_bar = None if vecs is None else vecs.conj()

    def to_level(rows):
        return rows if v_bar is None else rows @ v_bar

    n_steps = _steps_for(config, grid)
    rule = config.rule
    dim, n_c = len(u_init), rule.n_c
    n_int = grid.n_t - 1
    h = grid.T / n_steps
    dt, t_init = (-h, grid.T) if backward else (h, 0.0)
    # a source read off a forward run is built on its whole node lattice,
    # which must be this run's (see _executed)
    lattice = (source.node_values() if isinstance(source, _ForwardSource)
               else None)

    u = to_level(np.array(u_init, dtype=complex))
    ref = math.sqrt(np.vdot(u, u).real)
    floor = ref if lattice is None else max(ref,
                                            float(source.forward.norms[0]))
    solver = StepSolver(system, rule,
                        max(config.zeta / max(n_steps, n_int), 100.0 * _EPS),
                        config.max_picard, config.max_halvings,
                        max(floor, 1e-300))
    step_field = field.steps(n_steps, solver.s, backward)
    # a field other than a _FieldEval is a function of the node iterate
    # (a sweep's), read off each step's converged nodes; a fixed one is its
    # node lattice
    swept = not isinstance(field, _FieldEval)
    searched = isinstance(config, _Searched) and not backward

    executed = None if source is None else _executed(
        lattice, source.step_values, n_steps, backward)

    def step_source(k):
        if executed is None:
            return None, None
        vals, frac = executed(k)
        return (None if vals is None else to_level(-vals),
                lambda q: to_level(-frac(q)))

    boundaries = np.empty((n_steps + 1, dim), dtype=complex)
    norms = np.empty(n_steps + 1)
    f_nodes = (np.empty((n_steps, n_c)) if swept
               else field.on_lattice(n_steps, solver.s).copy())
    node_states = np.empty((n_steps, n_c, dim), dtype=complex)
    # execution-order views of the absolute-order arrays
    ex = slice(None, None, -1) if backward else slice(None)
    b_x, norms_x, f_x = boundaries[ex], norms[ex], f_nodes[ex, ex]
    nodes_x = node_states[ex, ex]

    b_x[0] = u
    norms_x[0] = nn = ref
    guard, limit = source is None and ref > 0.0, 1e3 * config.zeta * ref
    # the same limit per unit of truncation estimate: the stop is
    # zeta / max(n_steps, n_int), and a kept step errs by its estimate
    kept = 1e3 * max(n_steps, n_int) * ref
    nodes = None
    most = 0  # the most iterates one step took
    # a diverging iterate overflows the norm and then turns NaN; picard's
    # finiteness test rejects the step as a stall, so neither needs a
    # warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            f_vals, f_frac = step_field(k)
            src_vals, src_frac = step_source(k)
            before = solver.iterates
            slot = nodes_x[k]
            nodes = solver.solve(u, t_init + dt * k, dt, f_frac, src_frac,
                                 f_vals=f_vals, src_vals=src_vals,
                                 start=nodes, norm=nn, out=slot)
            if nodes is not slot:  # the first step, or a bisected one
                slot[...] = nodes
            took = solver.iterates - before
            if took > most:
                most = took
            if swept:
                f_x[k] = f_vals(nodes)
            # a contiguous row: in node columns a solve returns its rows as
            # a transposed view
            u = slot[-1]
            nn = math.sqrt(np.vdot(u, u).real)
            norms_x[k + 1] = nn
            if (guard and abs(nn - ref) > limit
                    and abs(nn - ref) > solver.truncation * kept):
                raise InstabilityError(
                    f"norm drifted to {nn:.6g} at t={t_init + dt * (k + 1):.6g}")
            if solver.unresolved and searched:
                raise _Unresolved(t_init + dt * k, solver.unresolved)
    b_x[1:] = nodes_x[:, -1]  # every step ends at its last node
    stats = PropagationStats(n_steps, solver.iterates, solver.stalls,
                             solver.bisections, most,
                             float(np.abs(norms - ref).max()),
                             solver.truncation)
    return Trajectory(grid, rule, boundaries, norms, f_nodes, node_states,
                      stats, vecs, solver.energies)


def _grid_for(f_eval, grid):
    """The field's own grid, which grid= must match, else grid=."""
    if f_eval.grid is None:
        raise ValueError("no time grid: pass grid= or a grid-carrying field")
    if grid is not None and grid != f_eval.grid:
        raise ValueError("grid= does not match the field's own grid")
    return f_eval.grid


def propagate_forward(system, field, psi0, config, grid=None):
    """Propagate psi0 from 0 to T under H0 - eps(t)*mu.

    field may be a ControlField-like object, RealSignal, Spectrum, sample
    array, constant, or None; sample arrays and constants need grid=, and
    a field with its own grid takes no other.  The returned trajectory
    keeps the states at every internal node.
    """
    f_eval = _FieldEval(field, grid)
    grid = _grid_for(f_eval, grid)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (system.dim,):
        raise ValueError("initial state does not match the system dimension")
    return _run(system, f_eval, psi0, grid, config)


def propagate_backward(system, field, source, chi_T, config, grid=None):
    """Propagate chi from T down to 0: dchi/dt = -iH(t)chi - S(t).

    source supplies the inhomogeneous term S(t) per forward step through
    step_values(k, s) (None means the homogeneous equation); sources read
    off a stored forward trajectory (HGSource, TDTargetSource) also give
    node_values(), S at every node of that run, which the steps read
    without interpolation.  The returned trajectory is stored in
    absolute-time order like a forward one.
    """
    f_eval = _FieldEval(field, grid)
    grid = _grid_for(f_eval, grid)
    chi_T = np.asarray(chi_T, dtype=complex)
    if chi_T.shape != (system.dim,):
        raise ValueError("terminal state does not match the system dimension")
    return _run(system, f_eval, chi_T, grid, config, backward=True,
                source=source)


def _grid_expectation(traj, op):
    """<op>(t) at the grid times.  An _OperatorMap with a support reads
    the states on its columns only, grid_states' cols (O_a on its allowed
    block, off the stored states in the optimizers' eigen runs)."""
    if getattr(op, "_support", None) is None:
        return _block_expectation(traj.grid_states(), op)
    if traj.dim != len(op.op):
        raise ValueError("operator/state dimension mismatch")
    return op._on_block(traj.grid_states(cols=op._support))


def _expectation_spectrum(traj, o_a):
    """dct1 of <O_a>(t) at the grid times (_grid_expectation).  For an
    _OperatorMap it is kept, read-only, on the trajectory, keyed by the map
    and holding it so that its id is not reused: a forward run's score
    (j_max_spectral) and its costate's source (hg_source_signal) read
    <O_a> once."""
    kept = traj._spectra.get(id(o_a))
    if kept is None:
        spec = dct1(RealSignal(traj.grid,
                               _grid_expectation(traj, state_map(o_a))))
        spec.values.flags.writeable = False
        kept = (o_a, spec)
        if isinstance(o_a, _OperatorMap):
            traj._spectra[id(o_a)] = kept
    return kept[1]


def hg_source_signal(traj, o_a, filt):
    """The filtered spectrum of <O_a>(t): its transform times the filter.
    Its cosine series is s(t), which HGSource reads on the node lattice."""
    spec = _expectation_spectrum(traj, o_a)
    if filt.grid != spec.grid:
        raise ValueError("filter grid does not match the trajectory grid")
    return Spectrum(spec.grid, filt.values * spec.values)


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
    """A backward source read off a stored forward trajectory, or another
    quantity read so (Krotov's weights: _ImmediateField in optimizers).

    node_values() gives the source at every node of the forward run,
    (n_steps, n_c, dim), built in one batched product the first time it is
    asked for, from the forward run's stored nodes mapped by its basis (its
    node_states is not read, so not kept); step_values(k) is its row k.
    step_values(k, s) gives the source at the fractions s of forward step
    k, the pieces of a bisected backward step.  It reads the fraction set
    for the block of _SOURCE_BLOCK forward steps that holds k in one
    between_nodes and one _values call, with the scalar part from
    scalar.on_lattice (a _FieldEval, or None for a source without one),
    and keeps only the latest block per set: a backward run, which reads
    the steps in order, reads each block once, a set holds one block, and
    a lone bisected step wastes at most the block's other steps.  Callers
    must not write to the returned rows.  Each source supplies
    _values(psi, k, s): the source at the states psi, one per row, at the
    fractions s of the steps k (an index or a slice of steps, the rows then
    step by step).
    """

    def __init__(self, forward, scalar):
        self.forward = forward
        self._scalar = scalar
        self._lattice = None
        self._blocks = {}  # fraction bytes -> (first step, block values)

    def node_values(self):
        if self._lattice is None:
            fwd = self.forward
            nodes = fwd._mapped(fwd._nodes)
            self._lattice = self._values(
                nodes.reshape(-1, fwd.dim), slice(None),
                fwd.s_nodes).reshape(nodes.shape)
        return self._lattice

    def step_values(self, k, s=None):
        if s is None:
            return self.node_values()[k]
        s = np.atleast_1d(np.asarray(s, dtype=float))
        key, first = s.tobytes(), k - k % _SOURCE_BLOCK
        kept = self._blocks.get(key)
        if kept is None or kept[0] != first:
            kept = self._blocks[key] = first, self._read_block(first, s)
        return kept[1][k - first]

    def _read_block(self, first, s):
        """The source at the fractions s of the block of steps from first
        on, (steps, len(s), dim)."""
        steps = slice(first, min(first + _SOURCE_BLOCK, self.forward.n_steps))
        psi = self.forward.between_nodes(s, steps)
        return self._values(psi.reshape(-1, psi.shape[-1]), steps,
                            s).reshape(psi.shape)

    def _scalar_at(self, k, s):
        """The scalar part at the fractions s of the steps k, one column."""
        return self._scalar.on_lattice(self.forward.n_steps, s)[k].reshape(
            -1, 1)


class HGSource(_ForwardSource):
    """Backward-equation source {s(t) O_a - P_f^gamma} psi(t) built from the
    stored forward trajectory and the filtered dipole signal.

    filtered is hg_source_signal's filtered Spectrum, or None for no
    signal term: the source of a final target with forbidden states,
    -P_f^gamma psi(t).  s(t), its cosine series, is read by a _FieldEval on
    the node lattice, exact at every node time, once for the forward run's
    nodes and once per fraction set of a bisected backward run's pieces.
    O_a and P_f^gamma are applied by their structure (see state_map): in
    the eigen representation O_a lives on the allowed block and P_f^gamma
    is diagonal.
    """

    def __init__(self, forward, filtered, o_a, p_f=None):
        if filtered is None and p_f is None:
            raise ValueError("a source needs a signal or a forbidden-state "
                             "projector")
        super().__init__(forward, None if filtered is None
                         else _FieldEval(filtered))
        self._oa = state_map(o_a)
        self._pf = state_map(p_f)

    def _values(self, psi, k, s):
        if self._scalar is None:
            out = self._pf(psi)
            return np.negative(out, out=out)
        out = self._oa(psi)
        out *= self._scalar_at(k, s)
        if self._pf is not None:
            out -= self._pf(psi)
        return out


def _op_at_nodes(op_of_t, traj, psi, k, s):
    """A callable O(t) applied to the rows psi at the times h(k + s) of
    traj's steps k (an index or a slice, the rows then step by step): row
    by row, stacking the vectors O(t) psi, never the d x d matrices."""
    times = traj.dt_step * (np.arange(traj.n_steps)[k, None] + s)
    return np.stack([np.asarray(op_of_t(t)) @ p
                     for t, p in zip(times.ravel(), psi)])


class TDTargetSource(_ForwardSource):
    """Source w(t) O(t) psi(t) for a time-dependent expectation target: one
    product for a constant O; a callable one is applied at the node times
    by _op_at_nodes, as j_max_td scores it.  w is read from
    _FieldEval.on_lattice once per fraction set."""

    def __init__(self, w, op_of_t, forward):
        super().__init__(forward, _FieldEval(w))
        self._op_of_t = op_of_t if callable(op_of_t) else None
        self._const = None if self._op_of_t is not None else state_map(op_of_t)

    def _values(self, psi, k, s):
        out = (self._const(psi) if self._const is not None
               else _op_at_nodes(self._op_of_t, self.forward, psi, k, s))
        out *= self._scalar_at(k, s)
        return out
