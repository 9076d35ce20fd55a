"""Iterative maximization of the control functional.

Every scheme here shares one skeleton: propagate the state forward under
the current field, propagate a costate backward from a target-derived
boundary condition, and combine the two trajectories into a better field.
The schemes differ in the update rule:

* naive        -- replace the field by the Euler-Lagrange field outright
* relaxation   -- mix the EL field convexly with the current one, halving
                  the mixing parameter until the functional improves
* gradient     -- steepest ascent in the penalty metric, with a line search
* quasi-newton -- the same line search along an L-BFGS direction seeded
                  by that metric, the inverse diagonal penalty Hessian
* krotov       -- immediate update: the field is refreshed at every
                  quadrature node while the sweep is still running
* krotov-filtered -- the immediate-update iteration interrupted by a
                  spectral projection of each updated field
* degani       -- immediate update against a time-domain penalty kernel

Every scheme is a step function run by one shared loop, _drive, in the
eigen representation of H0 (system.eigen_system()); the trajectory it
returns carries V as its basis (Trajectory.in_basis).  Every propagation
is one dynamics._run, the sweeps of both immediate-update schemes
included: their fields (_ImmediateField, _KernelField) are functions of
the node iterate of the step being solved.  All runs produce an
OptimizationTrace whose rows carry the functional breakdown, the mixing
parameter, the cumulative propagation count and the relative field change,
so convergence curves can be reconstructed exactly.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectral import (
    FilterSpec, RealSignal, Spectrum, dct1, endpoint_factors, make_filter,
)
from .system import apply_mu, rotate_operator
from .dynamics import (
    InstabilityError,
    PropagationError,
    PropagatorConfig,
    HGSource,
    TDTargetSource,
    default_propagator_config,
    propagate_backward,
    propagate_forward,
    terminal_chi,
    hg_source_signal,
    _EPS,
    _ForwardSource,
    _Searched,
    _Unresolved,
    _long_steps,
    _executed,
    _run,
    _FieldEval,
)
from .functionals import (
    ControlField,
    FunctionalBreakdown,
    build_beta_kernel,
    evaluate,
    field_from_el_freq,
    field_from_el_time,
    gradient_freq,
    gradient_time,
    j_bound,
    j_max_final,
    prepare_context,
)

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget-exhausted"
K_UNDERFLOW = "K-underflow"
INSTABILITY = "instability-detected"

_METHODS = ("naive", "relaxation", "gradient", "quasi-newton", "krotov",
            "krotov-filtered", "degani")

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by all schemes; fields a method ignores are harmless."""

    method: str = "relaxation"
    k_init: float = 1.0
    tau: float = 1e-3
    max_iterations: int = 500
    k_floor: float = 1e-10
    k_max: float = 2.0
    ls_refine: int = 6
    budget: int = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.k_init <= 1.0:
            raise ValueError("k_init must lie in (0, 1]")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.k_floor <= self.k_init:
            raise ValueError("k_floor must lie in (0, k_init]")
        if self.k_max < self.k_init:
            raise ValueError("k_max must be at least k_init")
        if self.ls_refine < 0:
            raise ValueError("ls_refine must be nonnegative")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1 iteration")


def _coerce_field(guess, grid, formulation):
    if isinstance(guess, ControlField):
        g = guess.grid
        if g.n_t != grid.n_t or abs(g.T - grid.T) > 1e-12 * grid.T:
            raise ValueError("guess grid does not match the problem grid")
        return guess
    if isinstance(guess, RealSignal):
        return _coerce_field(ControlField.from_time(guess.grid, guess.values),
                             grid, formulation)
    if isinstance(guess, Spectrum):
        return _coerce_field(
            ControlField.from_spectrum(guess.grid.time_grid(), guess.values),
            grid, formulation)
    arr = np.asarray(guess, dtype=float)
    if arr.ndim == 0:
        return ControlField.from_time(grid, np.full(grid.n_t, float(arr)))
    if arr.shape != (grid.n_t,):
        raise ValueError("guess samples do not match the grid")
    if formulation == "frequency":
        return ControlField.from_spectrum(grid, arr)
    return ControlField.from_time(grid, arr)


@dataclass(frozen=True)
class Problem:
    """One optimization task: system, grid, functional, start state, guess.

    guess may be a ControlField, RealSignal, Spectrum, scalar, or a sample
    vector interpreted in the formulation's native representation.  A
    propagator config of None lets the run search its lattice (see _Run)
    down to propagator_for's: the default config, the floor lattice that a
    single run takes, at the optimizer's tolerance.  psi0 and the guess
    must be finite; psi0 need not be normalized and is propagated as given.
    """

    system: object
    grid: object
    functional: object
    psi0: object
    guess: object
    propagator: object = None

    def __post_init__(self):
        psi0 = np.asarray(self.psi0, dtype=complex)
        if psi0.shape != (self.system.dim,):
            raise ValueError("psi0 does not match the system dimension")
        if not np.isfinite(psi0).all():
            raise ValueError("psi0 is not finite")
        guess = _coerce_field(self.guess, self.grid, self.functional.formulation)
        native = guess.time_values() if guess.native == "time" \
            else guess.spectrum().values
        if not np.isfinite(native).all():
            raise ValueError("guess field is not finite")
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "guess", guess)

    def propagator_for(self, config):
        if self.propagator is not None:
            return self.propagator
        return default_propagator_config(self.system, self.grid,
                                         tau=config.tau)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    breakdown: FunctionalBreakdown
    k: float
    propagations: int
    field_change: float


@dataclass
class OptimizationTrace:
    """Accepted iterates of one run.

    rows[0] echoes the guess; field/trajectory/breakdown describe the
    field the run settled on (for the filtered scheme that is the best
    iterate seen, which may precede the last row).  propagations counts
    every propagation the run started, including the work of a failed last
    iteration that no row records; it defaults to the last row's count.
    """

    method: str
    status: str
    rows: list
    field: object
    trajectory: object
    breakdown: object
    propagations: int = None

    def __post_init__(self):
        if self.propagations is None:
            self.propagations = self.rows[-1].propagations if self.rows else 0

    def js(self):
        return np.array([row.breakdown.j for row in self.rows])

    @property
    def j_monotone(self):
        js = self.js()
        slack = 1e-12 * np.maximum(1.0, np.abs(js[:-1]))
        return bool(np.all(np.diff(js) >= -slack))

    def j_at_propagations(self, p):
        """J of the last accepted iterate within p propagations."""
        best = None
        for row in self.rows:
            if row.propagations <= p:
                best = row.breakdown.j
        return best


def _native(field, formulation):
    if not hasattr(field, "time_values"):
        return np.asarray(field, dtype=float)
    return field.spectrum().values if formulation == "frequency" \
        else field.time_values()


def convergence_check(field_old, field_new, formulation, tau):
    """True when the relative field change in the formulation's native
    representation falls below tau.  A new field of zero norm converges
    only if the old one was identically zero too."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if hasattr(field_old, "grid") and hasattr(field_new, "grid"):
        if field_old.grid.n_t != field_new.grid.n_t:
            raise ValueError("fields live on different grids")
    return _rel_change(field_old, field_new, formulation) < tau


def _rel_change(field_old, field_new, formulation):
    a, b = _native(field_old, formulation), _native(field_new, formulation)
    num = float(np.linalg.norm(b - a))
    den = float(np.linalg.norm(b))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _settled(field, trial, j_trial, j, formulation, tau):
    """A rejected trial that moves nothing and loses nothing: the field
    already solves its own update equation."""
    return (math.isfinite(j_trial) and j_trial >= j - 1e-12 * max(1.0, abs(j))
            and convergence_check(field, trial, formulation, tau))


def _chi_setup(ctx, traj):
    """Costate boundary condition and backward source for the target."""
    cfg = ctx.config
    psi_t = traj.final_state
    chi_t = terminal_chi(cfg.kappa, ctx.system, psi_t)
    if cfg.target == "final":
        chi_t = chi_t + ctx.o_full_map(psi_t[None, :])[0]
        source = None
        if ctx.p_f is not None:
            source = HGSource(traj, None, ctx.o_a_map, ctx.p_f_map)
        return chi_t, source
    if cfg.target == "spectral":
        signal = hg_source_signal(traj, ctx.o_a_map, ctx.f_o)
        return chi_t, HGSource(traj, signal, ctx.o_a_map, ctx.p_f_map)
    if ctx.p_f is not None:
        raise ValueError("state restriction is incompatible with a "
                         "time-dependent target")
    return chi_t, TDTargetSource(cfg.weight, cfg.op_of_t, traj)


def _lattice_band(traj):
    """The bins whose cosines a step of traj's lattice integrates,
    omega_j h <= pi with h = T/n_steps, or j <= n_steps: the band of a
    time-form update.  None, every bin, at one step per grid interval or
    finer."""
    n = traj.n_steps
    return None if n >= traj.grid.n_t - 1 else np.arange(n + 1)


def _el_field(ctx, traj, chi_traj):
    if ctx.config.formulation == "frequency":
        return field_from_el_freq(ctx.system, traj, chi_traj, ctx.f_eps)
    return field_from_el_time(ctx.system, traj, chi_traj, ctx.config.alpha,
                              _lattice_band(traj))


def _emit(rows, on_row, row):
    rows.append(row)
    if on_row is not None:
        on_row(row)


# ---------------------------------------------------------------------------
# the loop every scheme runs


class _Run:
    """What one run shares with its step function: system, psi0 and the
    functional in the eigen representation of H0 (basis vecs), the
    propagator, the propagations started (failed and redone ones count),
    and score, forward()'s breakdown (evaluate unless the step factory
    swaps it).

    A problem without a propagator starts on the longest lattice
    (dynamics._long_steps), on which a forward run or sweep stops at the
    first step that it bisects for resolution (dynamics._Searched): such a
    lattice is too coarse to read between its nodes, as J, the HG signal
    and the returned field do.  The run then moves to the lattice that the
    step's bisection reached and redoes that propagation, and its partner
    too if the partner is on the old lattice.  Backward runs are read at
    their nodes only; they bisect and carry on.  The lattice never moves
    back within one run, nor past the floor, the default config's lattice
    of one step per grid interval or finer (see _move).  A frequency-form
    run starts no coarser than its update resolves: the update
    (field_from_el_freq, gradient_freq) carries every bin of the f_eps
    support, and a step's nodes integrate a bin's cosine up to
    omega h = pi.  A time-form update carries the band of its costate's
    lattice, omega_j h <= pi (see _lattice_band), so a time-form run
    searches from the longest lattice.
    """

    def __init__(self, problem, config):
        self.problem = problem
        self.system, vecs = problem.system.eigen_system()
        self.vecs, self.psi0, functional = vecs, problem.psi0, problem.functional
        if vecs is not None:
            self.psi0 = vecs.conj().T @ self.psi0
            if (op := functional.op_of_t) is not None:  # as V^dagger O(t) V
                functional = replace(functional, op_of_t=(
                    lambda t: rotate_operator(np.asarray(op(t)), vecs))
                    if callable(op) else rotate_operator(np.asarray(op), vecs))
        self.ctx = prepare_context(self.system, problem.grid, functional)
        self.prop = problem.propagator_for(config)
        if problem.propagator is None:
            grid, f_eps = problem.grid, self.ctx.f_eps
            sup = [] if f_eps is None else np.flatnonzero(f_eps.values > 0)
            top = grid.frequency_grid().nodes[sup[-1]] if len(sup) else 0.0
            self.floor = self.prop.steps
            self._move(_long_steps(grid, top * grid.dt))
        self.propagations = 0
        self.score = evaluate

    def _move(self, steps):
        """Go on with the search on a lattice of steps.  The search goes no
        finer than the default config's floor lattice: there runs bisect and
        carry on, as a single run does."""
        steps = min(steps, self.floor)
        cls = _Searched if steps < self.floor else PropagatorConfig
        self.prop = cls(**(vars(self.prop) | {"steps": steps}))

    def _launch(self, propagate):
        """propagate(config) on the run's lattice; None if a forward run
        stopped at an unresolved step, which moves the lattice to the
        step's depth."""
        self.propagations += 1
        try:
            return propagate(self.prop)
        except _Unresolved as err:
            self._move(self.prop.steps << err.depth)
            return None

    def on_lattice(self, traj, field):
        """traj, or the forward run of field on the run's lattice if traj
        is on another one."""
        while traj is None or traj.n_steps != self.prop.steps:
            traj = self._launch(lambda prop: propagate_forward(
                self.system, field, self.psi0, prop, grid=self.problem.grid))
        return traj

    def forward(self, field):
        """Trajectory of psi0 under field and the functional it scores."""
        traj = self.on_lattice(None, field)
        return traj, self.score(self.ctx, traj, field)

    def backward(self, field, traj):
        """The forward trajectory traj under field and its costate, on one
        lattice: traj is run again if the lattice has moved."""
        traj = self.on_lattice(traj, field)
        chi_t, source = _chi_setup(self.ctx, traj)
        return traj, self._launch(lambda prop: propagate_backward(
            self.system, field, source, chi_t, prop, grid=self.problem.grid))

    def sweep(self, field, u, backward=False, source=None):
        """One immediate-update sweep of u under field, whose steps give the
        field as a function of the node iterate (_ImmediateField,
        _KernelField); the field it settled on is the trajectory's
        field_nodes.  None if a forward sweep stopped at an unresolved
        step: the caller redoes it on the new lattice, with its partner."""
        return self._launch(lambda prop: _immediate_sweep(
            self.system, field, u, self.problem.grid, prop,
            backward=backward, source=source))


def _drive(problem, config, on_row, method, make_step, k0=1.0,
           keep_best=False):
    """Run one scheme to convergence, budget or failure.

    make_step(run, config) builds the scheme's step function once per run
    and may swap run.score; step(field, traj, breakdown) returns the
    accepted (field, trajectory, breakdown, K) or a terminal status
    (CONVERGED, K_UNDERFLOW).  A failed propagation ends the run as
    INSTABILITY.  Row 0 echoes the guess with K = k0; keep_best hands back
    the best iterate instead of the last.
    """
    run = _Run(problem, config)
    step = make_step(run, config)
    formulation = run.ctx.config.formulation
    field, rows = problem.guess, []
    try:
        traj, br = run.forward(field)
    except (InstabilityError, PropagationError):
        return OptimizationTrace(method, INSTABILITY, rows, field, None, None,
                                 run.propagations)
    _emit(rows, on_row, TraceRow(0, br, k0, run.propagations, math.nan))
    best = (field, traj, br) if keep_best else None

    limit = config.budget if config.budget is not None else config.max_iterations
    status = BUDGET_EXHAUSTED
    for it in range(1, limit + 1):
        try:
            out = step(field, traj, br)
        except (InstabilityError, PropagationError):
            status = INSTABILITY
            break
        if isinstance(out, str):
            status = out
            break
        trial, traj_t, br_t, k = out
        change = _rel_change(field, trial, formulation)
        _emit(rows, on_row, TraceRow(it, br_t, k, run.propagations, change))
        if keep_best and br_t.j > best[2].j:
            best = (trial, traj_t, br_t)
        field, traj, br = trial, traj_t, br_t
        if config.budget is None and change < config.tau:
            status = CONVERGED
            break
    if keep_best:
        field, traj, br = best
    if run.vecs is not None:
        traj = traj.in_basis(run.vecs)
    return OptimizationTrace(method, status, rows, field, traj, br,
                             run.propagations)


# ---------------------------------------------------------------------------
# naive replacement and relaxation


def _naive_step(run, config):
    def step(field, traj, br):
        el = _el_field(run.ctx, *run.backward(field, traj))
        return (el, *run.forward(el), 1.0)

    return step


def _relaxation_step(run, config):
    formulation = run.ctx.config.formulation
    k = config.k_init

    def step(field, traj, br):
        nonlocal k
        el = _el_field(run.ctx, *run.backward(field, traj))
        while True:
            trial = el.blended_with(field, k)
            try:
                traj_t, br_t = run.forward(trial)
                j_t = br_t.j
            except (InstabilityError, PropagationError):
                traj_t, br_t, j_t = None, None, -math.inf
            if j_t > br.j:
                return trial, traj_t, br_t, k
            if _settled(field, trial, j_t, br.j, formulation, config.tau):
                return CONVERGED
            k *= 0.5
            if k < config.k_floor:
                return K_UNDERFLOW

    return step


def optimize_naive(problem, config=None, on_row=None):
    """Replace the field by the Euler-Lagrange field each iteration.

    No acceptance test is applied, so the run converges only when the
    update map is already contracting near the guess; divergence shows up
    as a budget-exhausted or instability status, not an exception.
    """
    config = config or OptimizerConfig(method="naive")
    return _drive(problem, config, on_row, "naive", _naive_step)


def optimize_relaxation(problem, config=None, on_row=None):
    """Convex mixing of the Euler-Lagrange field with the current one.

    The trial field is K*el + (1-K)*current in the formulation's native
    representation; K halves until the functional strictly improves and is
    never raised again.  A time-form el carries the bins that the costate's
    lattice integrates, omega_j h <= pi with h = T/n_steps: every grid bin
    at one step per grid interval or finer.
    """
    config = config or OptimizerConfig(method="relaxation")
    return _drive(problem, config, on_row, "relaxation", _relaxation_step,
                  k0=config.k_init)


# ---------------------------------------------------------------------------
# immediate-update sweeps (Krotov and variants)


def _alpha_at_nodes(alpha, grid):
    """Penalty weight for _ImmediateField, a _FieldEval that reads it at the
    nodes and pieces of any lattice: a constant for a constant, sampled or
    not, else the samples."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim and a.shape != (grid.n_t,):
        raise ValueError("alpha samples do not match the grid")
    if not np.all(a > 0.0):
        raise ValueError("alpha must be positive")
    if np.all(a == a.flat[0]):  # interpolation would move it in the last bit
        return _FieldEval(float(a.flat[0]), grid)
    return _FieldEval(a, grid)


def _node_field(w):
    """The field Im<u|w> at each node of the iterate u: one vecdot, which
    conjugates u."""
    return lambda u: np.vecdot(u, w).imag


class _ImmediateField(_ForwardSource):
    """Krotov's field for _run: recomputed at every node from the iterate u
    of the step being solved, eps = Im<u|w>, where u is the state (sign +1)
    or the costate (sign -1) and w = sign mu|partner>/alpha.  The weights w
    are a _ForwardSource read off the partner, the other trajectory, with
    alpha (_alpha_at_nodes' _FieldEval) as its scalar part: one product per
    sweep at the partner's nodes, and for the pieces of a bisected step one
    read through its between_nodes and alpha's on_lattice, keyed by the
    pieces' fractions of the step.  _executed orders them for the sweep."""

    def __init__(self, system, partner, sign, alpha):
        super().__init__(partner, alpha)
        self.system = system
        self.sign = sign

    def _values(self, psi, k, s):
        out = apply_mu(self.system, psi)
        out *= self.sign / self._scalar_at(k, s)
        return out

    def steps(self, n_steps, s, backward):
        step = _executed(self.node_values(), self.step_values, n_steps,
                         backward)

        def field(k):
            w, frac = step(k)
            return _node_field(w), lambda q: _node_field(frac(q))

        return field


# the sweeps' propagation, under its own name: bench/tracing.py counts the
# sweeps by wrapping it
_immediate_sweep = _run


def _krotov_step(run, config, filt_values=None):
    ctx = run.ctx
    cfg = ctx.config
    if cfg.formulation != "time":
        raise ValueError("immediate-update schemes need the time-domain "
                         "penalty; use the filtered variant for spectral "
                         "shaping")
    if cfg.target == "spectral":
        raise ValueError("immediate-update schemes support final-time and "
                         "time-dependent targets only")
    system, grid = run.system, run.problem.grid
    alpha = _alpha_at_nodes(cfg.alpha, grid)

    def step(field, traj, br):
        traj_t = None
        while traj_t is None:  # until both sweeps ran on the same lattice
            traj = run.on_lattice(traj, field)
            chi_t, source = _chi_setup(ctx, traj)
            chi_traj = run.sweep(_ImmediateField(system, traj, -1.0, alpha),
                                 chi_t, backward=True, source=source)
            traj_t = run.sweep(_ImmediateField(system, chi_traj, 1.0, alpha),
                               run.psi0)
        samples = traj_t.grid_field()  # the field the sweep settled on
        if filt_values is None:
            new_field = ControlField.from_time(grid, samples)
            return new_field, traj_t, evaluate(ctx, traj_t, new_field), 1.0
        # project the updated field onto the filter, then re-propagate
        # plainly: the swept trajectory belongs to the unfiltered field
        bar = dct1(RealSignal(grid, samples))
        new_field = ControlField.from_spectrum(grid, filt_values * bar.values)
        return (new_field, *run.forward(new_field), 1.0)

    return step


def optimize_krotov(problem, config=None, on_row=None):
    """Immediate-update iteration: the backward sweep recomputes the field
    from the stored forward states node by node, the forward sweep from the
    stored costate, so every propagation uses the newest field available.
    Monotonic in exact arithmetic for final-time and time-dependent targets
    without a StateRestriction.  With forbidden states J can fall: the
    first-order update lacks the second-order term that the concave cost
    -int <P_f> needs (three-level ladder with level 2 forbidden, alpha =
    0.5: J -1.562 -> -0.739 -> -5.093).
    """
    config = config or OptimizerConfig(method="krotov")
    return _drive(problem, config, on_row, "krotov", _krotov_step)


def optimize_krotov_filtered(problem, filt, config=None, on_row=None):
    """Immediate-update iteration interrupted by a spectral projection: the
    field produced by the forward sweep is transformed, multiplied by the
    filter, transformed back, and re-propagated plainly.  The projection
    destroys monotonicity, so the trace keeps the best iterate; filt is a
    FilterSpec or a sampled filter on the problem's frequency grid.
    """
    config = config or OptimizerConfig(method="krotov-filtered")
    filt_values = _filter_values(filt, problem.grid.frequency_grid())
    return _drive(problem, config, on_row, "krotov-filtered",
                  lambda run, cfg: _krotov_step(run, cfg, filt_values),
                  keep_best=True)


def _filter_values(filt, fgrid):
    if isinstance(filt, FilterSpec):
        return make_filter(filt, fgrid).values
    if isinstance(filt, Spectrum):
        if filt.grid != fgrid:
            raise ValueError("filter grid does not match the problem grid")
        return np.asarray(filt.values, dtype=float)
    arr = np.asarray(filt, dtype=float)
    if arr.shape != (fgrid.n_t,):
        raise ValueError("filter samples do not match the frequency grid")
    return arr


# ---------------------------------------------------------------------------
# immediate update against a time-domain penalty kernel


class _KernelField:
    """The kernel (degani) scheme's field for _run, one step per grid
    interval.  Execution step k enters its interval at the known sample a
    and leaves it at the front sample x (forward: samples k and k + 1;
    backward: n - k and n - 1 - k, n = n_t - 1); at the step's nodes the
    field is (1 - s) a + s x.  solve(i, end) writes sample i of work from
    its penalty row, given the swept state at that sample, and returns it.
    Every call with a node iterate u solves the front row with u[-1].  The
    first two calls take x to that solve; later ones take a secant step on
    its residual, since the row's gain passes one on coarse grids, where
    plain repetition diverges.  The front row couples the whole interval,
    so a step cannot be bisected.  Since its samples and its secant are
    defined per execution step, it keeps its own order, not
    dynamics._executed's."""

    def __init__(self, work, solve):
        self.work, self.solve = work, solve

    def steps(self, n_steps, s, backward):
        work, solve = self.work, self.solve

        def halves(q):
            raise PropagationError("a kernel sweep step cannot be bisected")

        def step(k):
            known, front = (n_steps - k, n_steps - 1 - k) if backward \
                else (k, k + 1)
            a = work[known]
            x = x_prev = r_prev = None

            def field(u):
                nonlocal x, x_prev, r_prev
                val = x_next = solve(front, u[-1])
                if x is not None:  # else u is the predicted start
                    r = val - x
                    if x_prev is not None and r != r_prev:
                        x_next = x - r * (x - x_prev) / (r - r_prev)
                    x_prev, r_prev = x, r
                x = x_next
                return (1.0 - s) * a + s * x

            return field, halves

        return step


def _degani_step(run, config, alpha_omega):
    ctx = run.ctx
    cfg = ctx.config
    if cfg.formulation != "time":
        raise ValueError("the kernel scheme works on the time grid")
    if cfg.target != "final" or cfg.restriction is not None:
        raise ValueError("the kernel scheme supports plain final-time "
                         "targets only")
    grid, system, prop = run.problem.grid, run.system, run.prop
    n_t = grid.n_t

    aw = np.asarray(alpha_omega, dtype=float)
    beta = build_beta_kernel(aw, grid)
    ww = grid.dt / endpoint_factors(n_t)
    pivot = np.diag(beta) * ww
    scale = float(np.max(np.abs(beta)) * np.max(ww))
    if not np.all(np.abs(pivot) > 1e-12 * max(scale, _EPS)):
        raise ValueError("penalty kernel has a vanishing diagonal pivot; "
                         "the per-node solve would break down")

    if run.problem.propagator is None:
        prop = run.problem.propagator_for(config)
        if prop.steps > n_t - 1:
            raise ValueError("the kernel (degani) scheme takes one step per "
                             "grid interval, and this grid's interval is "
                             "longer than one step resolves: it needs "
                             f"n_t >= {prop.steps + 1}")
        run.prop = prop
    elif prop.steps != n_t - 1:
        raise ValueError("the kernel (degani) scheme is defined per grid "
                         "sample: its config must take one step per grid "
                         "interval")
    o_map = ctx.o_full_map

    def score(ctx, traj, field):
        # the kernel replaces the problem's penalty term
        psi_t = traj.final_state
        wv = ww * field.time_values()
        jm = j_max_final(psi_t, ctx.o_full)
        jb = j_bound(psi_t, cfg.kappa, system)
        jp = -float(wv @ beta @ wv)
        return FunctionalBreakdown(jm + jb + jp, jm, jb, 0.0, jp, 0.0)

    run.score = score

    def update(work, i, chi_i, psi_i):
        cross = float(np.vdot(chi_i, apply_mu(system, psi_i[None, :])[0]).imag)
        rest = float(beta[i] @ (ww * work)) - beta[i, i] * ww[i] * work[i]
        work[i] = (-cross - rest) / pivot[i]
        return work[i]

    def step(field, traj, br):
        work = np.array(field.time_values(), dtype=float)
        psi = traj.grid_states()
        chi_t = o_map(psi[-1][None, :])[0] + terminal_chi(cfg.kappa, system,
                                                           psi[-1])
        update(work, n_t - 1, chi_t, psi[-1])
        chi = run.sweep(_KernelField(
            work, lambda i, c: update(work, i, c, psi[i])),
            chi_t, backward=True).boundary_states
        update(work, 0, chi[0], run.psi0)
        # the samples ahead of the front still hold the backward sweep's
        # values while the forward sweep crosses them
        traj_t = run.sweep(_KernelField(
            work, lambda i, u: update(work, i, chi[i], u)), run.psi0)
        new_field = ControlField.from_time(grid, work)
        return new_field, traj_t, score(ctx, traj_t, new_field), 1.0

    return step


def optimize_degani(problem, alpha_omega, config=None, on_row=None):
    """Immediate update with the penalty expressed through the kernel
    beta(t,t') built from alpha_omega.  The field value at a grid node is
    solved from its own penalty row the moment both trajectories are known
    there: the backward sweep updates while the costate passes, the forward
    sweep while the new state passes.  The problem's alpha plays no role;
    the kernel replaces it.  Final-time targets only.  Each sweep is one
    propagation of one step per grid interval (see _KernelField), as the
    default config takes unless it substeps: an explicit config with
    another step count, or a grid whose interval the default config
    substeps, raises ValueError.
    """
    config = config or OptimizerConfig(method="degani")
    return _drive(problem, config, on_row, "degani",
                  lambda run, cfg: _degani_step(run, cfg, alpha_omega))


# ---------------------------------------------------------------------------
# gradient ascent and quasi-Newton, sharing one line search


def _line_search(probe, j0, k_seed, k_cap, k_floor, n_refine):
    """Deterministic bracketing plus golden-section refinement on (0, k_cap].

    probe(k) evaluates and caches a trial; returns None when no probed K
    improves on j0 before k_floor, else the best K seen.  The seed is
    probed first and exactly, so an exact optimum at the seed survives
    refinement bit for bit.
    """
    k1 = min(k_seed, k_cap)
    j1 = probe(k1)
    if j1 > j0:
        a, mid, f_mid = 0.0, k1, j1
        b = None
        while mid < k_cap:
            nxt = min(2.0 * mid, k_cap)
            f_nxt = probe(nxt)
            if f_nxt <= f_mid:
                b = nxt
                break
            a, mid, f_mid = mid, nxt, f_nxt
        if b is None:
            return mid  # improving all the way to the cap
    else:
        k = k1
        while True:
            k *= 0.5
            if k < k_floor:
                return None
            jk = probe(k)
            if jk > j0:
                break
        a, mid, f_mid = 0.0, k, jk
        b = 2.0 * k  # already probed, not better than j0

    for _ in range(n_refine):
        if (mid - a) > (b - mid):
            x = mid - (1.0 - _INV_PHI) * (mid - a)
            fx = probe(x)
            if fx > f_mid:
                b, mid, f_mid = mid, x, fx
            else:
                a = x
        else:
            x = mid + (1.0 - _INV_PHI) * (b - mid)
            fx = probe(x)
            if fx > f_mid:
                a, mid, f_mid = mid, x, fx
            else:
                b = x
    return mid


class _ProbeCache:
    """Evaluates trial fields once per K and remembers the best."""

    def __init__(self, run, make_field):
        self.run = run
        self.make_field = make_field
        self.seen = {}

    def __call__(self, k):
        if k in self.seen:
            return self.seen[k][0]
        trial = self.make_field(k)
        try:
            traj, br = self.run.forward(trial)
            j = br.j
        except (InstabilityError, PropagationError):
            traj, br, j = None, None, -math.inf
        self.seen[k] = (j, trial, traj, br)
        return j

    def best(self):
        k_best, payload = None, None
        for k, entry in self.seen.items():
            if payload is None or entry[0] > payload[0]:
                k_best, payload = k, entry
        return k_best, payload


class _InverseCurvature:
    """Inverse BFGS curvature of -J: diag(b0) updated by the kept pairs
    (s, y, 1/y.s) through the two-loop recursion (Nocedal, Math. Comp. 35,
    773 (1980)).  A non-ascent direction drops the pairs, giving b0 gamma."""

    def __init__(self, b0):
        self.b0, self.pairs = b0, []

    def add(self, s_vec, y_vec):
        ys = float(y_vec @ s_vec)
        if ys > 1e-12 * float(np.linalg.norm(y_vec) * np.linalg.norm(s_vec)):
            self.pairs.append((s_vec, y_vec, 1.0 / ys))

    def direction(self, gamma):
        q, coefs = gamma.copy(), []
        for s_vec, y_vec, rho in reversed(self.pairs):
            coefs.append(rho * float(s_vec @ q))
            q -= coefs[-1] * y_vec
        r = self.b0 * q
        for (s_vec, y_vec, rho), a in zip(self.pairs, reversed(coefs)):
            r += (a - rho * float(y_vec @ r)) * s_vec
        if float(r @ gamma) <= 0.0:
            self.pairs.clear()
            r = self.b0 * gamma
        return r


def _line_search_step(run, config, keep_pairs):
    ctx, grid = run.ctx, run.problem.grid
    formulation = ctx.config.formulation
    if formulation == "frequency":
        penalty, dx, gradient, build = (ctx.alpha_omega,
                                        grid.frequency_grid().dw,
                                        gradient_freq,
                                        ControlField.from_spectrum)
    else:
        penalty, dx, build = ctx.config.alpha, grid.dt, ControlField.from_time

        def gradient(system, field, traj, chi, alpha):
            return gradient_time(system, field, traj, chi, alpha,
                                 _lattice_band(traj))
    # the reduced field vector: the samples or bins where alpha is finite
    alpha = np.broadcast_to(np.asarray(penalty, dtype=float), (grid.n_t,))
    support = np.flatnonzero(np.isfinite(alpha))
    if support.size == 0:
        raise ValueError("the penalty filter leaves no usable bins")
    wq = dx / endpoint_factors(grid.n_t)[support]
    curvature = _InverseCurvature(1.0 / (2.0 * alpha[support] * wq))
    last = None  # (field vector, gamma) of the previous step
    k_cap, k_seed = config.k_max, min(config.k_init, config.k_max)

    def insert(vec):
        full = np.zeros(grid.n_t)
        full[support] = vec
        return build(grid, full)

    def step(field, traj, br):
        nonlocal last, k_cap, k_seed
        traj, chi = run.backward(field, traj)
        # functional gradient w.r.t. the reduced field vector
        gamma = wq * gradient(run.system, field, traj, chi,
                              penalty).values[support]
        base = _native(field, formulation)[support]
        if keep_pairs and last is not None:  # a curvature pair of -J
            curvature.add(base - last[0], last[1] - gamma)
        last = base, gamma
        if float(np.linalg.norm(gamma)) == 0.0:
            return CONVERGED
        direction = curvature.direction(gamma)
        cache = _ProbeCache(run, lambda k: insert(base + k * direction))
        k_acc = _line_search(cache, br.j, k_seed, k_cap, config.k_floor,
                             config.ls_refine)
        if k_acc is None:
            j_small, trial, _, _ = cache.seen[min(cache.seen)]
            return (CONVERGED if _settled(field, trial, j_small, br.j,
                                          formulation, config.tau)
                    else K_UNDERFLOW)
        k_best, (_, trial, traj_t, br_t) = cache.best()
        k_cap = k_seed = k_best  # accepted K never increases
        return trial, traj_t, br_t, k_best

    return step


def optimize_gradient(problem, config=None, on_row=None):
    """Steepest ascent in the penalty metric, with a bracketing plus
    golden-section line search in the step parameter K.  The direction is
    b0 * gamma: gamma is the gradient of J on the reduced field vector (see
    optimize_quasi_newton) and b0 = 1/(2 alpha w), w the quadrature weights,
    inverts the diagonal penalty Hessian.  So K = 1 is a relaxation-sized
    step, and bins that a hat-sech tail pins (alpha up to 1e300) stay put.
    In the time formulation gamma's cross term carries the band of the
    costate's lattice (see optimize_quasi_newton).
    A zero gradient converges immediately; accepted steps strictly increase J.
    """
    config = config or OptimizerConfig(method="gradient")
    return _drive(problem, config, on_row, "gradient",
                  lambda run, cfg: _line_search_step(run, cfg, False),
                  k0=config.k_init)


def optimize_quasi_newton(problem, config=None, on_row=None):
    """BFGS ascent on the reduced field vector: penalty-support bins in the
    frequency formulation, the time samples in the time formulation.  There
    the gradient's cross term Im<chi|mu|psi> carries the bins that the
    costate's lattice integrates, omega_j h <= pi with h = T/n_steps (every
    grid bin at one step per grid interval or finer), and its alpha eps
    part is not filtered.  The two-loop L-BFGS recursion refines
    optimize_gradient's b0 * gamma by every accepted curvature pair; with
    no memory limit it equals dense BFGS started from diag(b0) (de
    Fouquieres et al., J. Magn. Reson. 212, 412 (2011)).  So the first
    direction is the relaxation one; a non-ascent direction drops the
    pairs.
    """
    config = config or OptimizerConfig(method="quasi-newton")
    return _drive(problem, config, on_row, "quasi-newton",
                  lambda run, cfg: _line_search_step(run, cfg, True),
                  k0=config.k_init)


def optimize(problem, config, on_row=None, **kwargs):
    """Dispatch on config.method; kernel and filter arguments arrive as
    alpha_omega= and filt= keywords."""
    method = config.method
    if method == "naive":
        return optimize_naive(problem, config, on_row=on_row)
    if method == "relaxation":
        return optimize_relaxation(problem, config, on_row=on_row)
    if method == "gradient":
        return optimize_gradient(problem, config, on_row=on_row)
    if method == "quasi-newton":
        return optimize_quasi_newton(problem, config, on_row=on_row)
    if method == "krotov":
        return optimize_krotov(problem, config, on_row=on_row)
    if method == "krotov-filtered":
        if "filt" not in kwargs:
            raise ValueError("the filtered scheme needs filt=")
        return optimize_krotov_filtered(problem, kwargs["filt"], config,
                                        on_row=on_row)
    if method == "degani":
        if "alpha_omega" not in kwargs:
            raise ValueError("the kernel scheme needs alpha_omega=")
        return optimize_degani(problem, kwargs["alpha_omega"], config,
                               on_row=on_row)
    raise ValueError(f"unknown method {method!r}")
