"""Iterative maximization of the control functional.

Every scheme here shares one skeleton: propagate the state forward under
the current field, propagate a costate backward from a target-derived
boundary condition, and combine the two trajectories into a better field.
The schemes differ in the update rule:

* naive        -- replace the field by the Euler-Lagrange field outright
* relaxation   -- mix the EL field convexly with the current one, halving
                  the mixing parameter until the functional improves
* gradient     -- step along the functional gradient with a line search
* quasi-newton -- BFGS-type direction on the reduced field vector, seeded
                  by the diagonal penalty Hessian
* krotov       -- immediate update: the field is refreshed at every
                  quadrature node while the sweep is still running
* krotov-filtered -- the immediate-update iteration interrupted by a
                  spectral projection of each updated field
* degani       -- immediate update against a time-domain penalty kernel

Every scheme is a step function run by one shared loop, _drive, in the
eigen representation of H0 (system.eigen_system()); the trajectory it
returns is mapped back to the system basis once.  Degani's two kernel
sweeps are the only stepping loop outside dynamics._run, and its iterates
keep the states at the grid nodes only.  All runs produce an
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
    HGSource,
    Trajectory,
    TDTargetSource,
    default_propagator_config,
    propagate_backward,
    propagate_forward,
    state_map,
    terminal_chi,
    hg_source_signal,
    _EPS,
    _barycentric_interp,
    _run,
    _sample_interp,
    _step_solver,
    _steps_for,
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
    propagator config of None selects the default sized to the optimizer
    tolerance at run time.  psi0 and the guess must be finite; psi0 need
    not be normalized and is propagated as given.
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


def _chi_setup(ctx, traj):
    """Costate boundary condition and backward source for the target."""
    cfg = ctx.config
    psi_t = traj.final_state
    chi_t = terminal_chi(cfg.kappa, ctx.system, psi_t)
    if cfg.target == "final":
        chi_t = chi_t + state_map(ctx.o_full)(psi_t[None, :])[0]
        source = None
        if ctx.p_f is not None:
            source = HGSource(traj, None, ctx.o_a, ctx.p_f)
        return chi_t, source
    if cfg.target == "spectral":
        signal = hg_source_signal(traj, ctx.o_a, ctx.f_o)
        return chi_t, HGSource(traj, signal, ctx.o_a, ctx.p_f)
    if ctx.p_f is not None:
        raise ValueError("state restriction is incompatible with a "
                         "time-dependent target")
    return chi_t, TDTargetSource(cfg.weight, cfg.op_of_t, traj)


def _el_field(ctx, traj, chi_traj):
    if ctx.config.formulation == "frequency":
        return field_from_el_freq(ctx.system, traj, chi_traj, ctx.f_eps)
    return field_from_el_time(ctx.system, traj, chi_traj, ctx.config.alpha)


def _emit(rows, on_row, row):
    rows.append(row)
    if on_row is not None:
        on_row(row)


# ---------------------------------------------------------------------------
# the loop every scheme runs


class _Run:
    """What one run shares with its step function: system, psi0 and the
    functional in the eigen representation of H0 (basis vecs), the
    propagator, the propagations started (failed ones count), and score,
    forward()'s breakdown (evaluate unless the step factory swaps it)."""

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
        self.propagations = 0
        self.score = evaluate

    def forward(self, field):
        """Trajectory of psi0 under field and the functional it scores."""
        self.propagations += 1
        traj = propagate_forward(self.system, field, self.psi0, self.prop,
                                 grid=self.problem.grid,
                                 observables=self.ctx.observables)
        return traj, self.score(self.ctx, traj, field)

    def backward(self, field, traj):
        """Costate of the forward trajectory traj under field."""
        chi_t, source = _chi_setup(self.ctx, traj)
        self.propagations += 1
        return propagate_backward(self.system, field, source, chi_t,
                                  self.prop, grid=self.problem.grid)

    def sweep(self, *args, **kwargs):
        """One immediate-update sweep (see _immediate_sweep)."""
        self.propagations += 1
        return _immediate_sweep(*args, **kwargs)


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
        el = _el_field(run.ctx, traj, run.backward(field, traj))
        return (el, *run.forward(el), 1.0)

    return step


def _relaxation_step(run, config):
    formulation = run.ctx.config.formulation
    k = config.k_init

    def step(field, traj, br):
        nonlocal k
        el = _el_field(run.ctx, traj, run.backward(field, traj))
        while True:
            trial = el.blended_with(field, k)
            try:
                traj_t, br_t = run.forward(trial)
                j_t = br_t.j
            except (InstabilityError, PropagationError):
                traj_t, br_t, j_t = None, None, -math.inf
            if j_t > br.j:
                return trial, traj_t, br_t, k
            # a rejected step that moves nothing and loses nothing
            # means the field already solves its own update equation
            if (math.isfinite(j_t)
                    and j_t >= br.j - 1e-12 * max(1.0, abs(br.j))
                    and convergence_check(field, trial, formulation,
                                          config.tau)):
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
    never raised again.
    """
    config = config or OptimizerConfig(method="relaxation")
    return _drive(problem, config, on_row, "relaxation", _relaxation_step,
                  k0=config.k_init)


# ---------------------------------------------------------------------------
# immediate-update sweeps (Krotov and variants)


def _alpha_at_nodes(alpha, grid, n_steps, s_nodes):
    """Penalty weight as (alpha, alpha at the internal node times): two
    floats for a constant, the samples and an (n_steps, n_c) array else."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:
        if not a > 0.0:
            raise ValueError("alpha must be positive")
        return float(a), float(a)
    if a.shape != (grid.n_t,):
        raise ValueError("alpha samples do not match the grid")
    if not np.all(a > 0.0):
        raise ValueError("alpha must be positive everywhere")
    h = grid.T / n_steps
    times = ((np.arange(n_steps)[:, None] + s_nodes[None, :]) * h).ravel()
    vals = _sample_interp(a, grid, times).reshape(n_steps, len(s_nodes))
    return a, vals


def _node_update(sign, mu_partner, alpha):
    """The field sign * Im<u|mu|partner>/alpha at each node of the iterate u."""
    # Im<u|x> = -Im(u . conj(x)): conjugated and scaled once per step
    w = mu_partner.conj() * np.reshape(-sign / np.asarray(alpha), (-1, 1))
    return lambda u: np.einsum("ij,ij->i", u, w).imag


class _ImmediateField:
    """Krotov's field for _run: recomputed at every node from the iterate u
    of the step being solved, eps = sign * Im<u|mu|partner>/alpha, where u
    is the state (sign +1) or the costate (sign -1) and the partner, the
    other one, is read off its trajectory."""

    def __init__(self, system, partner, sign, alpha):
        self.system = system
        self.partner = partner
        self.sign = sign
        self.alpha, self.alpha_nodes = alpha

    def steps(self, n_steps, s, backward):
        partner, sign, alpha = self.partner, self.sign, self.alpha
        grid = partner.grid
        h = grid.T / n_steps
        scalar = isinstance(alpha, float)

        def step(k):
            i = n_steps - 1 - k if backward else k
            mu_nodes = apply_mu(self.system, partner.step_nodes(i))
            a = self.alpha_nodes if scalar else self.alpha_nodes[i]

            def halves(t):
                t = np.asarray(t, dtype=float)
                mu_t = _barycentric_interp(s, mu_nodes, (t - i * h) / h)
                a_t = alpha if scalar else _sample_interp(alpha, grid, t)
                return _node_update(sign, mu_t, a_t)

            if backward:
                return _node_update(sign, mu_nodes[::-1],
                                    a if scalar else a[::-1]), halves
            return _node_update(sign, mu_nodes, a), halves

        return step


def _immediate_sweep(system, grid, prop, u_start, partner, direction, alpha,
                     source=None):
    """Propagate u while the field is recomputed at every node.

    direction +1 runs the state forward against the costate trajectory
    partner, -1 the costate backward (with the source) against the state.
    alpha is _alpha_at_nodes' pair.  The field the sweep settled on is the
    returned trajectory's field_nodes.
    """
    field = _ImmediateField(system, partner, float(direction), alpha)
    return _run(system, field, u_start, grid, prop, backward=direction < 0,
                source=source)


def _node_grid_samples(eps_nodes, m, n_t):
    out = np.empty(n_t)
    out[:-1] = eps_nodes[::m, 0]
    out[-1] = eps_nodes[-1, -1]
    return out


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
    system, grid, prop = run.system, run.problem.grid, run.prop
    m, n_steps = _steps_for(prop, grid)
    alpha = _alpha_at_nodes(cfg.alpha, grid, n_steps, prop.rule.s)

    def step(field, traj, br):
        chi_t, source = _chi_setup(ctx, traj)
        chi_traj = run.sweep(system, grid, prop, chi_t, traj, -1, alpha,
                             source=source)
        traj_t = run.sweep(system, grid, prop, run.psi0, chi_traj,
                           +1, alpha)
        samples = _node_grid_samples(traj_t.field_nodes, m, grid.n_t)
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


def _settle_front(cross, seed, tol, cap):
    """Solve val(x) = x for the sample at the sweep front.

    cross(x) propagates the crossing with the front sample set to x and
    returns (state, val), val being the penalty-row solve there.  Plain
    repetition diverges once the local gain passes one (coarse grids), so
    after the first step the residual is driven down by secant updates.
    """
    x_prev = r_prev = None
    x = seed
    for _ in range(cap):
        state, val = cross(x)
        r = val - x
        if abs(r) <= tol * max(1.0, abs(val)):
            return state
        if x_prev is None or r == r_prev:
            x_next = val
        else:
            x_next = x - r * (x - x_prev) / (r - r_prev)
        x_prev, r_prev, x = x, r, x_next
    raise PropagationError("kernel sweep front sample did not settle")


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

    m, n_steps = _steps_for(prop, grid)
    solver = _step_solver(system, prop, n_steps)
    h_sub = grid.dt / m
    o_map = state_map(ctx.o_full)

    def score(ctx, traj, field):
        # the kernel replaces the problem's penalty term
        psi_t = traj.final_state
        wv = ww * field.time_values()
        jm = j_max_final(psi_t, ctx.o_full)
        jb = j_bound(psi_t, cfg.kappa, system, ctx.comm)
        jp = -float(wv @ beta @ wv)
        return FunctionalBreakdown(jm + jb + jp, jm, jb, 0.0, jp, 0.0)

    run.score = score

    def update(work, i, chi_i, psi_i):
        cross = float(np.vdot(chi_i, apply_mu(system, psi_i[None, :])[0]).imag)
        rest = float(beta[i] @ (ww * work)) - beta[i, i] * ww[i] * work[i]
        work[i] = (-cross - rest) / pivot[i]
        return work[i]

    def window_eval(work, lo, hi):
        # live view, linear between the crossing endpoints: matches the
        # trapezoid accuracy of the kernel itself, and unlike a wider window
        # it cannot amplify the grid-frequency mode of the sequential solve
        xs = np.arange(lo, hi + 1) * grid.dt
        vals = work[lo:hi + 1]

        def f_eval(t):
            return _barycentric_interp(xs, vals, np.asarray(t, dtype=float))

        return f_eval

    def step(field, traj, br):
        work = np.array(field.time_values(), dtype=float)
        psi_grid = traj.grid_states()

        run.propagations += 1
        chi = o_map(psi_grid[-1][None, :])[0] + terminal_chi(
            cfg.kappa, system, psi_grid[-1])
        chi_grid = np.empty((n_t, system.dim), dtype=complex)
        chi_grid[-1] = chi
        ref = float(np.linalg.norm(chi))
        update(work, n_t - 1, chi, psi_grid[-1])
        for i in range(n_t - 2, -1, -1):
            f_eval = window_eval(work, i, i + 1)
            chi0 = chi

            def cross_bwd(x, i=i):
                work[i] = x
                c = chi0
                for sub in range(m - 1, -1, -1):
                    t1 = i * grid.dt + (sub + 1) * h_sub
                    c = solver.solve(c, t1, -h_sub, f_eval)[-1]
                return c, update(work, i, c, psi_grid[i])

            chi = _settle_front(cross_bwd, work[i + 1], solver.zeta_step,
                                prop.max_picard)
            nn = float(np.linalg.norm(chi))
            if ref > 0.0 and abs(nn - ref) > 1e3 * prop.zeta * ref:
                raise InstabilityError("costate norm drifted during the "
                                       "kernel sweep")
            chi_grid[i] = chi

        run.propagations += 1
        psi = run.psi0.copy()
        ref_psi = float(np.linalg.norm(psi))
        psi_new = np.empty_like(chi_grid)
        psi_new[0] = psi
        update(work, 0, chi_grid[0], psi)
        for i in range(n_t - 1):
            f_eval = window_eval(work, i, i + 1)
            psi0_step = psi

            def cross_fwd(x, i=i):
                work[i + 1] = x
                u = psi0_step
                for sub in range(m):
                    t0 = i * grid.dt + sub * h_sub
                    u = solver.solve(u, t0, h_sub, f_eval)[-1]
                return u, update(work, i + 1, chi_grid[i + 1], u)

            # the j > i entries of work still hold the backward values,
            # so the neighbour already seeds the front sample well
            psi = _settle_front(cross_fwd, work[i + 1], solver.zeta_step,
                                prop.max_picard)
            nn = float(np.linalg.norm(psi))
            if abs(nn - ref_psi) > 1e3 * prop.zeta * ref_psi:
                raise InstabilityError("state norm drifted during the "
                                       "kernel sweep")
            psi_new[i + 1] = psi

        new_field = ControlField.from_time(grid, work)
        traj_t = Trajectory(grid, prop.rule, 1, psi_new,
                            np.linalg.norm(psi_new, axis=1), None)
        return new_field, traj_t, score(ctx, traj_t, new_field), 1.0

    return step


def optimize_degani(problem, alpha_omega, config=None, on_row=None):
    """Immediate update with the penalty expressed through the kernel
    beta(t,t') built from alpha_omega.  The field value at a grid node is
    solved from its own penalty row the moment both trajectories are known
    there: the backward sweep updates while the costate passes, the forward
    sweep while the new state passes.  The problem's alpha plays no role;
    the kernel replaces it.  Final-time targets only.  The trajectory of an
    iterate holds the states at the grid nodes only.
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


def _line_search_step(run, config, quasi):
    ctx = run.ctx
    formulation = ctx.config.formulation
    system, grid = run.system, run.problem.grid

    if formulation == "frequency":
        support = np.flatnonzero(np.isfinite(ctx.alpha_omega))
        if support.size == 0:
            raise ValueError("the penalty filter leaves no usable bins")
        alpha_red = ctx.alpha_omega[support]
        wq = grid.frequency_grid().dw / endpoint_factors(grid.n_t)[support]

        def extract(fld):
            return fld.spectrum().values[support]

        def insert(vec):
            full = np.zeros(grid.n_t)
            full[support] = vec
            return ControlField.from_spectrum(grid, full)

        def raw_gradient(fld, traj, chi):
            g = gradient_freq(system, fld, traj, chi, ctx.alpha_omega)
            return g.values[support]
    else:
        alpha_red = np.broadcast_to(
            np.asarray(ctx.config.alpha, dtype=float), (grid.n_t,))
        wq = grid.dt / endpoint_factors(grid.n_t)

        def extract(fld):
            return fld.time_values()

        def insert(vec):
            return ControlField.from_time(grid, vec)

        def raw_gradient(fld, traj, chi):
            g = gradient_time(system, fld, traj, chi, ctx.config.alpha)
            return g.values

    b0 = 1.0 / (2.0 * alpha_red * wq) if quasi else None
    hmat = np.diag(b0) if quasi else None
    x_prev = gamma_prev = None
    k_cap = config.k_max
    k_seed = min(config.k_init, k_cap)

    def step(field, traj, br):
        nonlocal hmat, x_prev, gamma_prev, k_cap, k_seed
        grad = raw_gradient(field, traj, run.backward(field, traj))
        if quasi:
            gamma = wq * grad  # functional gradient w.r.t. the bin values
            if x_prev is not None:
                s_vec = extract(field) - x_prev
                y_vec = gamma_prev - gamma  # curvature of -J
                ys = float(y_vec @ s_vec)
                if ys > 1e-12 * float(np.linalg.norm(y_vec)
                                      * np.linalg.norm(s_vec)):
                    rho = 1.0 / ys
                    hy = hmat @ y_vec
                    hmat = (hmat - rho * (np.outer(s_vec, hy)
                                          + np.outer(hy, s_vec))
                            + rho * rho * float(y_vec @ hy)
                            * np.outer(s_vec, s_vec)
                            + rho * np.outer(s_vec, s_vec))
            x_prev, gamma_prev = extract(field), gamma
            if float(np.linalg.norm(gamma)) == 0.0:
                return CONVERGED
            direction = hmat @ gamma
            if float(direction @ gamma) <= 0.0:
                hmat = np.diag(b0)
                direction = b0 * gamma
        else:
            direction = grad
            if float(np.linalg.norm(direction)) == 0.0:
                return CONVERGED

        base = extract(field)
        cache = _ProbeCache(run, lambda k: insert(base + k * direction))
        k_acc = _line_search(cache, br.j, k_seed, k_cap, config.k_floor,
                             config.ls_refine)
        if k_acc is None:
            j_small, trial, _, _ = cache.seen[min(cache.seen)]
            if (math.isfinite(j_small) and trial is not None
                    and j_small >= br.j - 1e-12 * max(1.0, abs(br.j))
                    and convergence_check(field, trial, formulation,
                                          config.tau)):
                return CONVERGED
            return K_UNDERFLOW
        k_best, (_, trial, traj_t, br_t) = cache.best()
        k_cap = k_seed = k_best  # accepted K never increases
        return trial, traj_t, br_t, k_best

    return step


def optimize_gradient(problem, config=None, on_row=None):
    """Steepest ascent on the functional gradient with a bracketing plus
    golden-section line search in the step parameter K.  A zero gradient
    converges immediately; accepted steps strictly increase J.
    """
    config = config or OptimizerConfig(method="gradient")
    return _drive(problem, config, on_row, "gradient",
                  lambda run, cfg: _line_search_step(run, cfg, False),
                  k0=config.k_init)


def optimize_quasi_newton(problem, config=None, on_row=None):
    """BFGS-type ascent on the reduced field vector: penalty-support bins in
    the frequency formulation, all samples in the time formulation.  The
    inverse curvature starts as the diagonal penalty Hessian, so the first
    direction coincides with the relaxation one; a non-ascent direction
    resets the memory to that diagonal.
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
