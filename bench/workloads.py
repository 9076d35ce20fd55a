"""The three benchmark workloads, built through the public API of specdrive.

Each workload has a ``setup(seed)`` that does everything a user does before
calling ``optimize`` (domain search, system, eigenbasis, filters, Problem)
and an ``operation(state)`` that is the one timed call: the optimizer run to
its fixed iteration budget (plus the mechanism analysis on hcl-hg-relax).

The seed only perturbs the guess field's amplitudes and phases; the program
receives the generated guess and nothing else.  The perturbation is small
on purpose: a different seed must not change any accept/reject decision of
the optimizer, so every seed does the same amount of work.
"""

import math
from dataclasses import dataclass

import numpy as np

# analysis and optimize are called through their modules, so that the traced
# run's wrappers on those module attributes see the calls
from hostref import KernelMix

import specdrive.analysis as analysis
import specdrive.optimizers as optimizers
from specdrive.functionals import FunctionalConfig
from specdrive.optimizers import OptimizerConfig, Problem
from specdrive.spectral import (
    FilterSpec, RealSignal, TimeGrid, dct1, make_filter,
)
from specdrive.system import (
    StateRestriction, build_grid_system, build_level_system, choose_x_domain,
    diagonalize, hcl_dipole, morse_potential, projectors,
)

DEFAULT_SEED = 1

# relative amplitude and absolute phase (rad) spread of the seeded guess
AMP_JITTER = 1e-3
PHASE_JITTER = 1e-3


def _jitter(seed, n):
    rng = np.random.default_rng(seed)
    amp = 1.0 + AMP_JITTER * rng.uniform(-1.0, 1.0, n)
    phase = PHASE_JITTER * rng.uniform(-1.0, 1.0, n)
    return amp, phase


@dataclass
class Prepared:
    """What setup hands to the operation and to the reference checks."""

    problem: Problem
    config: OptimizerConfig
    model: dict  # plain physical parameters, for the independent reference
    extra: dict  # analysis inputs (hcl-hg-relax only)


# --------------------------------------------------------------------------
# hcl-hg-relax: the paper's problem


HCL_D0, HCL_A, HCL_MASS = 0.171, 0.975, 1785.0
HCL_N_GRID, HCL_T, HCL_NT = 64, 2000.0, 1025
HCL_L = 5
HCL_F_EPS_AMP, HCL_F_EPS_STEEP = 1.0e3, 4.0e9
HCL_GUESS_AMP = 0.01
HCL_BUDGET, HCL_K_INIT = 1, 0.25


def setup_hcl(seed):
    mp = morse_potential(HCL_D0, HCL_A)
    xl, xr = choose_x_domain(mp, HCL_MASS, HCL_N_GRID,
                             v_cap=(1.0 - 1e-6) * HCL_D0)
    system = build_grid_system(xl, xr, HCL_N_GRID, HCL_MASS, mp, hcl_dipole)
    basis = diagonalize(system)
    w10 = float(basis.energies[1] - basis.energies[0])
    grid = TimeGrid(HCL_T, HCL_NT)
    fgrid = grid.frequency_grid()
    f_eps = FilterSpec.hat_sech(w10, HCL_F_EPS_STEEP, amplitude=HCL_F_EPS_AMP)
    f_o_coefficient = 1.0 / (3.0 * fgrid.dw) ** 2  # about 3 bins wide
    f_o = FilterSpec.gaussian(2.0 * w10, f_o_coefficient)
    restriction = StateRestriction(
        HCL_L, np.ones(HCL_N_GRID - HCL_L - 1))
    functional = FunctionalConfig(formulation="frequency", target="spectral",
                                  f_eps=f_eps, f_o=f_o,
                                  restriction=restriction)
    # guess: the fundamental plus a weak line just above it, shaped by the
    # penalty filter so it carries nothing where the filter vanishes
    amp, phase = _jitter(seed, 2)
    t = grid.nodes
    g = HCL_GUESS_AMP * (amp[0] * np.cos(w10 * t + phase[0])
                         + 0.1 * amp[1] * np.cos(1.02 * w10 * t + phase[1]))
    f_eps_sampled = make_filter(f_eps, fgrid)
    guess = dct1(RealSignal(grid, g)).values * (
        f_eps_sampled.values / f_eps_sampled.values.max())
    problem = Problem(system, grid, functional, basis.states[:, 0], guess)
    p_a, _ = projectors(basis, restriction)
    o_a = p_a @ np.diag(system.target) @ p_a
    o_a = 0.5 * (o_a + o_a.conj().T)
    model = dict(kind="grid", x_min=xl, x_max=xr, n_grid=HCL_N_GRID,
                 mass=HCL_MASS, d0=HCL_D0, a=HCL_A, T=HCL_T, n_t=HCL_NT,
                 L=HCL_L, f_o=(2.0 * w10, f_o_coefficient, 1.0))
    config = OptimizerConfig(method="relaxation", budget=HCL_BUDGET,
                             k_init=HCL_K_INIT)
    return Prepared(problem, config, model,
                    dict(basis=basis, o_a=o_a, f_o=make_filter(f_o, fgrid),
                         f_eps=f_eps_sampled))


def operation_hcl(prep):
    trace = optimizers.optimize(prep.problem, prep.config)
    comps = analysis.hermitian_components(prep.extra["o_a"],
                                          prep.extra["basis"])
    per_band = analysis.j_max_per_component(trace.trajectory, comps,
                                            prep.extra["f_o"],
                                            basis=prep.extra["basis"])
    return trace, dict(components=comps, per_band=per_band)


# --------------------------------------------------------------------------
# ladder-qn-time: time formulation, final target, quasi-Newton


LADDER_N = 6
LADDER_OMEGA, LADDER_ANHARM = 1.0, 0.04
LADDER_T, LADDER_NT = 100.0, 2049
LADDER_TARGET_LEVEL = 2
LADDER_ALPHA = 1.0
LADDER_GUESS_AMP = 0.05
LADDER_BUDGET, LADDER_LS_REFINE, LADDER_K_INIT = 1, 0, 0.045


def ladder_model():
    n = np.arange(LADDER_N)
    energies = LADDER_OMEGA * n - LADDER_ANHARM * n * (n - 1)
    mu = np.zeros((LADDER_N, LADDER_N))
    for k in range(LADDER_N - 1):
        mu[k, k + 1] = mu[k + 1, k] = math.sqrt(k + 1.0)
    target = np.zeros((LADDER_N, LADDER_N))
    target[LADDER_TARGET_LEVEL, LADDER_TARGET_LEVEL] = 1.0
    return energies, mu, target


def setup_ladder(seed):
    energies, mu, target = ladder_model()
    system = build_level_system(energies, mu, target=target)
    grid = TimeGrid(LADDER_T, LADDER_NT)
    functional = FunctionalConfig(formulation="time", target="final",
                                  alpha=LADDER_ALPHA)
    amp, phase = _jitter(seed, LADDER_TARGET_LEVEL)
    t = grid.nodes
    envelope = np.sin(math.pi * t / LADDER_T) ** 2
    g = np.zeros_like(t)
    for k in range(LADDER_TARGET_LEVEL):
        w = energies[k + 1] - energies[k]
        g += amp[k] * np.cos(w * t + phase[k])
    psi0 = np.zeros(LADDER_N, dtype=complex)
    psi0[0] = 1.0
    problem = Problem(system, grid, functional, psi0,
                      LADDER_GUESS_AMP * envelope * g)
    model = dict(kind="level", energies=energies, mu=mu, target=target,
                 T=LADDER_T, n_t=LADDER_NT)
    config = OptimizerConfig(method="quasi-newton", budget=LADDER_BUDGET,
                             ls_refine=LADDER_LS_REFINE,
                             k_init=LADDER_K_INIT)
    return Prepared(problem, config, model, {})


def operation_plain(prep):
    return optimizers.optimize(prep.problem, prep.config), {}


# --------------------------------------------------------------------------
# s2s-krotov: two-level state-to-state transfer, immediate-update sweeps


S2S_E = (1.0, 2.0)
S2S_T, S2S_NT = 10.0, 1025
S2S_ALPHA = 0.1
S2S_GUESS_AMP = 0.2
S2S_BUDGET = 4


def s2s_model():
    mu = np.array([[0.0, 1.0], [1.0, 0.0]])
    target = np.array([[0.0, 0.0], [0.0, 1.0]])
    return np.array(S2S_E), mu, target


def setup_s2s(seed):
    energies, mu, target = s2s_model()
    system = build_level_system(energies, mu, target=target)
    grid = TimeGrid(S2S_T, S2S_NT)
    functional = FunctionalConfig(formulation="time", target="final",
                                  alpha=S2S_ALPHA)
    amp, phase = _jitter(seed, 1)
    t = grid.nodes
    g = S2S_GUESS_AMP * amp[0] * np.sin(math.pi * t / S2S_T) ** 2 * np.cos(
        (energies[1] - energies[0]) * t + phase[0])
    psi0 = np.array([1.0, 0.0], dtype=complex)
    problem = Problem(system, grid, functional, psi0, g)
    model = dict(kind="level", energies=energies, mu=mu, target=target,
                 T=S2S_T, n_t=S2S_NT)
    config = OptimizerConfig(method="krotov", budget=S2S_BUDGET)
    return Prepared(problem, config, model, {})


@dataclass(frozen=True)
class Limits:
    """How far a result may sit from the independent reference.

    state_error bounds ||psi(T) - psi_ref(T)||, yield_rtol the relative
    distance of the reported yield from the one recomputed from psi_ref.
    """

    state_error: float
    yield_rtol: float


# The default propagator runs at zeta = 1e-3 * tau = 1e-6 for the default
# tau, so a propagated final state may not be further off than that.
PROPAGATED = Limits(state_error=1e-6, yield_rtol=1e-6)
# Krotov's final state comes from its sweep, where the field is recomputed
# at every quadrature node; the returned field keeps only the grid samples,
# and its cosine series differs from the node values between samples.  That
# gap, not the propagator, sets the distance (about 6e-6 here).
SWEPT = Limits(state_error=1e-4, yield_rtol=1e-4)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    operation: object
    limits: Limits
    kernel: KernelMix  # host-speed kernel shaped like the operation's work


WORKLOADS = {
    # FFT step solves on 9 x 64 blocks; a 22-bin field
    "hcl-hg-relax": Workload(
        "hcl-hg-relax", setup_hcl, operation_hcl, PROPAGATED,
        KernelMix((9, 64), True, 2000, (2048, 22), nominal_s=0.12)),
    # 9 x 6 step solves and 2049-bin cosine blocks, in about equal parts: a
    # kernel of mostly cosine blocks drifted with the host more than this
    # operation does (log-log slope 0.72 over 20 runs)
    "ladder-qn-time": Workload(
        "ladder-qn-time", setup_ladder, operation_plain, PROPAGATED,
        KernelMix((9, 6), False, 3000, (1024, 2049), nominal_s=0.12)),
    # 9 x 2 sweep steps, no cosine evaluation
    "s2s-krotov": Workload(
        "s2s-krotov", setup_s2s, operation_plain, SWEPT,
        KernelMix((9, 2), False, 6000, (0, 0), nominal_s=0.11)),
}
