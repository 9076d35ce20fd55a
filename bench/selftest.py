"""Self-test of the benchmark's checks; run before every measurement.

1. The reference integrator reproduces an analytic two-level Rabi
   oscillation (a constant field, so the propagator is a closed form).
2. A small optimizer result passes the checks, and the same result with a
   perturbed final state, or a perturbed yield, is rejected.

Run alone with ``python3 bench/selftest.py``.
"""

import bootstrap

bootstrap.prepare()

import dataclasses
import math
import types

import numpy as np

import reference
from specdrive.functionals import FunctionalConfig
from specdrive.optimizers import OptimizerConfig, Problem, optimize
from specdrive.spectral import TimeGrid
from specdrive.system import build_level_system
from workloads import PROPAGATED, Prepared, s2s_model

RABI_TOL = 1e-9


def rabi_state(e0, e1, eps0, t):
    """exp(-iHt)|0> for H = [[e0, -eps0], [-eps0, e1]]."""
    mean, delta = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
    omega = math.hypot(delta, eps0)
    phase = np.exp(-1j * mean * t)
    return phase * np.array([
        math.cos(omega * t) + 1j * (delta / omega) * math.sin(omega * t),
        1j * (eps0 / omega) * math.sin(omega * t)])


def check_rabi():
    e0, e1, eps0, T = 1.0, 1.3, 0.4, 25.0
    h0 = np.diag([e0, e1]).astype(complex)
    mu = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    # a field that is only the zero-frequency bin is the constant eps0
    omega, a = np.array([0.0]), np.array([eps0])
    sol = reference.propagate(h0, mu, [1.0, 0.0], omega, a, T,
                              t_eval=np.linspace(0.0, T, 11))
    exact = np.stack([rabi_state(e0, e1, eps0, t) for t in sol.t], axis=1)
    err = float(np.abs(sol.y - exact).max())
    if not err < RABI_TOL:
        raise reference.CheckFailed(f"reference misses Rabi by {err:.3g}")


def _small_result():
    """A two-level relaxation run, small enough to take a few ms."""
    energies, mu, target = s2s_model()
    T, n_t = 10.0, 65
    grid = TimeGrid(T, n_t)
    t = grid.nodes
    guess = 0.2 * np.sin(math.pi * t / T) ** 2 * np.cos(t)
    problem = Problem(build_level_system(energies, mu, target=target), grid,
                      FunctionalConfig(formulation="time", target="final",
                                       alpha=1.0),
                      np.array([1.0, 0.0], dtype=complex), guess)
    config = OptimizerConfig(method="relaxation", budget=1, k_init=0.5)
    model = dict(kind="level", energies=energies, mu=mu, target=target,
                 T=T, n_t=n_t)
    return Prepared(problem, config, model, {}), optimize(problem, config)


def _expect_rejected(prep, trace, what):
    try:
        reference.check_result(prep, trace, {}, PROPAGATED)
    except reference.CheckFailed:
        return
    raise reference.CheckFailed(f"a perturbed {what} was accepted")


def check_rejections():
    prep, trace = _small_result()
    reference.check_result(prep, trace, {}, PROPAGATED)

    traj = trace.trajectory
    psi = traj.final_state.copy()
    psi[1] += 1e-5  # well above the state-error limit
    moved = types.SimpleNamespace(norms=traj.norms, final_state=psi,
                                  grid_states=traj.grid_states)
    _expect_rejected(prep, dataclasses.replace(trace, trajectory=moved),
                     "final state")

    j_max = trace.breakdown.j_max * (1.0 + 1e-4)
    breakdown = dataclasses.replace(trace.breakdown, j_max=j_max)
    _expect_rejected(prep, dataclasses.replace(trace, breakdown=breakdown),
                     "yield")


def run():
    check_rabi()
    check_rejections()


if __name__ == "__main__":
    run()
    print("self-test passed")
