"""The propagator's invariants on the benchmark's 64-point Morse/HCl grid,
in its eigen representation as the optimizers run it, under the
benchmark's form of the HCl guess: a forward run keeps the norm, and a
source-free backward run under the same field keeps its overlap with the
forward state, each within 1e3 zeta.  The lattices are the optimizers'
search over this grid: its longest (64 steps of 16 grid intervals), the one
the benchmark ends at (128) and the floor (1,024)."""

import numpy as np
import pytest

from specdrive.spectral import TimeGrid
from specdrive.dynamics import (
    PropagatorConfig, propagate_backward, propagate_forward,
)
from test_step_kernel import RULE, bench_form_guess, hcl_eigen_level

LATTICES = [64, 128, 1024]
ZETAS = [1e-6, 1e-10]


@pytest.mark.parametrize("zeta", ZETAS)
@pytest.mark.parametrize("steps", LATTICES)
def test_forward_norm_and_backward_overlap_are_kept(steps, zeta):
    system = hcl_eigen_level(64)
    field = bench_form_guess(system.energies, TimeGrid(2000.0, 1025))
    config = PropagatorConfig(steps, RULE, zeta)
    psi0 = np.eye(64, dtype=complex)[0]
    forward = propagate_forward(system, field, psi0, config)
    assert forward.stats.steps == steps
    assert forward.stats.norm_drift <= 1e3 * zeta

    chi_t = np.zeros(64, dtype=complex)
    chi_t[:3] = np.array([1.0, 1.0, 1.0j]) / np.sqrt(3.0)
    backward = propagate_backward(system, field, None, chi_t, config)
    start = np.vdot(backward.boundary_states[0], forward.boundary_states[0])
    end = np.vdot(chi_t, forward.final_state)
    assert abs(end) > 0.1  # the overlap is not trivially zero
    assert abs(start - end) <= 1e3 * zeta
