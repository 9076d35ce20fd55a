"""Independent checks of an optimizer result.

Nothing here calls specdrive's propagator, transforms or functionals.  The
model is rebuilt from its physical parameters (a DFT kinetic matrix plus the
sampled Morse potential, or diag(E) with mu), the returned field is
evaluated from its own cosine series, and the Schrodinger equation is
integrated with scipy's DOP853 at a tolerance far below the program's.
From that reference the checks recompute the final state and the yield.
"""

import math

import numpy as np
import scipy.fft
import scipy.integrate

from specdrive.analysis import component_spectra

NORM_TOL = 1e-6
RTOL, ATOL = 1e-13, 1e-15


class CheckFailed(Exception):
    """One property of an optimizer result did not hold."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# the model, rebuilt from its parameters


def morse(x, d0, a):
    return d0 * (np.exp(-a * x) - 1.0) ** 2


def hcl_dipole(x):
    """Fitted HCl dipole curve (real part of a complex tanh form)."""
    z = (0.17069 + 0.056854j) * (x - 0.10630 + 0.0j) ** 1.8977
    return 0.19309 * x * (1.0 - np.tanh(z).real)


def dft_kinetic(n, dx, mass):
    """P^2/2m on a periodic grid as a dense matrix, from the DFT matrix."""
    j = np.arange(n)
    dft = np.exp(-2j * math.pi * np.outer(j, j) / n)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    return (dft.conj().T * (k * k / (2.0 * mass))) @ dft / n


def dense_model(model):
    """(H0, mu, O) as dense complex matrices."""
    if model["kind"] == "grid":
        n = model["n_grid"]
        dx = (model["x_max"] - model["x_min"]) / n
        x = model["x_min"] + dx * np.arange(n)
        h0 = dft_kinetic(n, dx, model["mass"]) + np.diag(
            morse(x, model["d0"], model["a"]))
        mu = np.diag(hcl_dipole(x)).astype(complex)
        return h0, mu, mu.copy()
    h0 = np.diag(model["energies"]).astype(complex)
    return h0, np.asarray(model["mu"], complex), np.asarray(model["target"],
                                                           complex)


# --------------------------------------------------------------------------
# the field and the reference propagation


def _ends(n):
    h = np.ones(n)
    h[0] = h[-1] = 2.0
    return h


def cosine_series(field_values, native, T):
    """(omega, a) with eps(t) = sum_j a_j cos(omega_j t), support bins only.

    A frequency-native field is the series sqrt(2 pi)/T sum (v_j/h_j)
    cos(omega_j t); a time-native one is the DCT-I interpolant of its
    samples, whose coefficients are X_j / ((n-1) h_j).
    """
    v = np.asarray(field_values, dtype=float)
    n = v.size
    h = _ends(n)
    if native == "frequency":
        a = math.sqrt(2.0 * math.pi) / T * v / h
    else:
        a = scipy.fft.dct(v, type=1) / ((n - 1) * h)
    omega = np.arange(n) * (math.pi / T)
    keep = a != 0.0
    return omega[keep], a[keep]


def propagate(h0, mu, psi0, omega, a, T, t_eval=None):
    """DOP853 solution of i dpsi/dt = (H0 - eps(t) mu) psi."""

    def rhs(t, y):
        eps = float(a @ np.cos(omega * t))
        return -1j * (h0 @ y - eps * (mu @ y))

    sol = scipy.integrate.solve_ivp(rhs, (0.0, T), np.asarray(psi0, complex),
                                    method="DOP853", rtol=RTOL, atol=ATOL,
                                    t_eval=t_eval)
    _require(sol.success, f"reference integration failed: {sol.message}")
    return sol


# --------------------------------------------------------------------------
# yields


def scaled_dct(values, T):
    """sqrt(2/pi) * trapezoid (1/h weights) of g(t) cos(omega_j t) dt."""
    n = values.size
    dt = T / (n - 1)
    return math.sqrt(2.0 / math.pi) * dt * 0.5 * scipy.fft.dct(values, type=1)


def spectral_yield(states, o_a, T, f_o):
    """Half the f_o-weighted power of the transformed <O_a>(t)."""
    expect = np.einsum("ti,ij,tj->t", states.conj(), o_a, states).real
    bar = scaled_dct(expect, T)
    n = bar.size
    omega = np.arange(n) * (math.pi / T)
    center, coefficient, amplitude = f_o
    weight = amplitude * np.exp(-coefficient * (omega - center) ** 2)
    return 0.5 * (math.pi / T) * float(np.sum(weight * bar * bar / _ends(n)))


def allowed_projector(h0, L):
    _, vecs = np.linalg.eigh(h0)
    allowed = vecs[:, : L + 1]
    return allowed @ allowed.conj().T


# --------------------------------------------------------------------------
# the checks


def check_result(prep, trace, analysis, limits):
    """Run every check on one optimizer result.

    prep is the workload's Prepared set-up, analysis what the operation
    returned beside the trace, limits the workload's Limits.  Returns
    dict(state_error, yield_ref); raises CheckFailed when a check fails.
    """
    model, problem, budget = prep.model, prep.problem, prep.config.budget
    _require(trace.status == "budget-exhausted",
             f"status is {trace.status!r}, not 'budget-exhausted'")
    _require(len(trace.rows) == budget + 1,
             f"{len(trace.rows)} rows for a budget of {budget}")
    js = np.array([row.breakdown.j for row in trace.rows])
    _require(bool(np.all(np.diff(js) >= 0.0)),
             "accepted J decreased across rows")
    traj = trace.trajectory
    norms = np.asarray(traj.norms)
    norm0 = float(np.linalg.norm(problem.psi0))
    _require(float(np.abs(norms - norm0).max()) <= NORM_TOL * norm0,
             "the norm is not conserved")

    T, n_t = model["T"], model["n_t"]
    field = trace.field
    values = (field.spectrum().values if field.native == "frequency"
              else field.time_values())
    if "f_eps" in prep.extra:
        f_eps_values = prep.extra["f_eps"].values
        spectrum = field.spectrum().values
        _require(bool(np.all(spectrum[f_eps_values == 0.0] == 0.0)),
                 "the field has amplitude where f_eps is 0")
    omega, a = cosine_series(values, field.native, T)
    h0, mu, o_full = dense_model(model)
    spectral = "f_o" in model
    t_eval = np.linspace(0.0, T, n_t) if spectral else None
    sol = propagate(h0, mu, problem.psi0, omega, a, T, t_eval)
    psi_ref = sol.y[:, -1]
    state_error = float(np.linalg.norm(traj.final_state - psi_ref))
    _require(state_error <= limits.state_error,
             f"state error {state_error:.3g} above {limits.state_error:g}")

    if spectral:
        p_a = allowed_projector(h0, model["L"])
        yield_ref = spectral_yield(sol.y.T, p_a @ o_full @ p_a, T,
                                   model["f_o"])
    else:
        yield_ref = float(np.vdot(psi_ref, o_full @ psi_ref).real)
    got = trace.breakdown.j_max
    _require(abs(got - yield_ref) <= limits.yield_rtol * abs(yield_ref),
             f"yield {got!r} differs from the reference {yield_ref!r}")

    if analysis:
        check_components(traj, dict(prep.extra, **analysis), model)
    return dict(state_error=state_error, yield_ref=yield_ref)


def check_components(traj, extra, model):
    """The per-band spectra must sum to the spectrum of the full <O_a>."""
    basis = extra["basis"]
    spectra = component_spectra(traj, extra["components"], basis=basis)
    total = np.sum([s.values for s in spectra], axis=0)
    states = traj.grid_states()
    o_a = extra["o_a"]
    expect = np.einsum("ti,ij,tj->t", states.conj(), o_a, states).real
    full = scaled_dct(expect, model["T"])
    scale = float(np.abs(full).max())
    _require(float(np.abs(total - full).max()) <= 1e-9 * max(scale, 1e-300),
             "per-band spectra do not sum to the full spectrum")
    per_band = extra["per_band"]
    _require(per_band.shape == (basis.dim,) and bool(np.all(per_band >= 0.0)),
             "per-band yields are not one nonnegative value per band")
