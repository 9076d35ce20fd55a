import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdrive.spectral import (
    TimeGrid, FrequencyGrid, RealSignal, Spectrum, FilterSpec,
    endpoint_factors, dct1, idct1, make_filter, chebyshev_rule,
    step_node_times, integrate_time, integrate_freq,
)
from oracles import eval_cosine_series


def test_grid_basics():
    g = TimeGrid(10.0, 11)
    assert g.dt == 1.0
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
    f = g.frequency_grid()
    assert f.dw == pytest.approx(math.pi / 10.0, rel=1e-15)
    assert f.omega_max * g.dt == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        TimeGrid(10.0, 1)


def test_dct1_zero_and_linearity():
    grid = TimeGrid(5.0, 33)
    z = dct1(RealSignal(grid, np.zeros(33)))
    assert np.all(z.values == 0.0)


def test_dct1_matches_literal_sum():
    rng = np.random.default_rng(42)
    n, T = 65, 7.3
    grid = TimeGrid(T, n)
    g = rng.standard_normal(n)
    h = endpoint_factors(n)
    scale = T / math.sqrt((n - 1) * math.pi)
    i = np.arange(n)
    literal = np.array([
        scale * math.sqrt(2.0 / (n - 1)) * np.sum(g / h * np.cos(i * j * math.pi / (n - 1)))
        for j in range(n)
    ])
    got = dct1(RealSignal(grid, g)).values
    assert np.abs(got - literal).max() < 1e-13


def test_dct1_equals_trapezoid_of_cosine_integral():
    # the scaled transform IS the 1/h trapezoid of sqrt(2/pi) int g cos(wt) dt
    rng = np.random.default_rng(3)
    n, T = 33, 4.0
    grid = TimeGrid(T, n)
    g = rng.standard_normal(n)
    h = endpoint_factors(n)
    t = grid.nodes
    trap = np.array([
        math.sqrt(2.0 / math.pi) * grid.dt * np.sum(g / h * np.cos(w * t))
        for w in grid.frequency_grid().nodes
    ])
    got = dct1(RealSignal(grid, g)).values
    assert np.abs(got - trap).max() < 1e-13


@pytest.mark.parametrize("n_t", [17, 65, 257])
def test_round_trip(n_t):
    rng = np.random.default_rng(n_t)
    grid = TimeGrid(9.25, n_t)
    g = rng.standard_normal(n_t)
    back = idct1(dct1(RealSignal(grid, g))).values
    assert np.abs(back - g).max() < 1e-12
    s = rng.standard_normal(n_t)
    fwd = dct1(idct1(Spectrum(grid.frequency_grid(), s))).values
    assert np.abs(fwd - s).max() < 1e-12


def test_single_cosine_bin():
    n, T, k = 65, 7.3, 5
    grid = TimeGrid(T, n)
    g = np.cos(k * math.pi * grid.nodes / T)
    s = dct1(RealSignal(grid, g)).values
    assert s[k] == pytest.approx(T / math.sqrt(2 * math.pi), rel=1e-13)
    assert np.abs(np.delete(s, k)).max() < 1e-10


def test_idct1_single_bin_is_pure_cosine():
    n, T, k, v = 33, 6.0, 7, 2.2
    grid = TimeGrid(T, n)
    vals = np.zeros(n)
    vals[k] = v
    sig = idct1(Spectrum(grid.frequency_grid(), vals)).values
    expect = v * math.sqrt(2 * math.pi) / T * np.cos(k * math.pi * grid.nodes / T)
    assert np.abs(sig - expect).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([17, 64, 129]))
def test_parseval_inverse_h_weights(seed, n):
    rng = np.random.default_rng(seed)
    T = 11.0
    grid = TimeGrid(T, n)
    g = rng.standard_normal(n)
    s = dct1(RealSignal(grid, g)).values
    h = endpoint_factors(n)
    scale2 = T * T / ((n - 1) * math.pi)
    lhs = np.sum(s**2 / h)
    rhs = scale2 * np.sum(g**2 / h)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    grid = TimeGrid(float(rng.uniform(0.5, 50.0)), n)
    g = rng.standard_normal(n)
    back = idct1(dct1(RealSignal(grid, g))).values
    assert np.abs(back - g).max() < 1e-11


def test_chebyshev_rule_closed_forms():
    r2 = chebyshev_rule(2)
    assert np.abs(r2.w - [0.5, 0.5]).max() < 1e-15
    r3 = chebyshev_rule(3)
    assert np.abs(r3.w - [1 / 6, 2 / 3, 1 / 6]).max() < 1e-15
    with pytest.raises(ValueError):
        chebyshev_rule(1)


@pytest.mark.parametrize("n_c", [2, 3, 4, 5, 7, 9, 17, 33])
def test_chebyshev_rule_weights(n_c):
    r = chebyshev_rule(n_c)
    assert abs(r.w.sum() - 1.0) < 1e-14
    assert np.abs(r.w - r.w[::-1]).max() < 1e-14
    # integrates Chebyshev polynomials T_m, m < n_c, to machine precision:
    # over a unit step, int_0^1 T_m(1-2t) dt = 1/(1-m^2) for even m, 0 for odd
    theta = np.arange(n_c) * math.pi / (n_c - 1)
    for m in range(n_c):
        quad = np.sum(r.w * np.cos(m * theta))
        exact = 0.0 if m % 2 else 1.0 / (1.0 - m * m)
        assert abs(quad - exact) < 2e-15


def test_polynomial_exactness():
    # degree <= n_c - 1 is integrated exactly
    for n_c in range(3, 10):
        r = chebyshev_rule(n_c)
        t = 0.5 * (1.0 - r.y)  # nodes over [0, 1]
        for deg in range(n_c):
            quad = np.sum(r.w * t**deg)
            assert abs(quad - 1.0 / (deg + 1)) < 1e-14
    # the spec's worked case: t^2 over [0, 1] = 1/3
    r = chebyshev_rule(5)
    t = 0.5 * (1.0 - r.y)
    assert abs(np.sum(r.w * t**2) - 1 / 3) < 1e-15


def test_cumulative_matrix():
    for n_c in (3, 5, 7, 9, 13):
        r = chebyshev_rule(n_c)
        assert np.abs(r.qmat[-1] - r.w).max() < 1e-14
        assert np.abs(r.qmat @ np.ones(n_c) - 0.5 * (1.0 - r.y)).max() < 1e-14
    # cumulative integral of t^3 on one step [0.3, 0.75]
    r = chebyshev_rule(7)
    a, dt = 0.3, 0.45
    t = a + 0.5 * dt * (1.0 - r.y)
    cum = dt * (r.qmat @ t**3)
    assert np.abs(cum - (t**4 - a**4) / 4.0).max() < 1e-14


def test_integrate_time():
    r = chebyshev_rule(5)
    tv = step_node_times(2.0, 4, r)
    assert integrate_time(np.full_like(tv, 3.0), r, 0.5) == pytest.approx(6.0, abs=1e-14)
    assert integrate_time(tv**3, r, 0.5) == pytest.approx(4.0, abs=1e-13)
    r9 = chebyshev_rule(9)
    tv = step_node_times(10.0, 64, r9)
    got = integrate_time(np.cos(5.0 * tv), r9, 10.0 / 64)
    assert got == pytest.approx(math.sin(50.0) / 5.0, abs=1e-10)
    with pytest.raises(ValueError):
        integrate_time(np.zeros((4, 3)), r9, 0.1)


def test_integrate_freq():
    grid = FrequencyGrid(10.0, 33)
    ones = Spectrum(grid, np.ones(33))
    # weight 1, spectrum 1 -> the 1/h trapezoid of 1 over [0, Omega] = Omega
    assert integrate_freq(ones, ones) == pytest.approx(grid.omega_max, rel=1e-14)
    zero = Spectrum(grid, np.zeros(33))
    assert integrate_freq(ones, zero) == 0.0
    with pytest.raises(ValueError):
        integrate_freq(ones, Spectrum(FrequencyGrid(9.0, 33), np.ones(33)))


def test_make_filter_rectangular():
    grid = FrequencyGrid(100.0, 257)
    f = make_filter(FilterSpec.rectangular(0.0, 1.3, amplitude=50.0), grid)
    w = grid.nodes
    assert np.all(f.values[w <= 1.3] == 50.0)
    assert np.all(f.values[w > 1.3] == 0.0)
    with pytest.raises(ValueError):
        FilterSpec.rectangular(1.0, 1.0)
    with pytest.raises(ValueError):
        FilterSpec.rectangular(0.0, 1.0, amplitude=-2.0)
    with pytest.raises(ValueError):
        # interval narrower than a bin and straddling no node
        make_filter(FilterSpec.rectangular(0.011, 0.012), FrequencyGrid(100.0, 257))


def test_make_filter_smooth_kinds():
    grid = FrequencyGrid(100.0, 129)
    w = grid.nodes
    g = make_filter(FilterSpec.gaussian(2.0, 20.0), grid)
    assert np.abs(g.values - np.exp(-20.0 * (w - 2.0) ** 2)).max() < 1e-15
    s = make_filter(FilterSpec.hat_sech(1.0, 20.0, amplitude=100.0), grid)
    ref = np.array([100.0 / math.cosh(x) if x < 500 else 0.0
                    for x in 20.0 * (w - 1.0) ** 4])
    assert np.abs(s.values - ref).max() < 1e-12
    assert (s.values >= 0).all() and (g.values >= 0).all()


def test_make_filter_delta_comb():
    grid = FrequencyGrid(10.0, 65)
    f = make_filter(FilterSpec.delta_comb([(0, 1.5), (7, 2.0)]), grid)
    ones = Spectrum(grid, np.ones(65))
    # the grid quadrature must reproduce the continuum delta integral
    assert integrate_freq(f, ones) == pytest.approx(3.5, rel=1e-14)
    probe = np.zeros(65)
    probe[7] = 4.0
    assert integrate_freq(f, Spectrum(grid, probe)) == pytest.approx(8.0, rel=1e-14)


def test_eval_cosine_series():
    n, T = 129, 11.0
    grid = FrequencyGrid(T, n)
    vals = np.zeros(n)
    vals[7] = 2.2
    sp = Spectrum(grid, vals)
    sig = idct1(sp)
    at_nodes = eval_cosine_series(sp, sig.grid.nodes)
    assert np.abs(at_nodes - sig.values).max() < 1e-12
    t0 = 3.777
    expect = 2.2 * math.sqrt(2 * math.pi) / T * math.cos(7 * math.pi * t0 / T)
    assert eval_cosine_series(sp, t0) == pytest.approx(expect, rel=1e-13)
    zero = Spectrum(grid, np.zeros(n))
    assert eval_cosine_series(zero, 1.234) == 0.0
    with pytest.raises(ValueError):
        eval_cosine_series(sp, -0.5)
    with pytest.raises(ValueError):
        eval_cosine_series(sp, T + 1.0)
