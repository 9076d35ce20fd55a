"""Optimizers on a Morse/HCl Fourier grid, and the eigen representation of
H0 they run in: a 32-point grid with forbidden states above L = 3, a
hat-sech penalty filter at omega_10 and a Gaussian target filter at
2 omega_10, the harmonic-generation problem at a reduced size."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from specdrive.spectral import (
    FilterSpec, RealSignal, TimeGrid, chebyshev_rule, dct1, make_filter,
)
from specdrive.system import (
    SpectralBasis, StateRestriction, apply_mu, build_grid_system,
    build_level_system, choose_x_domain, diagonalize, hcl_dipole,
    morse_potential, projectors,
)
from specdrive.spectral import endpoint_factors
from specdrive.analysis import (
    component_spectra, hermitian_components, j_max_per_component,
)
from specdrive.dynamics import (
    HGSource, PropagatorConfig, TDTargetSource, default_propagator_config,
    hg_source_signal, propagate_backward, propagate_forward,
)
from specdrive.functionals import (
    FunctionalConfig, evaluate, gradient_freq, prepare_context,
)
from specdrive.optimizers import (
    BUDGET_EXHAUSTED, INSTABILITY, OptimizerConfig, Problem, _alpha_at_nodes,
    _ImmediateField, optimize_gradient, optimize_quasi_newton,
    optimize_relaxation,
)
from oracles import between_nodes, field_at, hg_step_values, td_step_values

N_GRID, L = 32, 3
HCL_MASS = 1785.0
T, N_T = 1000.0, 513


@functools.lru_cache(maxsize=None)
def hcl_problem():
    """The restricted spectral problem on the grid; psi0 is the ground
    state, the guess a weak line at omega_10 shaped by the penalty filter."""
    mp = morse_potential(0.171, 0.975)
    xl, xr = choose_x_domain(mp, HCL_MASS, N_GRID, v_cap=(1.0 - 1e-6) * 0.171)
    system = build_grid_system(xl, xr, N_GRID, HCL_MASS, mp, hcl_dipole)
    energies, vecs, _ = system.eigen()
    w10 = float(energies[1] - energies[0])
    grid = TimeGrid(T, N_T)
    fgrid = grid.frequency_grid()
    functional = FunctionalConfig(
        "frequency", "spectral",
        f_eps=FilterSpec.hat_sech(w10, 4.0e9, amplitude=1e3),
        f_o=FilterSpec.gaussian(2.0 * w10, 1.0 / (3.0 * fgrid.dw) ** 2),
        restriction=StateRestriction(L, np.ones(N_GRID - L - 1)),
    )
    f_eps = make_filter(functional.f_eps, fgrid).values
    line = dct1(RealSignal(grid, 0.01 * np.cos(w10 * grid.nodes))).values
    return Problem(system, grid, functional, vecs[:, 0],
                   line * f_eps / f_eps.max())


@functools.lru_cache(maxsize=None)
def relaxed_hcl():
    """hcl_problem() after a budget-2 relaxation."""
    return optimize_relaxation(hcl_problem(),
                               OptimizerConfig(budget=2, k_init=0.25))


def eigen_level_problem(problem, functional=None):
    """The same problem on a LevelSystem built from (E, V^dagger mu V,
    V^dagger O V), started from V^dagger psi0."""
    system = problem.system
    energies, vecs, coupling = system.eigen()
    o_eigen = vecs.conj().T @ (system.target[:, None] * vecs)
    level = build_level_system(energies, coupling, o_eigen)
    return Problem(level, problem.grid, functional or problem.functional,
                   vecs.conj().T @ problem.psi0, problem.guess)


@pytest.mark.parametrize("run", [
    lambda p: optimize_relaxation(p, OptimizerConfig(budget=2, k_init=0.25)),
    lambda p: optimize_quasi_newton(p, OptimizerConfig(
        method="quasi-newton", budget=2, ls_refine=2, k_init=0.25)),
    lambda p: optimize_gradient(p, OptimizerConfig(
        method="gradient", budget=2, ls_refine=2, k_init=0.25)),
], ids=["relaxation", "quasi-newton", "gradient"])
def test_grid_run_is_monotone_restricted_and_deterministic(run):
    problem = hcl_problem()
    trace = run(problem)
    assert trace.status == BUDGET_EXHAUSTED
    assert len(trace.rows) == 3
    assert trace.j_monotone
    assert trace.js()[-1] > trace.js()[0]
    assert all(row.breakdown.j_forb < 0.0 for row in trace.rows)
    again = run(problem)
    assert np.array_equal(trace.js(), again.js())
    assert np.array_equal(trace.field.spectrum().values,
                          again.field.spectrum().values)
    assert np.array_equal(trace.trajectory.final_state,
                          again.trajectory.final_state)


def test_grid_relaxation_field_is_zero_outside_the_filter_support():
    problem = hcl_problem()
    f_eps = make_filter(problem.functional.f_eps,
                        problem.grid.frequency_grid()).values
    outside = f_eps == 0.0
    assert outside.any()
    trace = relaxed_hcl()
    assert trace.status == BUDGET_EXHAUSTED
    assert not trace.field.spectrum().values[outside].any()


def test_overshooting_grid_guess_ends_as_a_status():
    problem = hcl_problem()
    loud = replace(problem, guess=1e4 * problem.guess.spectrum().values)
    trace = optimize_relaxation(loud, OptimizerConfig(budget=2, k_init=0.25))
    assert trace.status == INSTABILITY


def check_grid_trajectory_comes_back_in_the_grid_basis(problem, config):
    trace = optimize_relaxation(problem, config)
    traj = trace.trajectory
    assert traj.boundary_states.shape == (traj.n_steps + 1, N_GRID)
    assert traj.grid_states().shape == (N_T, N_GRID)
    assert np.abs(traj.initial_state - problem.psi0).max() <= 1e-14
    ref = propagate_forward(problem.system, trace.field, problem.psi0,
                            problem.propagator_for(config))
    assert np.linalg.norm(traj.final_state - ref.final_state) <= 1e-10
    # the nodes against a fresh run on the trajectory's own lattice
    ref = propagate_forward(problem.system, trace.field, problem.psi0,
                            replace(problem.propagator_for(config),
                                    steps=traj.n_steps))
    k = 100 * traj.n_steps // (N_T - 1)
    assert np.abs(traj.step_nodes(k) - ref.step_nodes(k)).max() <= 1e-10
    # rescored in the grid basis: the node states mapped on first read,
    # under the dense P_f of the grid system
    ctx = prepare_context(problem.system, problem.grid, problem.functional)
    again = evaluate(ctx, traj, trace.field)
    assert again.j_max == pytest.approx(trace.breakdown.j_max, rel=1e-10)
    assert again.j_forb == pytest.approx(trace.breakdown.j_forb, rel=1e-10)


def test_grid_trajectory_comes_back_in_the_grid_basis():
    # the default path: the run searches its lattice and ends on 8 grid
    # intervals per step (see the next test but one)
    config = OptimizerConfig(budget=1, k_init=0.25)
    check_grid_trajectory_comes_back_in_the_grid_basis(hcl_problem(), config)


def test_grid_trajectory_comes_back_in_the_grid_basis_on_a_fixed_lattice():
    config = OptimizerConfig(budget=1, k_init=0.25)
    problem = replace(hcl_problem(),
                      propagator=hcl_problem().propagator_for(config))
    check_grid_trajectory_comes_back_in_the_grid_basis(problem, config)


def test_searched_lattice_moves_where_a_forward_run_is_unresolved():
    """Without a propagator the run starts at 16 grid intervals per step.
    The guess and the costate pass there; the first trial field does not,
    so its run stops, moves to 8 intervals per step and is redone; the
    second trial stays there.  The rows match a run on the default
    config's lattice of one step per interval."""
    problem = hcl_problem()
    config = OptimizerConfig(budget=1, k_init=0.25)
    trace = optimize_relaxation(problem, config)
    fixed = optimize_relaxation(
        replace(problem, propagator=problem.propagator_for(config)), config)
    assert problem.propagator_for(config).steps == N_T - 1
    assert trace.propagations == fixed.propagations + 1 == 5
    assert trace.trajectory.n_steps == (N_T - 1) // 8
    stats = trace.trajectory.stats
    assert stats.bisections == 0
    assert stats.truncation <= problem.propagator_for(config).zeta / (N_T - 1)
    assert [row.k for row in trace.rows] == [row.k for row in fixed.rows]
    # J reaches 0.008; the final states of both agree to about 1e-11
    assert np.abs(trace.js() - fixed.js()).max() <= 1e-10
    tight = propagate_forward(problem.system, trace.field, problem.psi0,
                              replace(problem.propagator_for(config),
                                      steps=4 * (N_T - 1), zeta=1e-13))
    assert np.linalg.norm(trace.trajectory.final_state
                          - tight.final_state) <= 1e-10


def test_eigen_representation_has_diagonal_projectors():
    problem = hcl_problem()
    level, vecs = problem.system.eigen_system()
    assert problem.system.eigen_system()[0] is level
    assert level.eigen()[1] is None
    ctx = prepare_context(level, problem.grid, problem.functional)
    gamma = problem.functional.restriction.gamma
    assert ctx.p_f.shape == (N_GRID,)
    assert np.array_equal(ctx.p_f, np.concatenate([np.zeros(L + 1), gamma]))
    o_a = np.asarray(ctx.o_a)
    assert np.all(o_a[L + 1:, :] == 0.0) and np.all(o_a[:, L + 1:] == 0.0)
    o_eigen = vecs.conj().T @ (problem.system.target[:, None] * vecs)
    block = o_eigen[:L + 1, :L + 1]
    assert np.abs(o_a[:L + 1, :L + 1] - block).max() <= 1e-14


def test_grid_run_matches_its_eigen_level_system():
    problem = hcl_problem()
    config = OptimizerConfig(budget=1, k_init=0.25)
    grid_trace = optimize_relaxation(problem, config)
    level_trace = optimize_relaxation(eigen_level_problem(problem), config)
    assert grid_trace.propagations == level_trace.propagations
    assert [row.k for row in grid_trace.rows] == [
        row.k for row in level_trace.rows]
    js, js_level = grid_trace.js(), level_trace.js()
    assert len(js) == 2
    assert np.all(np.abs(js - js_level) <= 1e-12 * np.abs(js_level))
    vecs = problem.system.eigen()[1]
    assert np.linalg.norm(grid_trace.trajectory.final_state
                          - vecs @ level_trace.trajectory.final_state) <= 1e-12


def test_time_dependent_target_is_rotated_into_the_eigen_representation():
    problem = hcl_problem()
    system, grid = problem.system, problem.grid
    energies, vecs, _ = system.eigen()
    w10 = float(energies[1] - energies[0])
    x = system.x
    weight = RealSignal(grid, np.full(grid.n_t, 1.0 / grid.T))
    guess = 0.01 * np.cos(w10 * grid.nodes)

    def rotated(op):
        return vecs.conj().T @ np.diag(op) @ vecs

    cases = [(x, rotated(x)),
             (lambda t: x * np.cos(w10 * t),
              lambda t: rotated(x * np.cos(w10 * t)))]
    config = OptimizerConfig(budget=1)
    for op, op_eigen in cases:
        functional = FunctionalConfig("time", "td", alpha=10.0, weight=weight,
                                      op_of_t=op)
        grid_problem = Problem(system, grid, functional, problem.psi0, guess)
        grid_trace = optimize_relaxation(grid_problem, config)
        level_trace = optimize_relaxation(eigen_level_problem(
            grid_problem, replace(functional, op_of_t=op_eigen)), config)
        js, js_level = grid_trace.js(), level_trace.js()
        assert len(js) == len(js_level) == 2
        assert np.all(np.abs(js - js_level) <= 1e-12 * np.abs(js_level))


@pytest.mark.parametrize("r", [None, 2], ids=["default", "r2"])
def test_spectral_gradient_and_constraint_at_paper_scale(r):
    """gradient_freq through HGSource and P_f against central differences
    of J, and j_con_residual of a consistent pair, on the eigen level
    system of the grid problem; under the default config (one step per
    grid interval here) and with steps spanning two intervals."""
    problem = eigen_level_problem(hcl_problem())
    level, grid, field = problem.system, problem.grid, problem.guess
    ctx = prepare_context(level, grid, problem.functional)
    config = default_propagator_config(level, grid, tau=1e-7)
    assert config.steps == N_T - 1
    if r is not None:
        config = replace(config, steps=(N_T - 1) // r)

    def score(f):
        traj = propagate_forward(level, f, problem.psi0, config)
        return traj, evaluate(ctx, traj, f)

    traj, br = score(field)
    signal = hg_source_signal(traj, ctx.o_a, ctx.f_o)
    chi = propagate_backward(level, field,
                             HGSource(traj, signal, ctx.o_a, ctx.p_f),
                             np.zeros(level.dim, dtype=complex), config)
    assert br.j_forb < 0.0
    res = evaluate(ctx, traj, field, chi_traj=chi, s_signal=signal)
    assert abs(res.j_con_residual) <= 1e-10 * br.j_max

    grad = gradient_freq(level, field, traj, chi, ctx.alpha_omega).values
    bar = field.spectrum().values
    scale = endpoint_factors(N_T) / grid.frequency_grid().dw
    for j in np.argsort(ctx.f_eps.values)[-3:]:  # the bins at omega_10
        delta = 1e-3 * abs(bar[j])
        bumped = bar.copy()
        bumped[j] += delta
        jp = score(field.with_spectrum_values(bumped))[1].j
        bumped[j] -= 2.0 * delta
        jm = score(field.with_spectrum_values(bumped))[1].j
        fd = (jp - jm) / (2.0 * delta) * scale[j]
        assert fd == pytest.approx(grad[j], rel=1e-4)


def test_hg_source_lattice_matches_its_step_reads():
    """HGSource.node_values(), built in one product over the forward run's
    nodes with O_a applied on its allowed block and P_f as a diagonal,
    against the per-step read at the nodes' own fractions."""
    problem = eigen_level_problem(hcl_problem())
    level, grid, field = problem.system, problem.grid, problem.guess
    ctx = prepare_context(level, grid, problem.functional)
    assert ctx.p_f.ndim == 1
    config = default_propagator_config(level, grid, tau=1e-7)
    traj = propagate_forward(level, field, problem.psi0, config)
    src = HGSource(traj, hg_source_signal(traj, ctx.o_a, ctx.f_o), ctx.o_a,
                   ctx.p_f)
    lattice = src.node_values()
    assert lattice.shape == traj.node_states.shape
    for k in (0, traj.n_steps // 2, traj.n_steps - 1):
        assert np.array_equal(src.step_values(k), lattice[k])
        assert np.abs(lattice[k]
                      - src.step_values(k, traj.s_nodes)).max() < 1e-13


def level_run(r):
    """The guess's forward run on the eigen level system of the grid
    problem, r grid intervals per step, with the problem and its context."""
    problem = eigen_level_problem(hcl_problem())
    level, grid = problem.system, problem.grid
    ctx = prepare_context(level, grid, problem.functional)
    config = replace(default_propagator_config(level, grid, tau=1e-7),
                     steps=(N_T - 1) // r)
    traj = propagate_forward(level, problem.guess, problem.psi0, config)
    return problem, ctx, traj


def piece_fractions(s, depth):
    """The fractions of a step at which its pieces depth halvings deep
    have their nodes s."""
    return [(j + s) / 2 ** depth for j in range(2 ** depth)]


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["forward", "reversed"])
@pytest.mark.parametrize("r", [1, 4])
def test_source_piece_reads_match_the_uncached_read(r, reverse):
    """HGSource and TDTargetSource at the fractions of the pieces one and
    two halvings deep, as a forward step holds them and as a backward run
    reads them (1 - s), against the node polynomial built at every read
    and the direct cosine sum of the filtered signal (tests/oracles.py),
    relative to the largest entry."""
    problem, ctx, traj = level_run(r)
    grid = problem.grid
    signal = hg_source_signal(traj, ctx.o_a, ctx.f_o)
    hg = HGSource(traj, signal, ctx.o_a, ctx.p_f)
    w = RealSignal(grid, (1.0 + 0.5 * np.cos(3.0 * np.pi * grid.nodes / T))
                   / T)
    td = TDTargetSource(w, ctx.o_a, traj)
    for depth in (1, 2):
        for frac in piece_fractions(traj.s_nodes, depth):
            if reverse:
                frac = 1.0 - frac
            for k in (0, traj.n_steps // 3, traj.n_steps - 1):
                ref = hg_step_values(traj, signal, ctx.o_a, ctx.p_f, k, frac)
                assert (np.abs(hg.step_values(k, frac) - ref).max()
                        <= 1e-13 * np.abs(ref).max())
                ref = td_step_values(traj, w, ctx.o_a, k, frac)
                assert (np.abs(td.step_values(k, frac) - ref).max()
                        <= 1e-13 * np.abs(ref).max())


def test_interleaved_fraction_sets_read_as_from_a_fresh_trajectory():
    """The left and right pieces of a backward step read in turn (left,
    right, left, ...), each against the same read of a fresh run: a kept
    fraction set serves its own fractions only."""
    problem, ctx, traj = level_run(4)
    signal = hg_source_signal(traj, ctx.o_a, ctx.f_o)
    src = HGSource(traj, signal, ctx.o_a, ctx.p_f)
    s = traj.s_nodes
    left, right = 1.0 - 0.5 * s, 0.5 - 0.5 * s
    for q, k in ((left, 5), (right, 5), (left, 6), (right, 40), (left, 40)):
        fresh = level_run(4)[2]
        assert np.array_equal(traj.between_nodes(q, k),
                              fresh.between_nodes(q, k))
        assert np.array_equal(
            src.step_values(k, q),
            HGSource(fresh, signal, ctx.o_a, ctx.p_f).step_values(k, q))


def test_framed_trajectory_reads_as_its_parent_mapped_by_v():
    """The level run taken to a basis V by in_basis(V) reads, between its
    nodes and on the grid, as the level run mapped by V, and a run of the
    grid system itself, which carries its eigenbasis as its basis, as the
    uncached read."""
    problem, _, traj = level_run(4)
    grid_problem = hcl_problem()
    # a complex unitary, so that conj(V) and V differ
    vecs = grid_problem.system.eigen()[1] * np.exp(0.1j * np.arange(N_GRID))
    framed = traj.in_basis(vecs)
    direct = propagate_forward(grid_problem.system, grid_problem.guess,
                               grid_problem.psi0,
                               replace(default_propagator_config(
                                   problem.system, problem.grid, tau=1e-7),
                                   steps=(N_T - 1) // 4))
    assert direct._basis is not None
    s = traj.s_nodes
    for q in (0.5 * s, 1.0 - 0.25 * s, np.arange(1, 4) / 4):
        for k in (0, 77, traj.n_steps - 1):
            mapped = traj.between_nodes(q, k) @ vecs.T
            assert np.abs(framed.between_nodes(q, k) - mapped).max() < 1e-13
            assert np.abs(framed.between_nodes(q, k)
                          - between_nodes(framed, q, k)).max() < 1e-13
            assert np.abs(direct.between_nodes(q, k)
                          - between_nodes(direct, q, k)).max() < 1e-13
    assert np.abs(framed.grid_states()
                  - traj.grid_states() @ vecs.T).max() < 1e-13


def test_krotov_pieces_read_the_partner_between_its_nodes():
    """Krotov's field at a sweep step's own nodes and on the pieces two
    halvings deep of a bisected step, in a forward and a backward sweep,
    against sign Im<u|mu|partner>/alpha: the partner read off its node
    states at the step's nodes and by the uncached node polynomial at the
    pieces' fractions, alpha a float or non-constant samples read by
    six_point at the same times."""
    problem, _, traj = level_run(4)
    level, grid, s = problem.system, problem.grid, traj.s_nodes
    n = traj.n_steps
    h = grid.T / n
    samples = 0.5 * (1.0 + 0.5 * np.sin(np.pi * grid.nodes / grid.T) ** 2)
    alphas = ((0.5, lambda t: 0.5),
              (_alpha_at_nodes(samples, grid),
               lambda t: field_at(RealSignal(grid, samples), t)))
    u = np.random.default_rng(5).standard_normal((traj.rule.n_c, 2 * N_GRID))
    u = u.view(complex)

    def check(got, sign, partner, alpha):
        want = sign * np.einsum(
            "ij,ij->i", u.conj(), apply_mu(level, partner)).imag / alpha
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for alpha, alpha_at in alphas:
        for sign, backward in ((1.0, False), (-1.0, True)):
            step = _ImmediateField(level, traj, sign, alpha).steps(
                n, s, backward)
            for k in (0, 50, n - 1):
                i = n - 1 - k if backward else k
                # the step's own nodes, in the sweep's order
                own = s[::-1] if backward else s
                partner = traj.node_states[i]
                check(step(k)[0](u), sign,
                      partner[::-1] if backward else partner,
                      alpha_at(h * (i + own)))
                for j in range(4):
                    # the fractions of the step at piece j's nodes
                    piece = 0.25 * j + 0.25 * s
                    frac = 1.0 - piece if backward else piece
                    check(step(k)[1](piece)(u), sign,
                          between_nodes(traj, frac, i),
                          alpha_at(h * (i + frac)))


def test_one_pass_band_spectra_match_the_per_band_transforms():
    """component_spectra's one transform over all bands against dct1 of
    each band's expectation, <O^(n)> summed from the band operator itself,
    on the grid-basis trajectory that the optimizers return, from the
    eigen amplitudes that component_spectra reads off its frame."""
    problem, _, traj = level_run(4)
    system = hcl_problem().system
    ctx = prepare_context(system, problem.grid, problem.functional)
    framed = traj.in_basis(system.eigen()[1])
    comps = hermitian_components(ctx.o_a, system)
    c = framed.grid_states(diagonalize(system).states)
    loop = np.array([
        dct1(RealSignal(problem.grid, np.einsum(
            "ti,ij,tj->t", c.conj(), comps[n], c).real)).values
        for n in range(comps.dim)])
    one = np.array([sp.values for sp in
                    component_spectra(framed, comps, basis=system)])
    assert np.abs(one - loop).max() <= 1e-15 * np.abs(loop).max()


def test_band_analysis_runs_on_the_targets_support():
    """O_a built in the grid basis as the benchmark builds it: in the
    eigenbasis its couplings lie in the allowed (L+1) x (L+1) block, the
    rest is rotation rounding and reads exact zero, so every band beyond L
    carries nothing.  The live bands agree with a dense reference on the
    unzeroed V^dag O_a V."""
    problem = hcl_problem()
    system = problem.system
    basis = diagonalize(system)
    p_a, _ = projectors(basis, problem.functional.restriction)
    o_a = p_a @ np.diag(system.target) @ p_a
    o_a = 0.5 * (o_a + o_a.conj().T)
    comps = hermitian_components(o_a, basis)
    band, col = np.indices(comps.d.shape)  # d[band, col] is O[band + col, col]
    assert not comps.d[band + col > L].any()
    assert comps.d[band + col <= L].all()

    v = basis.states
    full = v.conj().T @ o_a.astype(complex) @ v
    herm = 0.5 * (full + full.conj().T)
    rec = comps.reconstruct()
    kept = rec != 0.0
    assert np.array_equal(rec[kept], herm[kept])
    eps = np.finfo(float).eps
    assert np.abs(herm[~kept]).max() <= N_GRID * eps * np.abs(full).max()
    for part in comps:
        assert np.array_equal(part, part.conj().T)

    traj = relaxed_hcl().trajectory
    c = traj.grid_states(v)
    rows, cols = np.indices(herm.shape)
    ref = np.array([
        np.einsum("ti,ij,tj->t", c.conj(),
                  np.where(np.abs(rows - cols) == n, herm, 0.0), c).real
        for n in range(N_GRID)])
    got = comps.expectations(c).T
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    f_o = make_filter(problem.functional.f_o, problem.grid.frequency_grid())
    h = endpoint_factors(problem.grid.n_t)
    ref_yield = np.array([
        0.5 * f_o.grid.dw * np.sum(
            f_o.values * dct1(RealSignal(problem.grid, row)).values ** 2 / h)
        for row in ref])
    per_band = j_max_per_component(traj, comps, f_o, basis=basis)
    assert per_band.shape == (N_GRID,)
    assert not per_band[L + 1:].any()
    assert np.abs(per_band - ref_yield).max() <= 1e-13 * ref_yield.max()


def test_band_spectra_read_off_the_frame_match_the_mapped_states():
    """component_spectra on the grid-basis trajectory in its own eigenbasis
    reads the frame's amplitudes; in the same eigenbasis with every other
    vector's sign flipped it maps the grid states into that basis.  Both
    give the same spectra, before and after node_states is read."""
    problem, _, traj = level_run(4)
    system = hcl_problem().system
    ctx = prepare_context(system, problem.grid, problem.functional)
    framed = traj.in_basis(system.eigen()[1])
    basis = diagonalize(system)
    flipped = SpectralBasis(basis.energies,
                            basis.states * (-1.0) ** np.arange(N_GRID))

    def spectra(b):
        comps = hermitian_components(ctx.o_a, b)
        return np.array([sp.values
                         for sp in component_spectra(framed, comps, basis=b)])

    mapped = spectra(flipped)
    scale = np.abs(mapped).max()
    assert "node_states" not in vars(framed)  # still to be mapped
    assert np.abs(spectra(basis) - mapped).max() <= 1e-12 * scale
    framed.node_states
    assert "node_states" in vars(framed)  # mapped, and kept
    assert np.abs(spectra(basis) - mapped).max() <= 1e-12 * scale
    assert np.abs(spectra(flipped) - mapped).max() <= 1e-12 * scale


def test_ladder_time_form_quasi_newton_searches_long_steps():
    """The benchmark's six-level ladder (anharmonic, mu_k,k+1 = sqrt(k+1),
    target level 2) at n_t = 513: its time-form updates carry the bins
    their lattice integrates, so the run ends coarser than one step per
    grid interval (the default config takes two per interval here), at
    the J of a tight run of the field it returns."""
    n = np.arange(6)
    energies = n - 0.04 * n * (n - 1)
    mu = np.diag(np.sqrt(n[1:] + 0.0), 1)
    system = build_level_system(energies, mu + mu.T,
                                target=np.diag((n == 2).astype(float)))
    grid = TimeGrid(100.0, 513)
    t = grid.nodes
    guess = 0.05 * np.sin(np.pi * t / 100.0) ** 2 * (
        np.cos(energies[1] * t) + np.cos((energies[2] - energies[1]) * t))
    psi0 = np.eye(6, dtype=complex)[0]
    problem = Problem(system, grid, FunctionalConfig("time", "final", alpha=1.0),
                      psi0, guess)
    tr = optimize_quasi_newton(problem, OptimizerConfig(
        method="quasi-newton", budget=1, ls_refine=0, k_init=0.045))
    assert tr.status == BUDGET_EXHAUSTED
    assert tr.js()[-1] > tr.js()[0]
    assert tr.trajectory.n_steps < grid.n_t - 1
    tight = propagate_forward(system, tr.field, psi0, PropagatorConfig(
        8192, chebyshev_rule(9), 1e-13))
    ctx = prepare_context(system, grid, problem.functional)
    j_tight = evaluate(ctx, tight, tr.field).j
    assert abs(tr.breakdown.j - j_tight) <= 1e-9 * abs(j_tight)
