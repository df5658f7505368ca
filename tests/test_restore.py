"""Split Bregman solver: dense-solve and residual oracles for the g-step,
prox oracle for the shrinkages, telescoping duals, run() behavior."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from htvseg import (add_gaussian_noise, edge_weight, grid, make_three_phase,
                    make_two_phase, restore)
from htvseg.degrade import (BlurKernel, LinearOperatorA, apply, apply_adjoint,
                            gaussian_kernel)
from htvseg.restore import SolverParams, SolverState


def make_state(f, params, rng=None):
    state = restore.init_state(f, params)
    if rng is not None:
        m, n = f.shape
        state.q = rng.normal(size=(m, n, 4))
        state.b = rng.normal(size=(m, n, 4))
        state.v = rng.normal(size=(m, n, 2))
        state.c = rng.normal(size=(m, n, 2))
        state.z = rng.normal(size=(m, n))
        state.d = rng.normal(size=(m, n))
    return state


def normal_operator(A, params):
    """Spatial-domain left side of the g system as a callable."""
    def op(g):
        out = apply_adjoint(A, apply(A, g))
        out = out + params.mu1 * grid.div2(grid.grad2(g))
        out = out - params.mu2 * grid.div(grid.grad(g))
        if params.constrained:
            out = out + params.mu3 * g
        return out
    return op


def rhs_vector(state, params, A, f):
    rhs = apply_adjoint(A, f)
    rhs = rhs + params.mu1 * grid.div2(state.q - state.b)
    rhs = rhs + params.mu2 * grid.div(state.c - state.v)
    if params.constrained:
        rhs = rhs + params.mu3 * (state.z - state.d)
    return rhs


def test_solve_g_constant_fixed_point():
    """Constant f, identity A, zero aux/duals, z=f: g comes back as f."""
    f = np.full((6, 6), 0.4)
    params = SolverParams(lam=0.3, gamma=0.7, mu1=2.0, mu2=3.0, mu3=4.0)
    state = restore.init_state(f, params)
    g = restore.solve_g(state, params, LinearOperatorA.identity(f.shape), f)
    assert np.max(np.abs(g - f)) < 1e-12


def test_solve_g_matches_dense_solve_4x4():
    rng = np.random.default_rng(10)
    f = rng.normal(size=(4, 4))
    taps = rng.uniform(0.0, 1.0, size=(3, 3))
    A = LinearOperatorA.convolution(BlurKernel(taps / taps.sum()), (4, 4))
    params = SolverParams(lam=0.2, gamma=0.9, mu1=1.7, mu2=0.6, mu3=2.2)
    state = make_state(f, params, rng)
    op = normal_operator(A, params)
    M = np.array([op(e.reshape(4, 4)).ravel() for e in np.eye(16)]).T
    expected = np.linalg.solve(M, rhs_vector(state, params, A, f).ravel())
    g = restore.solve_g(state, params, A, f)
    assert np.max(np.abs(g.ravel() - expected)) < 1e-8


@pytest.mark.parametrize("constrained", [True, False])
def test_solve_g_stationarity_residual_16x16(constrained):
    rng = np.random.default_rng(11)
    f = rng.normal(size=(16, 16))
    taps = rng.uniform(0.0, 1.0, size=(5, 5))
    A = LinearOperatorA.convolution(BlurKernel(taps / taps.sum()), (16, 16))
    params = SolverParams(lam=0.1, gamma=1.0, mu1=2.0, mu2=1.5, mu3=0.8,
                          constrained=constrained)
    state = make_state(f, params, rng if constrained else None)
    if not constrained:
        state.q = rng.normal(size=(16, 16, 4))
        state.b = rng.normal(size=(16, 16, 4))
        state.v = rng.normal(size=(16, 16, 2))
        state.c = rng.normal(size=(16, 16, 2))
    g = restore.solve_g(state, params, A, f)
    rhs = rhs_vector(state, params, A, f)
    resid = normal_operator(A, params)(g) - rhs
    assert grid.norm_l2(resid) <= 1e-8 * grid.norm_l2(rhs)


def test_g_denominator_positivity():
    A = LinearOperatorA.identity((8, 8))
    params = SolverParams(lam=0.1, gamma=1.0, mu1=1.0, mu2=1.0, mu3=0.5)
    D = restore.g_denominator(A, params)
    assert np.all(D >= params.mu3 - 1e-12)
    Du = restore.g_denominator(
        A, SolverParams(lam=0.1, gamma=1.0, constrained=False))
    assert np.all(Du > 0.0)


@pytest.mark.parametrize("constrained", [True, False])
def test_g_denominator_identity_matches_delta_kernel(constrained):
    # the identity holds no transfer array; a 1x1 unit kernel has |Ahat| = 1
    shape = (6, 9)
    A = LinearOperatorA.identity(shape)
    assert A.transfer is None and A.invertible
    delta = LinearOperatorA.convolution(BlurKernel(np.ones((1, 1))), shape)
    params = SolverParams(lam=0.1, gamma=1.0, constrained=constrained)
    assert np.array_equal(restore.g_denominator(A, params),
                          restore.g_denominator(delta, params))


def delta_symbol(op, shape):
    """Half-spectrum symbol of a periodic operator from its 2-D delta
    response."""
    delta = np.zeros(shape)
    delta[0, 0] = 1.0
    return np.fft.rfft2(op(delta)).real


@pytest.mark.parametrize("shape", [(1, 6), (5, 1), (2, 2), (7, 5), (64, 48),
                                   (512, 512)])
def test_laplacian_symbols_match_delta_responses(shape):
    """The 1-D second-difference symbols along x (full spectrum) and y
    (half), whose outer sum is L2 and L2^2 is L1, match the 2-D delta
    responses of div2 grad2 (symmetric field) and div grad to rounding."""
    L2x, L2y = restore._laplacian_symbols(shape)
    assert L2x.shape == (shape[0],) and L2y.shape == (shape[1] // 2 + 1,)
    assert np.all(L2x <= 0.0) and np.all(L2y <= 0.0)
    L2 = np.add.outer(L2x, L2y)
    L1 = np.square(L2)
    ref1 = delta_symbol(lambda u: grid.div2(grid.grad2(u, 3)), shape)
    ref2 = delta_symbol(lambda u: grid.div(grid.grad(u)), shape)
    for got, ref in ((L1, ref1), (L2, ref2)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


def prox_magnitude_oracle(a, mu, w):
    """argmin_{t>=0} (mu/2)(t-a)^2 + w*t by bounded scalar minimization."""
    res = minimize_scalar(lambda t: 0.5 * mu * (t - a) ** 2 + w * t,
                          bounds=(0.0, a + 1.0), method="bounded",
                          options={"xatol": 1e-12})
    return res.x


def test_update_q_pinned_example():
    # per-pixel threshold lam*(1-w)/mu1 = 1 at the probe pixel
    f = np.zeros((3, 3))
    params = SolverParams(lam=2.0, gamma=1.0)
    state = restore.init_state(f, params)
    state.b[1, 1] = (3.0, 0.0, 4.0)     # (xx, xy, yy)
    omega = np.full((3, 3), 0.5)
    q = restore.update_q(state, params, omega)
    assert np.allclose(q[1, 1], (2.4, 0.0, 3.2), atol=1e-12)
    q_zero = restore.update_q(restore.init_state(f, params), params, omega)
    assert np.all(q_zero == 0.0)


def test_update_v_pinned_example():
    f = np.zeros((3, 3))
    params = SolverParams(lam=1.0, gamma=1.0)
    state = restore.init_state(f, params)
    state.c[0, 2] = (0.6, 0.8)
    omega = np.full((3, 3), 0.5)
    v = restore.update_v(state, params, omega)
    assert np.allclose(v[0, 2], (0.3, 0.4), atol=1e-12)
    # threshold at or above the magnitude shrinks to zero
    big = SolverParams(lam=1.0, gamma=4.0)
    assert np.all(restore.update_v(state, big, omega) == 0.0)


def test_update_q_zero_threshold_is_identity():
    rng = np.random.default_rng(12)
    f = rng.normal(size=(4, 4))
    params = SolverParams(lam=0.0, gamma=1.0)
    state = restore.init_state(f, params)
    state.b = rng.normal(size=(4, 4, 4))
    h = state.b + grid.grad2(state.g)
    assert np.array_equal(restore.update_q(state, params, np.ones((4, 4))), h)


def test_zero_threshold_keeps_tiny_and_zero_pixels():
    """With threshold 0 a pixel with 0 < |h| < 1e-15 comes back unchanged,
    and |h| = 0 stays 0 with no NaN (and no divide warning)."""
    f = np.zeros((3, 3))
    params = SolverParams(lam=0.0, gamma=1.0)
    state = restore.init_state(f, params)
    b = np.zeros((3, 3, 4))
    b[0, 0] = [3e-17, -4e-17, 0.0, 1e-18]
    b[1, 2, grid.YY] = 7e-16
    b[2, 1] = [0.5, 0.0, -0.25, 2.0]
    state.b = b
    q = restore.update_q(state, params, np.ones((3, 3)))
    assert np.array_equal(q, b)
    assert not np.isnan(q).any()


@pytest.mark.parametrize("second_order", [True, False])
def test_shrink_edge_cases(second_order):
    """The shrink's scale max(1 - c w_p/|h|, 0) at the edges of its
    quotient: |h| = 0 under a positive threshold (inf) and under a zero
    one (NaN), a zero coefficient, w = 1 (w_p = 0 for q), a subnormal h,
    whose squares underflow to |h| = 0, under a positive threshold, and a
    quotient that overflows. No NaN comes out and no warning is raised
    (the suite turns warnings into errors); |h| = 0 gives 0, and a zero
    threshold keeps every other pixel to the bit. A zero coefficient
    returns h as it is, subnormal pixels and signed zeros included; w_p = 0
    under a positive one zeroes a subnormal pixel."""
    h = np.zeros((2, 3, 2))
    h[0, 1] = (3.0, 4.0)
    h[0, 2] = (5e-324, 0.0)
    h[1, 0] = (-0.6, 0.8)
    h[1, 2] = (1e-150, -1e-150)
    omega = np.array([[0.5, 0.5, 0.5], [1.0, 1.0, 0.0]])
    w_p = 1.0 - omega if second_order else omega
    for coefficient in (2.0, 0.0):
        got = restore._shrink(h.copy(), omega, second_order, coefficient)
        assert not np.isnan(got).any()
        assert np.all(got[0, 0] == 0.0)
        kept = h[0, 2] if coefficient == 0.0 else np.zeros(2)
        assert np.array_equal(got[0, 2], kept)
        threshold = coefficient * w_p
        for i, j in ((0, 1), (1, 0), (1, 2)):
            if threshold[i, j] == 0.0:
                assert np.array_equal(got[i, j], h[i, j])
            else:
                a = np.hypot(*h[i, j])
                expected = max(a - threshold[i, j], 0.0) / a * h[i, j]
                assert np.allclose(got[i, j], expected, rtol=1e-15, atol=0.0)
    # w = 1 zeroes q's threshold: h comes back unchanged but for the
    # subnormal pixel, and |h| = 0 stays 0
    got = restore._shrink(h.copy(), np.ones((2, 3)), True, 2.0)
    expected = h.copy()
    expected[0, 2] = 0.0
    assert np.array_equal(got, expected)
    # c w_p / |h| = 1e300 / 1.4e-150 overflows: the pixel shrinks to 0
    got = restore._shrink(h.copy(), np.full((2, 3), 0.5), second_order, 1e300)
    assert np.all(got == 0.0)
    # a zero coefficient is the identity to the bit, also where the channel
    # squares underflow to |h| = 0: (1e-300, -1e-300) is not (0, -0)
    tiny = np.array([[[1e-300, -1e-300], [-0.0, 0.0], [5e-324, -0.0]]])
    got = restore._shrink(tiny.copy(), np.full((1, 3), 0.5), second_order, 0.0)
    assert got.tobytes() == tiny.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shrinkage_matches_prox_oracle(seed):
    rng = np.random.default_rng(seed)
    f = np.zeros((10, 10))
    lam, mu1 = rng.uniform(0.1, 3.0), rng.uniform(0.5, 5.0)
    params = SolverParams(lam=lam, gamma=1.0, mu1=mu1)
    state = restore.init_state(f, params)
    state.b = rng.normal(size=(10, 10, 4)) * 2.0
    omega = rng.uniform(0.0, 1.0, size=(10, 10))
    q = restore.update_q(state, params, omega)
    h = state.b + grid.grad2(state.g)
    for i in range(10):
        for j in range(10):
            a = np.sqrt(np.sum(h[i, j] ** 2))
            w = lam * (1.0 - omega[i, j])
            t_star = prox_magnitude_oracle(a, mu1, w)
            got = np.sqrt(np.sum(q[i, j] ** 2))
            assert abs(got - t_star) < 1e-6


def test_update_z_clamps():
    f = np.zeros((2, 2))
    params = SolverParams(lam=0.1, gamma=0.1, iota=1.0)
    state = restore.init_state(f, params)
    state.d = np.zeros((2, 2))
    state.g = np.array([[1.3, -0.2], [0.5, 1.0]])
    z = restore.update_z(state, params)
    assert np.array_equal(z, [[1.0, 0.0], [0.5, 1.0]])


def test_update_duals_first_step_and_telescoping():
    rng = np.random.default_rng(13)
    f = rng.uniform(0.0, 1.0, size=(6, 6))
    params = SolverParams(lam=0.2, gamma=0.5)
    A = LinearOperatorA.identity(f.shape)
    omega = np.full((6, 6), 0.5)
    state = restore.init_state(f, params)

    # zero residuals leave duals untouched
    frozen = restore.init_state(f, params)
    frozen.q = grid.grad2(frozen.g, 3)
    frozen.v = grid.grad(frozen.g)
    frozen.z = frozen.g.copy()
    b, c, d = restore.update_duals(frozen)
    assert np.all(b == 0.0) and np.all(c == 0.0) and np.all(d == 0.0)

    tele_b = np.zeros((6, 6, 3))
    tele_c = np.zeros((6, 6, 2))
    tele_d = np.zeros((6, 6))
    for k in range(3):
        state.g = restore.solve_g(state, params, A, f)
        state.q = restore.update_q(state, params, omega)
        state.v = restore.update_v(state, params, omega)
        state.z = restore.update_z(state, params)
        tele_b += grid.grad2(state.g, 3) - state.q
        tele_c += grid.grad(state.g) - state.v
        tele_d += state.g - state.z
        state.b, state.c, state.d = restore.update_duals(state)
        if k == 0:
            assert np.array_equal(state.b, tele_b)  # first step: dual equals residual
    assert np.allclose(state.b, tele_b, atol=1e-14)
    assert np.allclose(state.c, tele_c, atol=1e-14)
    assert np.allclose(state.d, tele_d, atol=1e-14)


def test_run_constant_image_stops_by_tolerance_at_iteration_2():
    """Constant f in [0,1] with lam=gamma=0: every coupling starts consistent,
    so the first iterate is exact and its primal residuals pass. Iteration 1
    does not evaluate the dual residual; the check on the iteration after
    the first primal pass stops the run at iteration 2."""
    f = np.full((8, 8), 0.6)
    A = LinearOperatorA.identity(f.shape)
    params = SolverParams(lam=0.0, gamma=0.0)
    g, report = restore.run(f, A, params, np.ones(f.shape))
    assert report.iterations == 2
    assert report.termination == "tolerance"
    assert np.isnan(report.res_dual[0])
    assert report.res_dual[1] <= params.epsilon * np.sqrt(f.size)
    assert np.max(np.abs(g - f)) < 1e-12


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
@pytest.mark.parametrize("constrained", [True, False])
def test_run_solves_every_g_through_solve_g(monkeypatch, blur, constrained):
    """Iteration 1 is an ordinary iteration: run calls solve_g once per
    iteration, the first too, whether it stops by tolerance or at
    max_iter."""
    solve, calls = restore.solve_g, []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(restore, "solve_g", counting)
    shape = (12, 16)
    rng = np.random.default_rng(29)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    for epsilon, termination in ((1e-300, "max_iter"), (1e-2, "tolerance")):
        calls.clear()
        params = SolverParams(lam=0.1, gamma=0.8, epsilon=epsilon,
                              max_iter=40, constrained=constrained)
        _, report = restore.run(f, A, params, omega)
        assert report.termination == termination
        assert len(calls) == report.iterations


def test_run_stop_does_not_depend_on_image_size():
    """A periodic image tiled 1x, 2x and 3x has the same per-pixel
    residuals, so the rule stops all three at the same iteration."""
    ph = make_two_phase(48, 48, "disk", 0.2, 0.8)
    f = add_gaussian_noise(ph.image, 0.1, seed=5)
    params = SolverParams(lam=0.1, gamma=1.95)
    stops = []
    for k in (1, 2, 3):
        tiled = np.tile(f, (k, k))
        _, report = restore.run(tiled, LinearOperatorA.identity(tiled.shape),
                                params, edge_weight(tiled, 1.0, 10.0))
        assert report.termination == "tolerance"
        stops.append(report.iterations)
    assert stops[0] < params.max_iter
    assert stops == [stops[0]] * 3


def test_run_inactive_box_stops_by_tolerance():
    """An image strictly inside (0, 1) never meets the box: |g - z| is
    exactly 0 through iteration BALANCE_EVERY, and after it z tracks the
    relaxed point RELAXATION g + (1 - RELAXATION) z_old, so |g - z| is
    positive and takes part in the stop. The dual residual is evaluated on
    balancing iterations and on the iteration after the first one whose
    primal residuals pass (here not itself an evaluated one), and the run
    stops at the first evaluated iteration where both pass."""
    rng = np.random.default_rng(4)
    i, j = np.ogrid[:32, :32]
    f = 0.5 + 0.2 * np.sin(i / 5.0) * np.cos(j / 7.0) + rng.normal(0, 0.02, (32, 32))
    assert 0.0 < f.min() and f.max() < 1.0
    params = SolverParams(lam=0.1, gamma=0.5)
    _, report = restore.run(f, LinearOperatorA.identity(f.shape), params,
                            edge_weight(f, 1.0, 10.0))
    assert np.all(report.res_z[:restore.BALANCE_EVERY] == 0.0)
    assert np.all(report.res_z[restore.BALANCE_EVERY:] > 0.0)
    assert report.termination == "tolerance"
    assert restore.BALANCE_EVERY < report.iterations < params.max_iter
    tolerance = params.epsilon * np.sqrt(f.size)
    primal = np.maximum.reduce((report.res_q, report.res_v, report.res_z)) <= tolerance
    k = np.arange(1, report.iterations + 1)
    first_pass = k[primal][0]
    assert first_pass > 1 and first_pass % restore.BALANCE_EVERY
    assert np.array_equal(~np.isnan(report.res_dual),
                          (k % restore.BALANCE_EVERY == 0) | (k == first_pass + 1))
    both = primal & (report.res_dual <= tolerance)
    assert both[-1] and not both[:-1].any()


def test_run_first_primal_pass_on_balancing_iteration_adds_no_check():
    """When the primal residuals first pass on an iteration that evaluates
    the dual residual anyway, the next iteration does not evaluate it."""
    f = add_gaussian_noise(make_two_phase(24, 24, "disk", 0.2, 0.8).image, 0.1, seed=2)
    params = SolverParams(lam=0.1, gamma=1.95)
    _, report = restore.run(f, LinearOperatorA.identity(f.shape), params,
                            edge_weight(f))
    primal = np.maximum.reduce((report.res_q, report.res_v, report.res_z))
    k = np.arange(1, report.iterations + 1)
    first_pass = k[primal <= params.epsilon * 24][0]
    assert first_pass > restore.BALANCE_EVERY    # on a relaxed iteration
    assert first_pass % restore.BALANCE_EVERY == 0
    assert report.iterations > first_pass + 1
    assert np.array_equal(~np.isnan(report.res_dual),
                          k % restore.BALANCE_EVERY == 0)


def test_solve_g_consistent_couplings_reproduce_f():
    """With q=grad2 f, v=grad f, z=f and zero duals the g system is solved
    by f itself, whatever the penalties are."""
    rng = np.random.default_rng(14)
    f = rng.uniform(0.0, 1.0, size=(8, 8))
    params = SolverParams(lam=0.0, gamma=0.0, mu1=2.0, mu2=0.7, mu3=1.3)
    state = restore.init_state(f, params)
    state.q = grid.grad2(f, 3)
    state.v = grid.grad(f)
    state.z = f.copy()
    g = restore.solve_g(state, params, LinearOperatorA.identity(f.shape), f)
    assert np.max(np.abs(g - f)) < 1e-10


def test_run_constrained_output_in_box():
    rng = np.random.default_rng(15)
    f = rng.uniform(0.0, 1.0, size=(16, 16)) + rng.normal(0, 0.3, size=(16, 16))
    A = LinearOperatorA.identity(f.shape)
    params = SolverParams(lam=0.05, gamma=0.4, max_iter=40)
    g, report = restore.run(f, A, params, np.full(f.shape, 0.5))
    assert g.min() >= 0.0 and g.max() <= 1.0
    assert not np.shares_memory(g, f)
    assert report.iterations == len(report.res_q) == len(report.objective)


def test_run_unconstrained_reports_nan_z_columns():
    rng = np.random.default_rng(16)
    f = rng.uniform(0.0, 1.0, size=(12, 12))
    A = LinearOperatorA.identity(f.shape)
    params = SolverParams(lam=0.05, gamma=0.4, max_iter=20, constrained=False)
    g, report = restore.run(f, A, params, np.full(f.shape, 0.5))
    assert not np.shares_memory(g, f)
    assert np.all(np.isnan(report.res_z))
    assert np.isfinite(g).all()


def test_run_energy_never_above_start():
    rng = np.random.default_rng(17)
    f = rng.uniform(0.0, 1.0, size=(16, 16)) + rng.normal(0, 0.2, size=(16, 16))
    A = LinearOperatorA.identity(f.shape)
    omega = np.full(f.shape, 0.5)
    params = SolverParams(lam=0.1, gamma=0.8, max_iter=60)
    g, report = restore.run(f, A, params, omega)
    assert restore.objective(g, f, A, params, omega) <= restore.objective(
        f, f, A, params, omega)


def test_run_is_deterministic():
    rng = np.random.default_rng(18)
    f = rng.uniform(0.0, 1.0, size=(10, 10))
    A = LinearOperatorA.identity(f.shape)
    params = SolverParams(lam=0.1, gamma=0.5, max_iter=15)
    omega = np.full(f.shape, 0.7)
    g1, r1 = restore.run(f, A, params, omega)
    g2, r2 = restore.run(f, A, params, omega)
    assert np.array_equal(g1, g2)
    assert np.array_equal(r1.res_q, r2.res_q)
    assert np.array_equal(r1.objective, r2.objective, equal_nan=True)


def test_run_singular_operator_warns():
    f = np.zeros((4, 4))
    k = BlurKernel(np.array([[0.25, 0.5, 0.25]]))
    A = LinearOperatorA.convolution(k, (4, 4))
    params = SolverParams(lam=0.1, gamma=0.1, max_iter=2)
    with pytest.warns(RuntimeWarning):
        restore.run(f, A, params, np.ones(f.shape))


def test_run_shape_checks():
    f = np.zeros((4, 4))
    A = LinearOperatorA.identity((4, 4))
    params = SolverParams(lam=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        restore.run(f, A, params, np.ones((4, 5)))
    with pytest.raises(ValueError):
        restore.run(np.zeros((5, 4)), A, params, np.ones((5, 4)))
    with pytest.raises(ValueError, match="observed image must be 2-D"):
        restore.run(np.zeros(4), LinearOperatorA.identity((4,)), params, np.ones(4))


@pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
def test_run_rejects_image_without_pixels(shape):
    params = SolverParams(lam=0.1, gamma=0.1)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} has no pixels")):
        restore.run(np.zeros(shape), LinearOperatorA.identity(shape), params,
                    np.ones(shape))


@pytest.mark.parametrize("name,bad", [("f", np.nan), ("omega", np.inf)])
def test_run_rejects_non_finite_input(name, bad):
    f = np.full((6, 7), 0.5)
    omega = np.ones(f.shape)
    {"f": f, "omega": omega}[name][2, 3] = bad
    params = SolverParams(lam=0.1, gamma=0.5, max_iter=3)
    with pytest.raises(ValueError, match=rf"{name} has 1 non-finite entry"):
        restore.run(f, LinearOperatorA.identity(f.shape), params, omega)


def relative(num, den):
    return 0.0 if num == 0.0 else (num / den if den > 0.0 else np.inf)


def reference_loop(f, A, params, omega):
    """The iteration as public step functions called with their defaults,
    so that each recomputes the gradients, A* f and the symbol it needs
    (grad2 g here in the state's symmetric (xx, xy, yy) layout);
    after iteration BALANCE_EVERY, each block's dual first takes the
    relaxation's step (RELAXATION - 1)(K g - a_old), in place. Every
    BALANCE_EVERY-th iteration but the last, the relative residuals
    are formed here from full copies of q, v, z and handed to
    ``balance_penalties``. For runs whose primal residuals never pass: the
    dual residual is evaluated on balancing iterations, in the difference
    form from the copies and in the stationarity form of
    the g-solve (see ``test_dual_residual_matches_difference_form``), with
    and without its relaxation term, and the energy on balancing
    iterations and the last one."""
    start = params
    state = restore.init_state(f, params)
    res, energies, mus, dual_norms, stationary = [], [], [], [], []
    for k in range(1, params.max_iter + 1):
        previous = (state.q.copy(), state.v.copy(),
                    state.z.copy() if params.constrained else None)
        state.g = restore.solve_g(state, params, A, f)
        alpha = restore.RELAXATION if k > restore.BALANCE_EVERY else 1.0
        if alpha != 1.0:
            state.b += (alpha - 1.0) * (grid.grad2(state.g, 3) - state.q)
            state.c += (alpha - 1.0) * (grid.grad(state.g) - state.v)
            if params.constrained:
                state.d += (alpha - 1.0) * (state.g - state.z)
        state.q = restore.update_q(state, params, omega)
        state.v = restore.update_v(state, params, omega)
        if params.constrained:
            state.z = restore.update_z(state, params)
        res.append((grid.norm_l2(grid.grad2(state.g, 3) - state.q),
                    grid.norm_l2(grid.grad(state.g) - state.v),
                    grid.norm_l2(state.g - state.z) if params.constrained else np.nan))
        state.b, state.c, state.d = restore.update_duals(state)
        balancing = k % restore.BALANCE_EVERY == 0 and k < params.max_iter
        energies.append(restore.objective(state.g, f, A, params, omega)
                        if balancing or k == params.max_iter else np.nan)
        mus.append((params.mu1, params.mu2, params.mu3))
        dual_norms.append(np.nan)
        stationary.append((np.nan, np.nan))
        if not balancing:
            continue
        blocks = [(grid.grad2(state.g, 3), state.q, grid.div2(state.q - previous[0]),
                   grid.div2(state.b)),
                  (grid.grad(state.g), state.v, grid.div(state.v - previous[1]),
                   grid.div(state.c))]
        if params.constrained:
            blocks.append((state.g, state.z, state.z - previous[2], state.d))
        primal = [relative(grid.norm_l2(kg - aux),
                           max(grid.norm_l2(kg), grid.norm_l2(aux)))
                  for kg, aux, _, _ in blocks]
        dual = [relative(grid.norm_l2(step), grid.norm_l2(scale))
                for _, _, step, scale in blocks]
        s = sum(mu * step for mu, (_, _, step, _) in
                zip((params.mu1, -params.mu2, params.mu3), blocks))
        dual_norms[-1] = grid.norm_l2(s)
        s = (apply_adjoint(A, f - apply(A, state.g))
             - params.mu1 * grid.div2(state.b) + params.mu2 * grid.div(state.c))
        relaxation = (params.mu1 * grid.div2(grid.grad2(state.g, 3) - previous[0])
                      - params.mu2 * grid.div(grid.grad(state.g) - previous[1]))
        if params.constrained:
            s -= params.mu3 * state.d
            relaxation += params.mu3 * (state.g - previous[2])
        stationary[-1] = (grid.norm_l2(s - (1.0 - alpha) * relaxation),
                          grid.norm_l2(s))
        if balancing:
            params = restore.balance_penalties(state, params, start, primal, dual)
    restored = state.z if params.constrained else state.g
    return (restored, np.array(res), np.array(energies), np.array(mus),
            np.array(dual_norms), np.array(stationary))


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("shape", [(12, 16), (11, 13)])
def test_run_matches_step_function_loop(blur, constrained, shape):
    rng = np.random.default_rng(shape[1])
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    # epsilon far below reach, so both sides run all max_iter iterations,
    # which hold three balancing iterations and relax from iteration 6 on
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300, max_iter=17,
                          constrained=constrained)
    g, report = restore.run(f, A, params, omega)
    g_ref, res_ref, energy_ref, mu_ref, dual_ref, _ = reference_loop(
        f, A, params, omega)
    assert report.iterations == params.max_iter
    assert np.array_equal(report.mu, mu_ref)
    assert np.allclose(report.res_dual, dual_ref, rtol=1e-10, atol=1e-12,
                       equal_nan=True)
    assert len(np.unique(mu_ref, axis=0)) > 1   # the penalties did move
    assert np.max(np.abs(g - g_ref)) <= 1e-12
    got = np.stack((report.res_q, report.res_v, report.res_z), axis=-1)
    assert np.allclose(got, res_ref, rtol=0.0, atol=1e-12, equal_nan=True)
    assert np.allclose(report.objective, energy_ref, rtol=0.0, atol=1e-12,
                       equal_nan=True)
    assert not np.isnan(report.objective[-1])


@pytest.mark.parametrize("blur,constrained", [("none", True), ("none", False),
                                               ("gaussian,5,5", True)])
def test_run_takes_final_energy_from_its_last_iteration(monkeypatch, blur,
                                                        constrained):
    """A run that ends at max_iter reports, as its last energy, the
    objective of its last g, bit for bit, from that iteration's own K g:
    after its last g-solve (the spectral solve of its right side) it forms
    grad2 g and grad g once each, in the block loop, and no more."""
    calls, iterates = [], []
    solve = "_spectral_solve"

    def logging(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            result = fn(*args, **kwargs)
            if name == solve:
                iterates.append(result)
            return result
        return wrapper

    monkeypatch.setattr(restore, solve, logging(solve, getattr(restore, solve)))
    for name in ("grad2", "grad"):
        monkeypatch.setattr(grid, name, logging(name, getattr(grid, name)))
    shape = (12, 16)
    rng = np.random.default_rng(27)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300, max_iter=7,
                          constrained=constrained)
    _, report = restore.run(f, A, params, omega)
    assert report.termination == "max_iter"
    assert calls.count(solve) == len(iterates) == params.max_iter
    assert calls[len(calls) - 1 - calls[::-1].index(solve):] == [
        solve, "grad2", "grad"]
    monkeypatch.undo()
    assert report.objective[-1] == restore.objective(iterates[-1], f, A, params,
                                                     omega)


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
@pytest.mark.parametrize("constrained", [True, False])
def test_run_energy_is_the_objective_of_its_iterate(monkeypatch, blur,
                                                    constrained):
    """Every energy the run evaluates, on its balancing iterations 5 and 10
    and on its last iteration, is objective() of that iteration's g bit for
    bit, though the run sums it from the terms its blocks form."""
    solve, iterates = restore._spectral_solve, []

    def logging(*args):
        iterates.append(solve(*args))
        return iterates[-1]

    monkeypatch.setattr(restore, "_spectral_solve", logging)
    shape = (12, 16)
    rng = np.random.default_rng(30)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300, max_iter=12,
                          constrained=constrained)
    _, report = restore.run(f, A, params, omega)
    monkeypatch.undo()
    assert len(iterates) == report.iterations == params.max_iter
    evaluated = np.flatnonzero(~np.isnan(report.objective))
    assert list(evaluated + 1) == [5, 10, 12]
    for k in evaluated:
        assert report.objective[k] == restore.objective(iterates[k], f, A,
                                                        params, omega)


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("signed_zeros", [False, True])
def test_run_first_g_matches_solve_g_from_init_state(monkeypatch, blur,
                                                     constrained, signed_zeros):
    """Iteration 1 solves from init_state's zero q, b, v, c and d: its g is
    bit for bit the g that solve_g makes from init_state, also for an f of negative zeros, whose g is exactly 0
    (``tobytes`` compares the sign of each zero too)."""
    shape = (12, 16)
    rng = np.random.default_rng(28)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    if signed_zeros:
        f = np.full(shape, -0.0)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300, max_iter=2,
                          constrained=constrained)
    solve, iterates = restore._spectral_solve, []

    def logging(*args):
        iterates.append(solve(*args))
        return iterates[-1]

    monkeypatch.setattr(restore, "_spectral_solve", logging)
    restore.run(f, A, params, omega)
    monkeypatch.undo()
    expected = restore.solve_g(restore.init_state(f, params), params, A, f)
    assert iterates[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
@pytest.mark.parametrize("constrained", [True, False])
def test_denominator_and_thresholds_keep_the_bits_of_their_expressions(
        blur, constrained):
    """g_denominator accumulates in its own buffer, in the order of its
    expression, and so keeps the bits of that expression formed from new
    arrays, L2 being the outer sum of the 1-D symbols and L1 its square."""
    shape = (10, 14)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    params = SolverParams(lam=0.3, gamma=1.95, mu1=0.7, mu2=3.1, mu3=0.37,
                          constrained=constrained)
    L2 = np.add.outer(*restore._laplacian_symbols(shape))
    L1 = np.square(L2)
    expected = A.gain_half() + params.mu1 * L1 - params.mu2 * L2
    if constrained:
        expected = expected + params.mu3
    assert np.array_equal(restore.g_denominator(A, params), expected)


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
def test_dual_residual_matches_difference_form(blur):
    """run takes s in the difference form mu1 div2(dq) - mu2 div(dv) +
    mu3 dz; it matches the stationarity form of the g-solve, also on an
    iteration right after the penalties and the scaled duals were
    rebalanced, and on an over-relaxed one.

    The g-solve makes 0 = A*(f - A g) + mu1 div2(q0 - b0 - grad2 g)
    + mu2 div(c0 - v0 + grad g) + mu3 (z0 - d0 - g), with q0, b0, ... the
    values it started from. The block updates end with y = y0 + h - a,
    h = alpha K g + (1 - alpha) a0, so y0 = y - a + a0 - (1 - alpha)(a0 - K g)
    for y, a = b, q and d, z, and the same with the signs of div's terms
    for c, v. Substituting, 0 = A*(f - A g) - mu1 div2 b + mu2 div c - mu3 d
    - s - (1 - alpha) [mu1 div2(grad2 g - q0) - mu2 div(grad g - v0)
    + mu3 (g - z0)], so s is the stationarity form less the relaxation
    term; alpha = 1 on the unrelaxed iterations."""
    shape = (14, 15)
    rng = np.random.default_rng(19)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    # s is evaluated on iterations 5 and 10; 5 rebalances and 10 is
    # over-relaxed
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300, max_iter=11)
    _, report = restore.run(f, A, params, omega)
    *_, forms = reference_loop(f, A, params, omega)
    stationary, without_relaxation = forms.T
    assert np.array_equal(np.isnan(report.res_dual), np.isnan(stationary))
    assert np.count_nonzero(~np.isnan(stationary)) == 2
    assert not np.array_equal(report.mu[4], report.mu[5])
    assert np.allclose(report.res_dual, stationary, rtol=1e-10, atol=0.0,
                       equal_nan=True)
    # the relaxation term is 0 through iteration 5 and carries weight on 10
    assert np.array_equal(stationary[:5], without_relaxation[:5], equal_nan=True)
    assert not np.isclose(stationary[9], without_relaxation[9], rtol=1e-3)


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
def test_run_is_unrelaxed_through_first_balancing_iteration(blur):
    """Iterations 1..BALANCE_EVERY are plain split Bregman iterations: a run
    of max_iter=BALANCE_EVERY is bit-identical to the step loop, which does
    not relax there, and a longer run records the same residuals on them."""
    shape = (12, 16)
    rng = np.random.default_rng(24)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300,
                          max_iter=restore.BALANCE_EVERY)
    g, report = restore.run(f, A, params, omega)
    g_ref, res_ref, *_ = reference_loop(f, A, params, omega)
    got = np.stack((report.res_q, report.res_v, report.res_z), axis=-1)
    assert np.array_equal(g, g_ref)
    assert np.array_equal(got, res_ref)
    _, longer = restore.run(f, A, dataclasses.replace(params, max_iter=12), omega)
    assert np.array_equal(longer.res_q[:restore.BALANCE_EVERY], report.res_q)
    assert np.array_equal(longer.res_z[:restore.BALANCE_EVERY], report.res_z)


def test_relaxation_takes_fewer_iterations(monkeypatch):
    """On a small noisy disk the relaxed iteration stops sooner than the
    same run with RELAXATION set to 1, the plain split Bregman iteration."""
    f = add_gaussian_noise(make_two_phase(48, 48, "disk", 0.2, 0.8).image, 0.1, seed=3)
    A = LinearOperatorA.identity(f.shape)
    params = SolverParams(lam=0.1, gamma=1.95)
    omega = edge_weight(f)
    _, relaxed = restore.run(f, A, params, omega)
    monkeypatch.setattr(restore, "RELAXATION", 1.0)
    _, plain = restore.run(f, A, params, omega)
    assert relaxed.termination == plain.termination == "tolerance"
    assert relaxed.iterations < plain.iterations
    assert np.array_equal(relaxed.res_q[:restore.BALANCE_EVERY],
                          plain.res_q[:restore.BALANCE_EVERY])


@pytest.mark.parametrize("blur", ["none", "gaussian,5,5"])
@pytest.mark.parametrize("constrained", [True, False])
def test_run_leaves_its_inputs_alone(blur, constrained):
    """For the identity, run's A* f is the caller's f itself. After a run
    through balancing and relaxation, f and omega are bit-unchanged, and
    the restoration shares no memory with f."""
    shape = (12, 16)
    rng = np.random.default_rng(26)
    f = rng.uniform(0.0, 1.0, size=shape) + rng.normal(0.0, 0.3, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = rng.uniform(0.1, 1.0, size=shape)
    f_before, omega_before = f.copy(), omega.copy()
    params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300, max_iter=11,
                          constrained=constrained)
    restored, _ = restore.run(f, A, params, omega)
    assert np.array_equal(f, f_before)
    assert np.array_equal(omega, omega_before)
    assert not np.shares_memory(restored, f)


def test_run_working_set_stays_within_21_planes():
    """The tracemalloc peak of run, in planes of f: the state's 13 (q and b
    are symmetric three-plane fields), the run's constants (the g-solve's
    half-spectrum symbol, A* f under blur; the Laplacian symbols are 1-D)
    and the transients of one step, since each block's K g is freed before
    the next block forms its own. A 128^2 three-phase phantom under
    gaussian,5,5 blur, bracketed on iterations 5 and 10 and relaxed from
    6, peaks at 20.65 planes; the differences buffer no strided slices,
    holding grad2 g and grad g together would add two planes, four-plane
    q, b and grad2 g three, and the shrink thresholds as planes two."""
    ph = make_three_phase(128, 128)
    A = LinearOperatorA.convolution(gaussian_kernel(5, 5.0), ph.image.shape)
    f = add_gaussian_noise(apply(A, ph.image), 0.01, seed=3)
    omega = edge_weight(f)
    params = SolverParams(lam=0.1, gamma=1.95, epsilon=1e-300, max_iter=11)
    tracemalloc.start()
    try:
        _, report = restore.run(f, A, params, omega)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations == 11
    assert np.count_nonzero(~np.isnan(report.res_dual)) == 2
    assert peak <= 21 * f.nbytes


def test_state_vector_fields_stay_planar():
    """init_state allocates q, v, b, c planar and the in-place steps keep
    them so: every channel is a C-contiguous plane."""
    shape = (9, 11)
    rng = np.random.default_rng(21)
    f = rng.uniform(0.0, 1.0, size=shape)
    omega = rng.uniform(0.1, 1.0, size=shape)
    A = LinearOperatorA.identity(shape)
    params = SolverParams(lam=0.1, gamma=0.8)
    state = restore.init_state(f, params)
    for _ in range(2):
        state.g = restore.solve_g(state, params, A, f)
        restore.update_q(state, params, omega)
        restore.update_v(state, params, omega)
        restore.update_z(state, params)
        restore.update_duals(state)
    for p in (state.q, state.v, state.b, state.c):
        assert all(p[..., k].flags.c_contiguous for k in range(p.shape[-1]))


def test_balance_penalties_rescales_duals_within_span():
    f = np.random.default_rng(20).uniform(0.0, 1.0, size=(6, 6))
    start = SolverParams(lam=0.1, gamma=0.5, mu1=4.0, mu2=1.0, mu3=2.0)
    state = restore.init_state(f, start)
    state.b += 1.0
    state.c += 1.0
    state.d += 1.0
    # q: primal dominates by 4, v: balanced, z: dual dominates without bound
    params = restore.balance_penalties(state, start, start, (0.4, 0.2, 0.0),
                                       (0.1, 0.1, np.inf))
    assert (params.mu1, params.mu2, params.mu3) == (8.0, 1.0, 2.0 / 64)
    assert np.all(state.b == 0.5) and np.all(state.c == 1.0) and np.all(state.d == 64.0)
    # at the span's edge a block keeps its mu and its dual
    edge = dataclasses.replace(start, mu1=4.0 * restore.BALANCE_SPAN)
    assert restore.balance_penalties(state, edge, start, (1.0, 0.0, 0.0),
                                     (0.0, 0.0, 0.0)) is edge
    assert np.all(state.b == 0.5)
    # a step of 64 that would cross the edge stops at it, and the dual moves
    # by the same power of two: 4 for q, 1/8 for v
    near = dataclasses.replace(start, mu1=start.mu1 * restore.BALANCE_SPAN / 4,
                               mu2=start.mu2 / restore.BALANCE_SPAN * 8)
    params = restore.balance_penalties(state, near, start, (1.0, 0.0, 0.0),
                                       (0.0, 1.0, 0.0))
    assert (params.mu1, params.mu2, params.mu3) == (
        4.0 * restore.BALANCE_SPAN, 1.0 / restore.BALANCE_SPAN, 2.0)
    assert np.all(state.b == 0.125) and np.all(state.c == 8.0) and np.all(state.d == 64.0)


@pytest.mark.parametrize("ratio,step", [(4.0, 2.0), (100.0, 8.0),
                                        (1e6, 64.0), (np.inf, 64.0)])
def test_balance_penalties_steps_by_power_of_two_nearest_root(ratio, step):
    """A block moves by the power of two nearest sqrt(ratio), at most
    BALANCE_MAX_FACTOR, up when its primal residual dominates and down when
    its dual residual does; mu times its scaled dual is unchanged to the
    bit."""
    f = np.random.default_rng(22).uniform(0.0, 1.0, size=(5, 6))
    start = SolverParams(lam=0.1, gamma=0.5, mu1=3.0, mu2=0.7, mu3=1.5)
    state = make_state(f, start, np.random.default_rng(23))
    big, small = (1.0, 0.0) if np.isinf(ratio) else (ratio, 1.0)
    for primal, dual, factor in [((big,) * 3, (small,) * 3, step),
                                 ((small,) * 3, (big,) * 3, 1.0 / step)]:
        duals = (state.b, state.c, state.d)
        before = [mu * y for mu, y in zip((3.0, 0.7, 1.5), duals)]
        params = restore.balance_penalties(state, start, start, primal, dual)
        mus = (params.mu1, params.mu2, params.mu3)
        assert mus == (3.0 * factor, 0.7 * factor, 1.5 * factor)
        after = [mu * y for mu, y in zip(mus, duals)]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        # undo, so that the dual side starts from the same state
        assert restore.balance_penalties(state, params, start, dual,
                                         primal) == start


def test_run_deblur_stops_within_iteration_budget():
    """Regression guard on iterations to stop: a 64^2 three-phase phantom
    under gaussian,5,5 blur, seeds 1-3. Balancing by a fixed factor 2 took
    95 + 125 + 60 = 280 iterations, the power of two nearest the root of
    the residual ratio takes 60 + 80 + 50 = 190. The bound 220 leaves a
    margin of 30 iterations above 190 and lies 60 below 280."""
    ph = make_three_phase(64, 64)
    A = LinearOperatorA.convolution(gaussian_kernel(5, 5.0), ph.image.shape)
    params = SolverParams(lam=0.1, gamma=1.95, max_iter=300)
    total = 0
    for seed in (1, 2, 3):
        f = add_gaussian_noise(apply(A, ph.image), 0.01, seed)
        _, report = restore.run(f, A, params, edge_weight(f))
        assert report.termination == "tolerance"
        total += report.iterations
    assert total <= 220


def test_run_rebuilds_g_symbol_only_when_a_penalty_changes(monkeypatch):
    """The g-solve's symbol is built once at the start and once more after
    each balancing iteration that changed a penalty, which shows in the
    report as a row whose mu differs from the row before it."""
    g_denominator, calls = restore.g_denominator, []

    def counting(*args, **kwargs):
        calls.append(1)
        return g_denominator(*args, **kwargs)

    monkeypatch.setattr(restore, "g_denominator", counting)
    ph = make_three_phase(64, 64)
    A = LinearOperatorA.convolution(gaussian_kernel(5, 5.0), ph.image.shape)
    params = SolverParams(lam=0.1, gamma=1.95, max_iter=300)
    for seed in (1, 2, 3):
        f = add_gaussian_noise(apply(A, ph.image), 0.01, seed)
        calls.clear()
        _, report = restore.run(f, A, params, edge_weight(f))
        changes = np.count_nonzero(np.any(np.diff(report.mu, axis=0) != 0, axis=1))
        assert changes > 0
        assert len(calls) == 1 + changes


@pytest.mark.parametrize("constrained", [True, False])
def test_run_stops_on_non_finite_iterate(constrained):
    """Penalties at the ends of the float range overflow the first g-solve
    of an image in [0, 1]; ``run`` stops there with FloatingPointError
    instead of iterating on inf. Constrained, mu3 = 1e308 times the box
    iterate sums past the float maximum in the transform of the right
    side. Unconstrained, the smallest positive penalties leave the symbol
    subnormal where a blur's transfer function vanishes, and the division
    by it overflows. (Pixels too large to square are rejected up front:
    ``test_run_rejects_huge_pixel``.)"""
    f = np.random.default_rng(5).uniform(0.0, 1.0, size=(8, 8))
    if constrained:
        A = LinearOperatorA.identity(f.shape)
        params = SolverParams(lam=0.1, gamma=0.1, mu3=1e308)
    else:
        A = LinearOperatorA.convolution(BlurKernel(np.array([[0.25, 0.5, 0.25]])),
                                        f.shape)
        params = SolverParams(lam=0.1, gamma=0.1, mu1=5e-324, mu2=5e-324,
                              constrained=False)
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "degradation operator has",
                                RuntimeWarning)
        with pytest.raises(FloatingPointError,
                           match="non-finite iterate at iteration 1"):
            restore.run(f, A, params, np.ones(f.shape))


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_run_rejects_huge_pixel(value):
    """A finite pixel too large to square fails before the first g-solve,
    naming the image and its range against ``grid.MAX_PIXEL``, with no
    numpy warning (warnings are errors here)."""
    f = np.full((32, 32), 0.5)
    f[8:24, 8:24] = 0.9
    f[3, 4] = value
    span = f"[{min(value, 0.5):.6g}, {max(value, 0.9):.6g}]"
    params = SolverParams(lam=0.1, gamma=0.1, max_iter=3)
    with pytest.raises(ValueError, match=re.escape(
            f"observed image f spans {span}; pixel magnitudes above 1e+100")):
        restore.run(f, LinearOperatorA.identity(f.shape), params, np.ones(f.shape))


def test_run_inactive_box_keeps_mu3_within_span():
    """Criterion 4's run: the box never binds, so the z block has no dual to
    be relative to and its dual residual always dominates. mu3 falls
    to mu3 / BALANCE_SPAN and stays there, and the run still ends by
    tolerance."""
    ph = make_two_phase(64, 64, "disk", 0.2, 0.8, radius=20.0)
    f = add_gaussian_noise(ph.image, 0.02, seed=7)
    params = SolverParams(lam=0.1, gamma=1.95, mu1=50.0, mu2=200.0, mu3=1.0,
                          epsilon=1e-6, max_iter=2000)
    _, report = restore.run(f, LinearOperatorA.identity(f.shape), params,
                            edge_weight(f, 1.0, 10.0))
    assert report.termination == "tolerance"
    mu3 = report.mu[:, 2]
    assert np.all(np.diff(mu3) <= 0.0)
    assert mu3.min() == mu3[-1] == params.mu3 / restore.BALANCE_SPAN
    low = report.mu[:, :2] / (params.mu1, params.mu2)
    assert 1.0 / restore.BALANCE_SPAN <= low.min() <= low.max() <= restore.BALANCE_SPAN


@pytest.mark.parametrize("blur,transforms", [("none", 2), ("gaussian,5,5", 4)])
def test_run_computes_each_stencil_once_per_iteration(monkeypatch, blur, transforms):
    """Per plain iteration: one grad2, grad, div2 and div each, and only the
    half-spectrum transform pair of the g-solve. ``transforms`` is the count
    on a balancing iteration, which also evaluates the energy, and with it
    A g when there is blur."""
    names = {grid: ("grad2", "grad", "div2", "div"),
             np.fft: ("fft2", "ifft2", "rfft2", "irfft2")}
    calls = dict.fromkeys((n for group in names.values() for n in group), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, group in names.items():
        for name in group:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    shape = (10, 9)
    f = np.random.default_rng(3).uniform(0.0, 1.0, size=shape)
    A = (LinearOperatorA.identity(shape) if blur == "none" else
         LinearOperatorA.convolution(gaussian_kernel(5, 5.0), shape))
    omega = np.full(shape, 0.5)

    def count(iterations):
        for name in calls:
            calls[name] = 0
        params = SolverParams(lam=0.1, gamma=0.8, epsilon=1e-300,
                              max_iter=iterations)
        restore.run(f, A, params, omega)
        return dict(calls)

    # Iterations 3 and 4 are plain; iterations 5 and 6 hold one balancing
    # iteration, which adds div2 and div of q and v before and after their
    # updates and of the duals b and c, and, with blur, the transform pair
    # of A g in the energy. Every count evaluates the energy of the final
    # iterate, and no iteration of the two- and four-iteration counts
    # evaluates s.
    few, many, balanced = count(2), count(4), count(6)
    per_it = {name: (many[name] - few[name]) / 2 for name in calls}
    assert per_it == {"grad2": 1, "grad": 1, "div2": 1, "div": 1, "fft2": 0,
                      "ifft2": 0, "rfft2": 1, "irfft2": 1}
    extra = {name: balanced[name] - many[name] - 2 * per_it[name]
             for name in calls}
    energy = transforms / 2 - 1
    assert extra == {"grad2": 0, "grad": 0, "div2": 3, "div": 3, "fft2": 0,
                     "ifft2": 0, "rfft2": energy, "irfft2": energy}
    assert balanced["fft2"] == balanced["ifft2"] == 0


def test_params_validation():
    """Out-of-range and non-finite values fail at construction, naming the
    field and its value, before any solve could start."""
    for field, value in [("lam", np.nan), ("gamma", np.inf), ("mu1", np.nan),
                         ("mu2", np.nan), ("mu3", -np.inf), ("iota", np.nan),
                         ("epsilon", np.nan), ("max_iter", 2.5)]:
        with pytest.raises(ValueError, match=field):
            SolverParams(**{"lam": 0.1, "gamma": 0.1, field: value})
    for field, value, message in [
            ("lam", -1.0, "lam must be >= 0, got -1.0"),
            ("gamma", -0.5, "gamma must be >= 0, got -0.5"),
            ("mu1", 0.0, "mu1 must be > 0, got 0.0"),
            ("mu2", 0.0, "mu2 must be > 0, got 0.0"),
            ("mu3", -2.0, "mu3 must be > 0, got -2.0"),
            ("iota", 0.0, "iota must be > 0, got 0.0"),
            ("epsilon", 0.0, "epsilon must be > 0, got 0.0"),
            ("max_iter", 0, "max_iter must be >= 1, got 0")]:
        with pytest.raises(ValueError) as info:
            SolverParams(**{"lam": 0.1, "gamma": 0.1, field: value})
        assert str(info.value) == message
