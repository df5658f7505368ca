"""Stage-1 restoration: alternating split Bregman solver for the
box-constrained hybrid first/second-order TV model

    min_g  ||f - A g||^2 + lam * |(1-w) grad2 g|_1 + gamma * |w grad g|_1
           subject to 0 <= g <= iota   (constrained mode only),

where |.|_1 is the isotropic per-pixel vector l1 norm and w is the edge
weight. Splitting introduces q = grad2 g, v = grad g, z = g with duals
b, c, d. Each outer iteration solves the g-subproblem exactly in the
frequency domain, shrinks q and v in closed form, projects z onto the box,
then accumulates the residuals into the duals. Unconstrained mode drops
z, d and the mu3 coupling entirely. q, b and grad2 g are symmetric
(xx, xy, yy) fields, three planes rather than four, since grad2's XY and
YX components are one operator; the steps take the layout of b, so a
four-channel q and b work too (see ``grid``).

The penalties mu1, mu2, mu3 of SolverParams are starting values. Every
BALANCE_EVERY iterations ``run`` balances each block's penalty against its
residuals (Boyd et al. 2011, sec. 3.4.1, with the scale-free relative
residuals and the adaptive step of Wohlberg 2017, arXiv:1704.06209): a
block whose relative primal residual dominates its relative dual residual
gets a larger mu, and the reverse, by the power of two nearest the square
root of the ratio of the two. The scaled duals are rescaled with their mu,
so the unscaled multipliers stay the same: mu changes the path to the
minimizer, not the minimizer.

From the iteration after the first balancing one, ``run`` over-relaxes
the split (Boyd et al. 2011, sec. 3.4.3; Eckstein & Bertsekas 1992): each
block is shrunk or projected around h = alpha K g + (1 - alpha) a_old
instead of K g, where K is grad2, grad or the identity, a is q, v or z and
alpha is RELAXATION, and its scaled dual ascends by h - a_new. Since
y + h = [y + (alpha - 1)(K g - a_old)] + K g, that is the unrelaxed block
update after a dual step of (alpha - 1)(K g - a_old): ``run`` takes that
step, in the buffer of a_old, and then calls the unchanged steps. The
stopping test keeps the unrelaxed primal residuals K g - a_new. Relaxing
before the penalties were first balanced overshoots, so the first
BALANCE_EVERY iterations are the plain split Bregman ones.

The step functions (``solve_g``, ``update_q``, ``update_v``, ``update_z``,
``balance_penalties``), the relaxation's dual step and each block's dual
ascent by its primal residual are the whole iteration; ``update_duals`` is
that ascent for all three blocks at once, formed from the state, for
callers that step the iteration themselves. ``run`` tables the blocks q,
v, z with their K (grad2, grad, the identity), update call, scaled dual,
auxiliary, K^T (div2, div, the identity), signed penalty (+mu1, -mu2,
+mu3) and term of the objective. It builds that table and the g-solve's
symbol, everything that depends on the penalties, at one site: the top of
an iteration whose penalties they were not built for, which is iteration 1
and the one after each balancing that changed a penalty. The shrinks form
their per-pixel thresholds (lam/mu1)(1 - w) and (gamma/mu2) w inside their
scale's plane, so no threshold outlives its update. Every iteration, the
first too, solves for g by ``solve_g``, and after each g-solve one loop
over the table updates the blocks alike (see ``run``). Each update
overwrites its own variable of the state in place, since the old value is
dead by the time it runs, and returns it. ``run`` does no I/O: each
iteration's blocks write their residuals and terms of the objective into
its record row as they form them, and ``run`` returns the rows as a
``ConvergenceReport``. It forms the dual residual and the objective only
on the iterations that read them.

The frequency-domain denominator is built from 1-D delta responses of the
very same grid stencils used in the spatial domain, so the solve is exact
to rounding, not merely to an analytic symbol's transcription: the symbol
of div grad is the outer sum of the second difference's symbols along x
and y, and that of div2 grad2 its square, since div2 grad2 = (div grad)^2
for these periodic stencils. :func:`g_denominator` forms the two 1-D
symbols from the grid's shape, and the 2-D ones from them for the moment
it needs them.
Fields are real, so the solve uses the ``rfft2``/``irfft2`` pair and the
symbol's half-spectrum.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import grid
from .degrade import LinearOperatorA, apply as apply_A, apply_adjoint

# Residual balancing: every BALANCE_EVERY-th iteration a block's mu is
# multiplied (divided) when its relative primal (dual) residual exceeds
# BALANCE_RATIO times the other, by the power of two nearest the square
# root of their ratio, at most BALANCE_MAX_FACTOR. mu is held within
# BALANCE_SPAN of its starting value either way. The bound keeps a block
# whose dual residual has nothing to be relative to, such as the box under
# an inactive constraint, from dividing its mu down to 0.
BALANCE_EVERY = 5
BALANCE_RATIO = 3.0
BALANCE_MAX_FACTOR = 2.0 ** 6
BALANCE_SPAN = 2.0 ** 10

# Over-relaxation: from the iteration after the first balancing one, each
# block is updated around RELAXATION * K g + (1 - RELAXATION) * a_old
# instead of K g. Relaxing from iteration 1, with the starting penalties,
# overshoots: it costs iterations and, on short runs, restoration quality.
RELAXATION = 1.7


@dataclass(frozen=True)
class SolverParams:
    """Weights, penalties and loop controls for the split Bregman solver.
    mu1, mu2 and mu3 are the penalties ``run`` starts from."""

    lam: float
    gamma: float
    mu1: float = 1.0
    mu2: float = 1.0
    mu3: float = 1.0
    iota: float = 1.0
    epsilon: float = 1e-3
    max_iter: int = 1000
    constrained: bool = True

    def __post_init__(self):
        for name in ("lam", "gamma", "mu1", "mu2", "mu3", "iota", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name in ("lam", "gamma"):
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value!r}")
            elif value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass(eq=False)
class SolverState:
    """All iterates of one solve. In unconstrained mode z and d are None."""

    g: np.ndarray
    q: np.ndarray
    v: np.ndarray
    z: np.ndarray | None
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray | None


@dataclass(eq=False)
class ConvergenceReport:
    """Per-iteration diagnostics: the raw l2 norms of the primal residuals
    grad2 g - q, grad g - v and g - z, the raw l2 norm of the dual residual
    s = mu1 div2(dq) - mu2 div(dv) + mu3 dz (d is the change of q, v, z
    over the iteration; NaN on iterations where s was not evaluated), the
    penalties (mu1, mu2, mu3) the iteration ran with, shape
    (iterations, 3), the objective of g (NaN where it was not evaluated,
    never on the last iteration), and why the loop stopped:
    "tolerance" when the largest of the residual norms, divided by
    sqrt(m*n), reached params.epsilon, else "max_iter". Unconstrained runs
    report NaN for res_z."""

    res_q: np.ndarray
    res_v: np.ndarray
    res_z: np.ndarray
    res_dual: np.ndarray
    mu: np.ndarray
    objective: np.ndarray
    termination: str

    @property
    def iterations(self) -> int:
        return len(self.res_q)


def init_state(f: np.ndarray, params: SolverParams) -> SolverState:
    """Start from g = f with zero auxiliaries and duals; the box iterate
    starts at the projection of f (the first z-update would produce it from
    d = 0 anyway). The vector fields are planar, as grid makes them, and q
    and b are symmetric (xx, xy, yy) fields, since grad2's XY and YX
    components are one operator."""
    f = np.asarray(f, dtype=float)
    constrained = params.constrained
    return SolverState(
        g=f.copy(),
        q=grid.vector_zeros(f.shape, 3),
        v=grid.vector_zeros(f.shape, 2),
        z=np.clip(f, 0.0, params.iota) if constrained else None,
        b=grid.vector_zeros(f.shape, 3),
        c=grid.vector_zeros(f.shape, 2),
        d=np.zeros(f.shape) if constrained else None,
    )


def _second_difference_symbol(size: int, transform) -> np.ndarray:
    """Symbol of the periodic second difference D- D+ on ``size`` points,
    the ``transform`` of the delta response of the grid's own stencils."""
    delta = np.zeros((1, size))
    delta[0, 0] = 1.0
    response = grid.diff_backward(grid.diff_forward(delta, 1), 1)
    return transform(response[0]).real


def _laplacian_symbols(shape) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D symbols (L2x, L2y) of the periodic second difference along x
    (full spectrum, length m) and y (half, length n//2 + 1); each is real
    and <= 0. Their outer sum is the half-spectrum symbol L2 of div grad =
    D-x D+x + D-y D+y, and L1 = L2^2 that of div2 grad2, which equals
    (div grad)^2 for these periodic stencils: its mixed term is the adjoint
    of D-x D+y applied to itself, twice, with symbol 2 |D-x|^2 |D+y|^2 =
    2 L2x L2y. Only :func:`g_denominator` forms L2 and L1."""
    m, n = shape
    return (_second_difference_symbol(m, np.fft.fft),
            _second_difference_symbol(n, np.fft.rfft))


def g_denominator(A: LinearOperatorA, params: SolverParams) -> np.ndarray:
    """Composite symbol D = |Ahat|^2 + mu1*F(div2 grad2) - mu2*F(div grad)
    (+ mu3 in constrained mode) on the half-spectrum that ``np.fft.rfft2``
    returns, shape (m, n//2 + 1). Every term is the symbol of a self-adjoint
    operator, so D is real and symmetric and the half determines the rest.
    Bounded below by mu3 (by 0 off the zero frequency in unconstrained
    mode): div2 grad2 is positive semidefinite and div grad negative
    semidefinite. The 1-D symbols of :func:`_laplacian_symbols` are formed
    here from A's grid; their outer sum L2 is a half-spectrum plane of this
    call only, and L1 = L2^2 is formed in D's own buffer."""
    L2 = np.add.outer(*_laplacian_symbols(A.shape))
    # D accumulates in one buffer, in the order of the sum above, and each
    # term is scaled in its own buffer, so its bits are those of the sum of
    # new arrays.
    D = np.square(L2)
    D *= params.mu1
    D += A.gain_half()
    L2 *= params.mu2
    D -= L2
    if params.constrained:
        D += params.mu3
        assert np.all(D >= params.mu3 - 1e-12)
    else:
        assert np.all(D > 0.0)
    return D


def solve_g(state: SolverState, params: SolverParams, A: LinearOperatorA,
            f: np.ndarray, denom: np.ndarray | None = None,
            adjoint_f: np.ndarray | None = None) -> np.ndarray:
    """Exact frequency-domain solve of the quadratic g-subproblem

        [A*A + mu1*div2 grad2 - mu2*div grad (+ mu3)] g
            = A*f + mu1*div2(q - b) + mu2*div(c - v) (+ mu3*(z - d)).

    ``denom`` is :func:`g_denominator` and ``adjoint_f`` is A* f. Both are
    the same in every iteration; they are computed here only when not given.
    The right side's temporaries peak at four planes: q - b and div2's
    result, whose stencils work in the planes of q - b.
    """
    if denom is None:
        denom = g_denominator(A, params)
    if adjoint_f is None:
        adjoint_f = apply_adjoint(A, f)
    return _spectral_solve(_right_side(state, params, adjoint_f), denom)


def _right_side(state: SolverState, params: SolverParams,
                adjoint_f: np.ndarray) -> np.ndarray:
    """The g-subproblem's right side A*f + mu1*div2(q - b) + mu2*div(c - v)
    (+ mu3*(z - d)). It accumulates in place, term by term in that order:
    each term is scaled in its own buffer, and adding it into the sum
    leaves the sum's bits as a new array would. q - b and c - v are
    temporaries of this call, so div2 and div work in their planes."""
    rhs = grid.div2(state.q - state.b, overwrite_p=True)
    rhs *= params.mu1
    rhs += adjoint_f
    term = grid.div(state.c - state.v, overwrite_p=True)
    term *= params.mu2
    rhs += term
    if params.constrained:
        term = np.subtract(state.z, state.d, out=term)
        term *= params.mu3
        rhs += term
    return rhs


def _spectral_solve(rhs: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """g = F^-1(F(rhs) / denom) on the half-spectrum of the real field."""
    spectrum = np.fft.rfft2(rhs)
    spectrum /= denom
    return np.fft.irfft2(spectrum, s=rhs.shape)


def _shrink(h: np.ndarray, omega: np.ndarray, second_order: bool,
            coefficient: float) -> np.ndarray:
    """Isotropic vector soft-thresholding with the per-pixel threshold
    c w_p, c being lam/mu1 or gamma/mu2 and w_p = 1 - w for q or w for v:
    h <- max(1 - c w_p/|h|, 0) h. Overwrites h and returns it. c = 0
    returns h untouched, since a zero threshold is the identity. The scale
    is formed in the plane of the channel squares of |h|, w_p with it (w
    is read as given). c w_p >= 0, and where |h| = 0 the quotient is inf
    or NaN, whose scale max(-inf or NaN, 0) is 0, so |h| = 0 gives 0, not
    NaN. So does a quotient that overflows to inf, and a subnormal h,
    whose squares underflow to |h| = 0: where w_p = 0 under c > 0 such an
    h is zeroed although its threshold is 0."""
    if coefficient == 0:
        return h
    scale = np.empty(h.shape[:-1])
    mag = grid.pixel_magnitude(h, scale)
    weight = np.subtract(1.0, omega, out=scale) if second_order else omega
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.multiply(weight, coefficient, out=scale)
        scale /= mag
    np.subtract(1.0, scale, out=scale)
    np.fmax(scale, 0.0, out=scale)
    h *= scale[..., None]
    return h


def update_q(state: SolverState, params: SolverParams, omega: np.ndarray,
             grad2_g: np.ndarray | None = None) -> np.ndarray:
    """Shrink b + grad2 g with per-pixel threshold (lam/mu1)(1 - w).

    The result overwrites state.q (the old q is dead once g is solved) and
    is returned. It takes the layout of b, symmetric (xx, xy, yy) or four
    channels, and a q of the other layout is replaced. ``grad2_g`` is grad2
    of state.g in that layout, computed here if not given.
    """
    if grad2_g is None:
        grad2_g = grid.grad2(state.g, state.b.shape[-1])
    q = state.q if state.q.shape == state.b.shape else None
    state.q = _shrink(np.add(state.b, grad2_g, out=q), omega, True,
                      params.lam / params.mu1)
    return state.q


def update_v(state: SolverState, params: SolverParams, omega: np.ndarray,
             grad_g: np.ndarray | None = None) -> np.ndarray:
    """Shrink c + grad g with per-pixel threshold (gamma/mu2) w.

    The result overwrites state.v and is returned. ``grad_g`` is grad of
    state.g, computed here if not given.
    """
    if grad_g is None:
        grad_g = grid.grad(state.g)
    h = np.add(state.c, grad_g, out=state.v)
    return _shrink(h, omega, False, params.gamma / params.mu2)


def update_z(state: SolverState, params: SolverParams) -> np.ndarray:
    """Project d + g onto the box [0, iota]. The result overwrites state.z
    and is returned. Constrained mode only: without the box the projection
    is the identity, so unconstrained states carry no z or d."""
    z = np.add(state.d, state.g, out=state.z)
    return np.clip(z, 0.0, params.iota, out=z)


def update_duals(state: SolverState
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Dual ascent by the primal residuals, formed from the state, in
    place: b += grad2 g - q, c += grad g - v, d += g - z. Returns the
    state's (b, c, d). This is the unit step that ends an iteration of the
    step functions; ``run`` takes it block by block, each right after the
    block's update, and in an over-relaxed iteration the dual has already
    taken (RELAXATION - 1)(K g - a_old) before the update, so that the two
    together ascend by the relaxed residual h - a_new."""
    state.b += grid.grad2(state.g, state.b.shape[-1]) - state.q
    state.c += grid.grad(state.g) - state.v
    if state.d is not None:
        state.d += state.g - state.z
    return state.b, state.c, state.d


def _balance_step(ratio: float) -> float:
    """The factor by which balancing moves a mu whose one relative residual
    is ``ratio`` times the other: 2**k with k = round(log2(ratio) / 2),
    halves rounded up, that is the power of two nearest sqrt(ratio), and at
    most BALANCE_MAX_FACTOR; an infinite ratio takes the largest step. A
    ratio above BALANCE_RATIO = 3 gives k >= 1, so the step is at least 2."""
    if ratio == math.inf:
        return BALANCE_MAX_FACTOR
    return min(2.0 ** math.floor(math.log2(ratio) / 2.0 + 0.5), BALANCE_MAX_FACTOR)


def balance_penalties(state: SolverState, params: SolverParams,
                      start: SolverParams, primal, dual) -> SolverParams:
    """Residual balancing of the penalties, one block at a time.

    ``primal`` and ``dual`` hold the relative primal and dual residuals of
    the blocks q, v, z: |K g - a| / max(|K g|, |a|) and
    |K^T da| / |K^T y|, where K is grad2, grad or the identity, a the
    block's auxiliary, da its change over the iteration and y its scaled
    dual. When a block's primal residual exceeds BALANCE_RATIO times its
    dual residual, its mu is multiplied by ``_balance_step(primal / dual)``
    and its scaled dual (b, c or d, in place) divided by it; when the dual
    residual dominates, the reverse. A mu that would leave [mu0 /
    BALANCE_SPAN, mu0 * BALANCE_SPAN], mu0 being its value in ``start``, is
    set to the edge it crossed instead. Every factor is a power of two, so
    mu times the scaled dual, the multiplier, is unchanged to the bit, and
    mu stays on the lattice mu0 * 2**j. Unconstrained runs balance q and v
    only.

    Returns ``params`` with the new penalties, or ``params`` itself when no
    penalty changed."""
    mus = [params.mu1, params.mu2, params.mu3]
    starts = (start.mu1, start.mu2, start.mu3)
    duals = [state.b, state.c, state.d]
    for i in range(3 if params.constrained else 2):
        if primal[i] > BALANCE_RATIO * dual[i]:
            factor = _balance_step(_relative(primal[i], dual[i]))
        elif dual[i] > BALANCE_RATIO * primal[i]:
            factor = 1.0 / _balance_step(_relative(dual[i], primal[i]))
        else:
            continue
        mu = min(max(mus[i] * factor, starts[i] / BALANCE_SPAN),
                 starts[i] * BALANCE_SPAN)
        if mu != mus[i]:
            duals[i] /= mu / mus[i]
            mus[i] = mu
    if mus == [params.mu1, params.mu2, params.mu3]:
        return params
    return replace(params, mu1=mus[0], mu2=mus[1], mu3=mus[2])


def objective(u: np.ndarray, f: np.ndarray, A: LinearOperatorA,
              params: SolverParams, omega: np.ndarray) -> float:
    """Model objective ||f - A u||^2 + lam*|(1-w) grad2 u|_1 + gamma*|w grad u|_1
    (box indicator omitted; the caller knows which iterates are feasible).
    Each gradient of u is freed once its term is summed."""
    return (_data_term(u, f, A)
            + _tv_term(grid.grad2(u, 3), omega, True, params.lam)
            + _tv_term(grid.grad(u), omega, False, params.gamma))


def _data_term(u: np.ndarray, f: np.ndarray, A: LinearOperatorA) -> float:
    """||f - A u||^2, formed in the buffer of A u."""
    r = apply_A(A, u)
    np.subtract(f, r, out=r)
    return float(np.sum(np.multiply(r, r, out=r)))


def _tv_term(p: np.ndarray, omega: np.ndarray, second_order: bool,
             coefficient: float) -> float:
    """The objective's term coefficient * sum(w_p |p|), coefficient being
    lam or gamma, w_p = 1 - w for the second-order gradient and w for the
    first-order one. The weight takes the plane of the magnitude's channel
    squares, and the product the magnitude's own plane."""
    scratch = np.empty(p.shape[:-1])
    mag = grid.pixel_magnitude(p, scratch)
    weight = np.subtract(1.0, omega, out=scratch) if second_order else omega
    return coefficient * float(np.sum(np.multiply(weight, mag, out=mag)))


def _relative(num: float, den: float) -> float:
    """num / den for norms, with 0/0 read as 0 and num/0 as inf."""
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 else math.inf


class _Block(NamedTuple):
    """One row of ``run``'s block table."""

    K: Callable                 # grid.grad2, grid.grad or the identity
    update: Callable            # the block's update step, given K g
    dual: np.ndarray            # the scaled dual y: b, c or d
    auxiliary: np.ndarray       # a: q, v or z
    adjoint: Callable           # the K^T brackets map a by: div2, div, the identity
    mu: float                   # the signed penalty K^T da enters s with
    energy: Callable | None     # its weighted term of the objective (lam or gamma
                                # times sum(w_p |K g|)), from K g


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _block_table(state: SolverState, params: SolverParams,
                 omega: np.ndarray) -> list[_Block]:
    """``run``'s block table for the penalties of ``params``: the q and v
    updates, which shrink with thresholds (lam/mu1)(1 - w) and
    (gamma/mu2) w, and, in constrained mode, the z update, each with its
    signed penalty."""
    blocks = [_Block(partial(grid.grad2, channels=state.q.shape[-1]),
                     partial(update_q, state, params, omega),
                     state.b, state.q, grid.div2, params.mu1,
                     partial(_tv_term, omega=omega, second_order=True,
                             coefficient=params.lam)),
              _Block(grid.grad, partial(update_v, state, params, omega),
                     state.c, state.v, grid.div, -params.mu2,
                     partial(_tv_term, omega=omega, second_order=False,
                             coefficient=params.gamma))]
    if params.constrained:
        blocks.append(_Block(_identity, lambda _: update_z(state, params),
                             state.d, state.z, _identity, params.mu3, None))
    return blocks


def run(f: np.ndarray, A: LinearOperatorA, params: SolverParams,
        omega: np.ndarray) -> tuple[np.ndarray, ConvergenceReport]:
    """Iterate the split Bregman scheme from g0 = f, balancing the
    penalties, until the primal and the dual residual, as per-pixel RMS
    values, are both at most params.epsilon, or max_iter is reached.

    The test is max(|grad2 g - q|, |grad g - v|, |g - z|, |s|) <= epsilon *
    sqrt(m*n) on the raw l2 norms (|g - z| only in constrained mode), where
    s = mu1 div2(dq) - mu2 div(dv) + mu3 dz is the dual residual: the change
    of q, v, z over the iteration, mapped back onto g. The scaling makes
    the rule independent of the image size: a periodic image tiled k times
    stops at the same iteration. A residual that stays exactly 0, such as
    |g - z| under an inactive box, neither blocks nor trips it.

    Each iteration solves for g and starts its record row (res_q, res_v,
    res_z, res_dual, mu1, mu2, mu3, energy) with NaN residuals, the
    penalties it runs with and, if it evaluates the objective, the data
    term ||f - A g||^2. One loop over the block table then updates the
    blocks in turn, and each block writes its own fields into the row as it
    forms them. A block forms its K g and adds its term of the objective,
    lam or gamma times the weighted l1 norm of K g, to the energy. In an
    over-relaxed iteration its dual then takes the relaxation's step
    (RELAXATION - 1)(K g - a), formed in a, which the update overwrites.
    After the update it forms its primal residual K g - a in the buffer of
    K g (z, whose K g is g itself, takes a plane of its own), writes the
    residual's norm at its column, adds the residual to its dual, and frees
    K g before the next block forms its own. An unconstrained run has no z
    block, so its res_z stays NaN.

    s is evaluated only on balancing iterations and on the iteration after
    the first one whose primal residuals pass, unless that one evaluated s
    itself; only those iterations can stop the run, so a start that already
    passes stops at iteration 2. Such an iteration brackets each update
    with K^T of its variable (div2 q, div v, a copy of z, which its update
    overwrites), a plane rather than a copy of q or v, forms each change
    K^T da in the plane of the bracket's first side, adds it times the
    signed penalty the iteration ran with into s in place, and writes |s|
    after the last block. Iteration 1 is an ordinary iteration: it solves
    for g by ``solve_g`` from init_state's zero q, b, v, c and d.

    Every BALANCE_EVERY-th iteration but the last allowed one is a
    balancing iteration: right after its dual update each block forms its
    relative primal residual |K g - a| / max(|K g|, |a|) and its relative
    dual residual |K^T da| / |K^T y|, and the iteration hands them to
    :func:`balance_penalties`, whose result ``run`` iterates with from
    then on. The block table, with its signed penalties, and the g-solve's
    symbol are built together at the top of every iteration whose params
    they were not built for: iteration 1, and the one after each balancing
    iteration that changed a penalty.
    params.mu1..3 are the starting penalties. The objective is evaluated on
    balancing iterations and on iteration max_iter, its terms summed in
    :func:`objective`'s order, so bit for bit its value; only a run that
    stops by tolerance off the balancing schedule calls :func:`objective`
    for its final iterate. report.objective is NaN on the other
    iterations. Every iteration after iteration BALANCE_EVERY is
    over-relaxed by RELAXATION, as the module docstring describes; the
    residuals it reports and stops on are the unrelaxed ones.

    Returns (restored, report): restored is the box iterate z in constrained
    mode (it is the iterate that honors the constraint; z and g coincide in
    the limit) and g in unconstrained mode, uncopied since nothing else
    holds it. report holds the iterations' rows; ``run`` writes nothing.

    Each iteration computes grad2 g and grad g once, and never holds the
    two together. The working set, in (m, n) float planes, is the 13 of the
    state (g, z, d one each, v and c two, q and b three, as symmetric
    (xx, xy, yy) fields) and the run's constants (the g-solve's symbol, a
    half-spectrum of about half a plane; A* f with blur, one, while for the
    identity it is f itself),
    plus the transients of the step in hand: at most six, in the q block
    (grad2 g's three, a bracket plane, the shrink's magnitude and scale, in
    which its threshold is formed), and four in the g-solve (q - b's three
    and div2's result, its stencils working in the planes of q - b). By
    tracemalloc a run peaks at 19.5 planes at 512^2 for the identity and
    20.5 under blur, in a bracketed iteration's q block. The state, the
    block table and the g-solve's symbol are freed before that call to
    :func:`objective`. A* f is computed once per run. An image without pixels, and NaN or
    infinite pixels in f or omega or pixels above ``grid.MAX_PIXEL`` in
    magnitude, raise ValueError up front, naming the input.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ValueError("observed image must be 2-D")
    omega = np.asarray(omega, dtype=float)
    if omega.shape != f.shape:
        raise ValueError(f"weight shape {omega.shape} does not match image {f.shape}")
    if A.shape != f.shape:
        raise ValueError(f"operator grid {A.shape} does not match image {f.shape}")
    grid.check_pixels("observed image f", f)
    grid.check_pixels("edge weight omega", omega)
    if not A.invertible:
        warnings.warn("degradation operator has (near-)zero transfer coefficients; "
                      "the minimizer may not be unique", RuntimeWarning)

    state = init_state(f, params)
    start = params
    # Nothing writes to A* f, so for the identity it is f itself.
    adjoint_f = f if A.transfer is None else apply_adjoint(A, f)
    tolerance = params.epsilon * np.sqrt(f.size)

    rows = []   # (res_q, res_v, res_z, res_dual, mu1, mu2, mu3, energy)
    termination = "max_iter"
    primal_passed = False
    check_at = None     # the iteration off the balancing schedule that evaluates s
    built_for = None    # the params that denom and blocks were built for

    for k in range(1, params.max_iter + 1):
        balancing = k % BALANCE_EVERY == 0 and k < params.max_iter
        evaluate = balancing or k == params.max_iter
        bracketed = balancing or k == check_at
        if params is not built_for:
            denom = g_denominator(A, params)
            blocks = _block_table(state, params, omega)
            built_for = params
        g = state.g = solve_g(state, params, A, f, denom, adjoint_f)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite iterate at iteration {k}; "
                                     "check parameters")
        row = [np.nan] * 4 + [params.mu1, params.mu2, params.mu3,
                              _data_term(g, f, A) if evaluate else np.nan]
        pairs, s = [], None     # blocks' relative (primal, dual) residuals; s
        for column, (K, update, dual, auxiliary, adjoint, mu,
                     energy) in enumerate(blocks):
            if bracketed:
                before = adjoint(auxiliary)
                if before is auxiliary:     # z, which its update overwrites
                    before = before.copy()
            kg = K(g)
            if evaluate and energy is not None:
                row[7] += energy(kg)
            if k > BALANCE_EVERY:
                np.subtract(kg, auxiliary, out=auxiliary)
                auxiliary *= RELAXATION - 1.0
                dual += auxiliary
            update(kg)
            if balancing:
                size = max(grid.norm_l2(kg), grid.norm_l2(auxiliary))
            residual = np.subtract(kg, auxiliary, out=None if kg is g else kg)
            row[column] = grid.norm_l2(residual)
            dual += residual
            del kg, residual
            if bracketed:
                change = np.subtract(adjoint(auxiliary), before, out=before)
                step = grid.norm_l2(change)
                if balancing:
                    pairs.append((_relative(row[column], size),
                                  _relative(step, grid.norm_l2(adjoint(dual)))))
                change *= mu
                s = change if s is None else np.add(s, change, out=s)
                del before, change
        if bracketed:
            row[3] = grid.norm_l2(s)
            del s

        primal_pass = max(row[:len(blocks)]) <= tolerance
        if primal_pass and not primal_passed and not bracketed:
            check_at = k + 1
        primal_passed = primal_passed or primal_pass

        rows.append(row)

        stop = primal_pass and row[3] <= tolerance
        if balancing and not stop:
            params = balance_penalties(state, params, start, *zip(*pairs))
        if stop:
            termination = "tolerance"
            break

    restored = state.z if params.constrained else g
    del state, blocks, denom
    record = np.array(rows)
    if np.isnan(record[-1, 7]):
        record[-1, 7] = objective(g, f, A, params, omega)
    report = ConvergenceReport(
        res_q=record[:, 0], res_v=record[:, 1], res_z=record[:, 2],
        res_dual=record[:, 3], mu=record[:, 4:7], objective=record[:, 7],
        termination=termination,
    )
    return restored, report
