"""Time stepping for the coupled density / fraction / nutrient system.

One step advances, in order:

  1. total density n: backward Euler on the degenerate diffusion equation
     dn/dt = lap(K(n)) + eps*lap(n) + (G(d) - D*c) n, solved by Newton
     (K is the flux potential, gamma/(gamma+1) * n^(gamma+1)); each Newton
     system is a tridiagonal direct solve in 1D and, in 2D, CG on the
     red-black reduced system of the symmetrized 5-point stencil scaled to
     a unit diagonal: the Schur complement on the black cells of a
     checkerboard, with the red cells back-substituted, to a tolerance
     sized to the Newton residual;
  2. autophagic fraction c = n2/n: explicit upwind advection by the Darcy
     velocity u = -grad(n^gamma) plus explicit reaction
     K1(d)(1-c) - K2(d)c - D c(1-c), whose right side points into [0, 1];
  3. nutrient d: semi-implicit solve of b dd/dt - lap(d) = -psi(d_old) n + a c n
     with Dirichlet boundary data, clamped to [0, L]; the operator has
     constant coefficients, so a sine transform along y reduces it to
     tridiagonal x-systems, solved directly in 1D and 2D alike.

Evolving (n, c) instead of the two species densities keeps n1 + n2 = n exact
and gives the fraction a maximum principle on [0, 1] for free.  The fraction
equation is the algebraic consequence of the two species equations:
subtracting c times the n-equation from the n2-equation yields
dc/dt - grad(p).grad(c) = K1(1-c) - K2 c - D c(1-c).

There is one scheme, the viscous cutoff scheme: eps-viscosity on each
species equation (in (n, c) variables, eps*lap(c) plus a drift
2 eps grad(ln n) in the fraction equation) and every nonlinear coefficient
routed through the band cutoff [0, ell].  The unregularized scheme is its
eps = 0 case, whose cutoff level is ell = inf: the viscous terms vanish and,
for n >= 0 with c in [0, 1], no clamp acts.

``suggest_dt`` is the one dt controller.  Its dt meets the CFL and reaction
bounds, scaled by the safety factor, and the whole fraction monotonicity
budget of the current state, viscous term included.  ``step`` halves dt
after a rejected attempt, a guard for a hint from elsewhere or a new density
whose advective inflow outgrows the current one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import SolverFailure
from .grid import Grid, divergence, face_gradient, laplacian_neumann, upwind_face_values
from .model import DerivedConstants, ModelParams, cutoff

#: Jacobian degeneracy floor: diffusion derivative is evaluated at max(n, this)
VACUUM_FLOOR = 1e-14

#: monotonicity budget slack for the explicit fraction update
CFL_SLACK = 1e-9

#: iteration cap of the 2D density CG
LINEAR_MAX = 10_000


def positive_power(x: np.ndarray, e: float) -> np.ndarray:
    """``np.maximum(x, 0.0) ** e`` for e >= 1, bit for bit, with pow only where it can be nonzero.

    Below ``floor`` the exact power is under 2^-1100, 25 binades below the
    smallest subnormal, so pow returns +0 there.  numpy's vectorized pow
    leaves its fast path for every lane that underflows, and at stiff gamma
    most cells outside the tumour do.  The floor is never below the
    smallest subnormal, so -0.0 gives +0 as np.maximum does.  NaN is not
    below the floor: it stays on the pow path and comes out NaN.
    """
    floor = 2.0 ** -min(1100.0 / e, 1074.0)
    if x.min() >= floor:
        return x ** e
    out = np.zeros(x.shape)
    live = ~(x < floor)
    out[live] = x[live] ** e
    return out


@dataclass(frozen=True)
class State:
    """Cell arrays n, c, d on ``grid`` at one instant; n1, n2, p and v derive from them.

    v = n^(gamma+1) is computed on first use and kept, read-only, for the
    life of the state, so the ledger, the accumulators and a snapshot of one
    state share it.
    """

    t: float
    grid: Grid
    n: np.ndarray
    c: np.ndarray
    d: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("n", "c", "d"):
            values = np.asarray(getattr(self, name), dtype=float)
            if values.shape != self.grid.shape:
                raise ValueError(f"{name} has shape {values.shape}, grid has {self.grid.shape}")
            object.__setattr__(self, name, values)

    @property
    def n1(self) -> np.ndarray:
        return (1.0 - self.c) * self.n

    @property
    def n2(self) -> np.ndarray:
        return self.c * self.n

    @property
    def p(self) -> np.ndarray:
        return positive_power(self.n, self.gamma)

    @cached_property
    def v(self) -> np.ndarray:
        v = positive_power(self.n, self.gamma + 1.0)
        v.flags.writeable = False
        return v


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-10
    linear_tol: float = 1e-10
    newton_max: int = 50
    retry_max: int = 8
    safety: float = 0.5
    dt_max: float = math.inf


@dataclass
class StepReport:
    """Per-step solver telemetry."""

    dt_used: float = 0.0
    newton_iters: int = 0
    newton_residual: float = math.inf
    linear_iters: int = 0
    clamped_cells: int = 0
    cutoff_activations: int = 0
    newton_fallbacks: int = 0
    rejections: list[str] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """Rejected attempts before the accepted one, one dt halving each."""
        return len(self.rejections)


def _cutoff_level(params: ModelParams) -> float:
    """Band cutoff level of the scheme: ell_cut with viscosity, inf without."""
    return params.ell_cut if params.eps_reg > 0.0 else math.inf


@dataclass(frozen=True)
class _Coefficients:
    """Density-equation coefficients frozen at the state a step starts from."""

    ell: float            # cutoff level
    g: np.ndarray         # G(cutoff(d))
    c: np.ndarray
    rate: np.ndarray      # G - D c: the reaction rate wherever no clamp acts
    in_band: bool         # c in [0, 1] and n_old >= 0
    spread: float         # max of c and 1 - c over the cells

    def unclamped(self, n_max: float) -> bool:
        """No cutoff acts on n1 = (1-c) n or n2 = c n for any n in [0, n_max].

        Newton iterates are floored at zero, so n >= 0 holds in every
        residual of a solve once it holds for the old density.
        """
        return self.in_band and n_max * self.spread <= self.ell


def _coefficients(state: State, params: ModelParams) -> _Coefficients:
    ell = _cutoff_level(params)
    c = state.c
    g = np.asarray(params.rates.G(cutoff(state.d, ell)), dtype=float)
    c_min, c_max = float(c.min()), float(c.max())
    return _Coefficients(
        ell=ell,
        g=g,
        c=c,
        rate=g - params.D * c,
        in_band=c_min >= 0.0 and c_max <= 1.0 and float(state.n.min()) >= 0.0,
        spread=max(c_max, 1.0 - c_min),
    )


def _flux_potential(n: np.ndarray, gamma: float, ell: float, n_max: float) -> np.ndarray:
    """Cutoff flux potential: gamma * integral of cutoff(s, ell)^gamma ds.

    Equals gamma/(gamma+1) * (n+)^(gamma+1) on [0, ell] and continues
    linearly above, which is exactly the effect of clamping the mobility
    coefficients.  ``n_max`` is max(n).
    """
    if n_max <= ell:
        return gamma / (gamma + 1.0) * positive_power(n, gamma + 1.0)
    above = np.where(n > ell, gamma * ell**gamma * (n - ell), 0.0)
    return gamma / (gamma + 1.0) * positive_power(cutoff(n, ell), gamma + 1.0) + above


def _density_rhs(n: np.ndarray, grid: Grid, params: ModelParams, co: _Coefficients) -> np.ndarray:
    """Right-hand side of dn/dt = ... with c, d frozen at the current state."""
    n_max = float(n.max())
    pot = _flux_potential(n, params.gamma, co.ell, n_max)
    if co.unclamped(n_max):
        reaction = co.rate * n
    else:
        n1, n2 = cutoff((1.0 - co.c) * n, co.ell), cutoff(co.c * n, co.ell)
        reaction = co.g * n1 + (co.g - params.D) * n2
    out = laplacian_neumann(grid, pot)
    out += reaction
    if params.eps_reg > 0.0:
        out += params.eps_reg * laplacian_neumann(grid, n)
    return out


def _density_jacobian(
    n: np.ndarray, params: ModelParams, co: _Coefficients
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal factors (a, r) of the Newton Jacobian of ``_density_rhs``.

    a is d/dn of the flux potential, floored away from the vacuum, plus eps;
    r is d/dn of the reaction, with each species term switched off where the
    right derivative of its cutoff is zero (outside [0, ell)), so that a
    vacuum cell gets the same r on both paths when no clamp acts.
    """
    floored = np.maximum(n, VACUUM_FLOOR)
    if co.ell < math.inf:  # cutoff(., inf) is the identity on [VACUUM_FLOOR, inf)
        floored = cutoff(floored, co.ell)
    a = params.gamma * positive_power(floored, params.gamma) + params.eps_reg
    if co.unclamped(float(n.max())):
        return a, co.rate
    c = co.c
    n1 = (1.0 - c) * n
    n2 = c * n
    active1 = ((n1 >= 0.0) & (n1 < co.ell)).astype(float)
    active2 = ((n2 >= 0.0) & (n2 < co.ell)).astype(float)
    return a, co.g * (1.0 - c) * active1 + (co.g - params.D) * c * active2


def _count_cutoff_activations(n: np.ndarray, c: np.ndarray, ell: float) -> int:
    """Cells where any band cutoff actually clamps (n, n1 or n2 outside (0, ell))."""
    n1 = (1.0 - c) * n
    n2 = c * n
    hit = (n > ell) | (n < 0.0)
    for s in (n1, n2):
        hit = hit | (s > ell) | (s < 0.0)
    return int(np.count_nonzero(hit))


class _DensityOperator:
    """The red-black reduced 2D Newton matrix and the work arrays of its CG solves.

    With S = diag(sqrt(a)), S J S^-1 = diag(1 - dt r) - dt S lap S is a
    5-point stencil: its diagonal D is 1 - dt r_i plus dt a_i / h^2 per
    interior face of cell i, and neighbours i, j across a face couple with
    -dt sqrt(a_i a_j) / h^2.  Scaled by its diagonal, A = D^-1/2 S J S^-1 D^-1/2
    has a unit diagonal and couplings -(dt / h^2) t_i t_j with t = sqrt(a / D).
    Every face joins a red cell (i + j even) to a black one, so with the red
    cells first A = [[I, -C], [-C^T, I]], and A x = b reduces to the SPD
    Schur complement system (I - C^T C) x_b = b_b + C^T b_r on the black
    cells, with x_r = b_r + C x_b (the reduced system of Hageman and Young,
    Applied Iterative Methods, 1981).  ``matvec`` applies I - C^T C.

    Cell vectors live on a flat layout of odd row stride 2q + 1: each grid
    row is followed by one ghost entry, or two when ny is odd, and the
    length is padded to even.  A cell's colour is then the parity of its
    flat index; the red cells are the even entries and the black cells the
    odd ones, each colour a contiguous half-length vector on which every
    neighbour is a constant shift: black m couples to red m, m + 1 (along y)
    and m - q, m + q + 1 (along x); red m to black m - 1, m and m - q - 1,
    m + q.  The product t y of one colour sits between q + 1 zeros on either
    side, so a shift reaches only zeros past the x walls; t is zero on every
    ghost entry, which keeps the ghost entries of every CG vector zero.  One
    density solve builds one operator; each Newton system refills its scales
    in place, and every array is allocated here, once.
    """

    def __init__(self, grid: Grid):
        nx, ny = grid.cells
        self.shape = grid.shape
        self.stride = ny + 1 + ny % 2
        self.q = self.stride // 2
        half = (nx * self.stride + 1) // 2
        hx2, hy2 = grid.h[0] ** 2, grid.h[1] ** 2
        degx = np.full(grid.shape, 2.0)
        degx[0, :] = degx[-1, :] = 1.0
        degy = np.full(grid.shape, 2.0)
        degy[:, 0] = degy[:, -1] = 1.0
        self.faces_over_h2 = degx / hx2 + degy / hy2  # D = 1 - dt r + dt a faces_over_h2
        self.hx2 = hx2
        self.y_ratio = hx2 / hy2                     # y couplings relative to x couplings
        # on the whole layout: t, D and the scaled right side, which becomes the solution
        self.t, self.diagonal, self.x = np.zeros((3, 2 * half))
        self.diagonal.fill(1.0)  # a ghost weight meets a zero residual; 1 keeps min(weights) off 0
        # per colour: t and the couplings dt t / h_x^2, D on the black cells,
        # the reduced right side and the product C y
        (self.t_red, self.t_black, self.coupling_red, self.coupling_black,
         self.weights, self.reduced_rhs, self.red) = np.zeros((7, half))
        self.product = np.zeros(half + 2 * (self.q + 1))
        self.work = np.zeros((5, half))

    def cells(self, flat: np.ndarray) -> np.ndarray:
        """The grid-shaped view of the cell entries of a vector on the whole layout."""
        nx, ny = self.shape
        return flat[:nx * self.stride].reshape(nx, self.stride)[:, :ny]

    def assemble(self, a: np.ndarray, diag_reaction: np.ndarray, dt: float) -> None:
        """Fill the scales for S J S^-1 with a > 0 and diag_reaction = 1 - dt r > 0."""
        d = self.cells(self.diagonal)
        np.multiply(a, dt, out=d)
        d *= self.faces_over_h2
        d += diag_reaction
        t = self.cells(self.t)
        np.divide(a, d, out=t)
        np.sqrt(t, out=t)
        np.copyto(self.t_red, self.t[0::2])
        np.copyto(self.t_black, self.t[1::2])
        np.copyto(self.weights, self.diagonal[1::2])
        np.multiply(self.t_red, dt / self.hx2, out=self.coupling_red)
        np.multiply(self.t_black, dt / self.hx2, out=self.coupling_black)

    def _couple(self, y, t, coupling, shift, out) -> None:
        """out = coupling (neighbour sum of t y) on the other colour.

        ``shift`` is the lower of the two y shifts: -1 onto red, 0 onto black.
        """
        n, q, u = y.shape[0], self.q, self.product
        o = q + 1 + shift
        np.multiply(t, y, out=u[q + 1:q + 1 + n])
        np.add(u[o:o + n], u[o + 1:o + 1 + n], out=out)
        if self.y_ratio != 1.0:
            out *= self.y_ratio
        out += u[o - q:o - q + n]
        out += u[o + q + 1:o + q + 1 + n]
        out *= coupling

    def apply_c(self, y_black: np.ndarray, out_red: np.ndarray) -> None:
        """out_red = C y_black."""
        self._couple(y_black, self.t_black, self.coupling_red, -1, out_red)

    def apply_ct(self, y_red: np.ndarray, out_black: np.ndarray) -> None:
        """out_black = C^T y_red."""
        self._couple(y_red, self.t_red, self.coupling_black, 0, out_black)

    def matvec(self, y: np.ndarray, out: np.ndarray) -> None:
        """out = (I - C^T C) y on the black cells, ghost entries included."""
        self.apply_c(y, self.red)
        self.apply_ct(self.red, out)
        np.subtract(y, out, out=out)


def _solve_newton_system(
    grid: Grid,
    a: np.ndarray,
    r: np.ndarray,
    dt: float,
    rhs: np.ndarray,
    tol: float,
    max_iters: int,
    op: _DensityOperator | None,
) -> tuple[np.ndarray, int]:
    """Solve (I - dt*(lap o diag(a) + diag(r))) delta = rhs.

    1D goes through the banded direct solver and ignores ``tol``,
    ``max_iters`` and ``op``, which is None there.  2D is symmetrized with
    S = diag(sqrt(a)) -- S J S^-1 = diag(1 - dt r) - dt S lap S is SPD --
    scaled by the diagonal D of that matrix and reduced to its black cells
    (see ``_DensityOperator``); CG on the reduced system runs, in at most
    ``max_iters`` iterations, until sqrt(sum D_black r^2) is at most
    tol * |S rhs|.  The back-substitution leaves the red residual zero up
    to rounding, so that is the 2-norm test on the symmetrized system.
    """
    if grid.dim == 1:
        # diag = 1 + dt deg a / h^2 - dt r, deg the number of interior faces
        h2 = grid.h[0] ** 2
        diag = np.full(grid.cells[0], 2.0 * dt)
        diag[0] = diag[-1] = dt
        diag *= a
        diag /= h2
        diag += 1.0
        diag -= dt * r
        # cell i couples to i - 1 and i + 1 with -dt a / h^2 of the
        # neighbour: lower[i] = w[i - 1] and upper[i] = w[i + 1], zero padded
        w = np.zeros(grid.cells[0] + 2)
        np.multiply(a, -dt, out=w[1:-1])
        w[1:-1] /= h2
        m = linalg.TriDiag(lower=w[:-2], diag=diag, upper=w[2:])
        return linalg.thomas_solve(m, rhs), 1

    diag_reaction = 1.0 - dt * r
    if np.min(diag_reaction) <= 0.0:
        raise SolverFailure("density Jacobian lost positivity; dt too large for the reactions")
    a_safe = np.maximum(a, 1e-30)
    op.assemble(a_safe, diag_reaction, dt)
    # b = D^-1/2 S rhs = t rhs, and the reduced right side is b_black + C^T b_red
    b = op.x
    np.multiply(op.cells(op.t), rhs, out=op.cells(b))
    op.apply_ct(b[0::2], op.reduced_rhs)
    op.reduced_rhs += b[1::2]
    bound = tol * math.sqrt(float(np.vdot(a_safe * rhs, rhs)))  # tol |S rhs|
    result = linalg.pcg_solve(op.matvec, op.weights, op.reduced_rhs, bound, max_iters, op.work)
    # x_red = b_red + C x_black, in place of b
    b[1::2] = result.x
    op.apply_c(result.x, op.red)
    b[0::2] += op.red
    # the solution of S J S^-1 is D^-1/2 x, and delta = S^-1 D^-1/2 x = t x / a
    delta = op.cells(b) * op.cells(op.t)
    delta /= a_safe
    return delta, result.iterations


def density_solve(
    state: State,
    dt: float,
    params: ModelParams,
    settings: SolverSettings,
) -> tuple[np.ndarray, StepReport]:
    """Backward-Euler solve for the total density with frozen c and d.

    Damped Newton on the cell vector, converged when max|f| <= newton_tol
    for the residual f(n) = n - n_old - dt*rhs(n).  Newton system k is
    solved to the relative tolerance max(linear_tol, min(0.1, max|f_k|)),
    an inexact-Newton forcing term that keeps the quadratic convergence
    (Dembo, Eisenstat and Steihaug 1982) without solving early systems
    beyond what their residual can use; the 1D direct solve is exact.  The
    line search halves the step until the residual shrinks; the iterate it
    accepts brings its right side and residual into the next iteration, so
    each iterate's right side is evaluated once.  When 8 halvings fail, the
    full step is taken as a fallback; a second fallback in one solve raises
    SolverFailure.  After convergence the update is re-applied in explicit
    conservative form, n_new = n_old + dt*rhs(n*), so that no-flux runs
    conserve mass to rounding rather than to the Newton tolerance.  The
    result is floored at zero with clamps counted.
    """
    grid = state.grid
    n_old = state.n
    co = _coefficients(state, params)
    op = _DensityOperator(grid) if grid.dim == 2 else None
    report = StepReport(dt_used=dt)
    n_k = n_old.copy()
    rhs_k = _density_rhs(n_k, grid, params, co)
    f = n_k - n_old
    f -= dt * rhs_k
    for it in range(settings.newton_max + 1):
        res_norm = float(np.abs(f).max())
        report.newton_iters = it + 1  # residual evaluations, 1 on a fixed point
        report.newton_residual = res_norm
        if not math.isfinite(res_norm):
            raise SolverFailure("density Newton residual is non-finite")
        if res_norm <= settings.newton_tol:
            break
        if it == settings.newton_max:
            raise SolverFailure(
                f"density Newton did not converge in {settings.newton_max} iterations "
                f"(residual {res_norm:.3e})"
            )
        a, r = _density_jacobian(n_k, params, co)
        tol = max(settings.linear_tol, min(0.1, res_norm))
        delta, lin = _solve_newton_system(grid, a, r, dt, -f, tol, LINEAR_MAX, op)
        report.linear_iters += lin
        # damped update: halve until the residual shrinks; the full step,
        # which is the first trial, is the fallback
        step_len = 1.0
        full = None
        for _ in range(8):
            trial = n_k + step_len * delta
            np.maximum(trial, 0.0, out=trial)
            rhs_trial = _density_rhs(trial, grid, params, co)
            f_trial = trial - n_old
            f_trial -= dt * rhs_trial
            if full is None:
                full = (trial, rhs_trial, f_trial)
            trial_norm = float(np.abs(f_trial).max())
            if math.isfinite(trial_norm) and trial_norm < res_norm:
                break
            step_len *= 0.5
        else:
            report.newton_fallbacks += 1
            if report.newton_fallbacks > 1:
                raise SolverFailure(
                    "density Newton fell back to an undamped step twice "
                    f"(residual {res_norm:.3e})"
                )
            trial, rhs_trial, f_trial = full
        n_k, rhs_k, f = trial, rhs_trial, f_trial

    n_new = n_old + dt * rhs_k
    report.clamped_cells = int(np.count_nonzero(n_new < 0.0))
    n_new = np.maximum(n_new, 0.0)
    report.cutoff_activations = _count_cutoff_activations(n_k, state.c, co.ell)
    return n_new, report


def _face_velocities(
    grid: Grid, n_new: np.ndarray, gamma: float, eps: float
) -> tuple[np.ndarray, ...]:
    """Darcy velocity u = -grad(n^gamma) per interior face.

    With eps > 0 the species viscosity contributes an extra drift
    -2 eps grad(ln n) (from rewriting eps*lap(n_i) in fraction variables).
    """
    grads = face_gradient(grid, positive_power(n_new, gamma))
    return _with_viscous_drift(grid, tuple(-g for g in grads), n_new, eps)


def _with_viscous_drift(
    grid: Grid, u: tuple[np.ndarray, ...], n: np.ndarray, eps: float
) -> tuple[np.ndarray, ...]:
    """The face velocities u plus the drift -2 eps grad(ln n); u itself at eps = 0."""
    if eps > 0.0:
        dlog = face_gradient(grid, np.log(np.maximum(n, VACUUM_FLOOR)))
        u = tuple(ui - 2.0 * eps * gi for ui, gi in zip(u, dlog))
    return u


def _fraction_rates(state: State, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K1, K2 and K1 + K2 + D on the cutoff-clamped current nutrient.

    They depend only on the state a step starts from; ``suggest_dt`` and
    ``fraction_update`` each evaluate them.
    """
    d_arg = cutoff(state.d, _cutoff_level(params))
    k1 = np.asarray(params.rates.K1(d_arg), dtype=float)
    k2 = np.asarray(params.rates.K2(d_arg), dtype=float)
    return k1, k2, k1 + k2 + params.D


def _fraction_budget(
    grid: Grid,
    dt: float,
    params: ModelParams,
    rate_sum: np.ndarray,
    u: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Per-cell monotonicity budget of the explicit fraction update.

    Sums, in this order, the advective inflow Courant numbers of the face
    velocities u, the viscous 2 dt eps / h^2 per axis and dt (K1 + K2 + D).
    ``suggest_dt`` evaluates it at dt = 1 on the current density;
    ``fraction_update`` enforces it at the step's dt on the new one.
    """
    budget = np.zeros(grid.shape)
    for ui, (lo, hi), h in zip(u, grid.sides, grid.h):
        inflow_lo = np.maximum(ui, 0.0)   # face feeds the hi cell
        inflow_hi = np.maximum(-ui, 0.0)  # face feeds the lo cell
        budget[hi] += dt / h * inflow_lo
        budget[lo] += dt / h * inflow_hi
    if params.eps_reg > 0.0:
        for h in grid.h:
            budget += 2.0 * dt * params.eps_reg / h**2
    budget += dt * rate_sum
    return budget


def _enforce_budget(budget: np.ndarray) -> None:
    worst = float(np.max(budget))
    if worst > 1.0 + CFL_SLACK:
        raise SolverFailure(f"fraction update monotonicity budget {worst:.3f} exceeds 1")


def fraction_update(
    state: State,
    n_new: np.ndarray,
    dt: float,
    params: ModelParams,
) -> np.ndarray:
    """Explicit upwind advection of the fraction plus explicit reaction.

    The per-cell monotonicity budget (advection + diffusion Courant numbers
    plus dt times the reaction rates, see ``_fraction_budget``) must stay at
    or below one; that is the condition under which the update is a convex
    combination and the reaction keeps c inside [0, 1].  A violated budget
    raises SolverFailure so the caller can halve dt.
    """
    grid = state.grid
    c = state.c
    u = _face_velocities(grid, n_new, params.gamma, params.eps_reg)

    # advective form via flux differencing: div(u c_up) - c div(u)
    up_c = tuple(upwind_face_values(c[lo], c[hi], ui) for ui, (lo, hi) in zip(u, grid.sides))
    adv = divergence(grid, tuple(ui * ci for ui, ci in zip(u, up_c))) - c * divergence(grid, u)

    diff = 0.0
    if params.eps_reg > 0.0:
        diff = params.eps_reg * laplacian_neumann(grid, c)

    k1, k2, rate_sum = _fraction_rates(state, params)
    reaction = k1 * (1.0 - c) - k2 * c - params.D * c * (1.0 - c)
    _enforce_budget(_fraction_budget(grid, dt, params, rate_sum, u))

    return c + dt * (-adv + diff + reaction)


def nutrient_solve(
    state: State,
    n_new: np.ndarray,
    c_new: np.ndarray,
    dt: float,
    params: ModelParams,
    consts: DerivedConstants,
) -> tuple[np.ndarray, int, int]:
    """Semi-implicit nutrient solve: implicit diffusion, explicit consumption.

    Solves (b/dt)(d_new - d_old) - lap_dirichlet(d_new) = -psi(d_old) n + a c n
    directly and clamps the result to [0, L], counting clamp events.  The
    operator has constant coefficients.  In 2D the orthonormal sine
    transform along y diagonalizes the Dirichlet Laplacian there, with
    eigenvalues 4/h_y^2 sin^2(pi k / 2 N_y), k = 1..N_y; that leaves one
    tridiagonal x-system per mode, with shift b/dt + lambda_k, and all of
    them go through one banded solve before the transform back.  1D is the
    same solve with a single mode of shift b/dt.  Returns (d_new,
    clamped_cells, linear_iterations), one iteration for the direct solve.
    """
    grid = state.grid
    d_old = state.d
    b_dt = params.b / dt
    psi_old = np.asarray(params.rates.psi(d_old), dtype=float)
    source = -psi_old * n_new + params.a * c_new * n_new
    rhs = b_dt * d_old + source
    # the Dirichlet ghost value 2 d_b - d puts 2 d_b / h^2 on each wall cell's right side
    for axis, h in enumerate(grid.h):
        walls = np.swapaxes(rhs, 0, axis)
        walls[0] += 2.0 * params.d_b / h**2
        walls[-1] += 2.0 * params.d_b / h**2

    if grid.dim == 1:
        shifts = np.array([b_dt])
        lines = rhs[None, :]
    else:
        shifts = b_dt + linalg.dirichlet_eigenvalues(grid.cells[1], grid.h[1])
        lines = linalg.sine_transform(rhs).T  # one x-line per y-mode
    nx, hx2 = grid.cells[0], grid.h[0] ** 2
    deg = np.full(nx, 2.0)
    deg[0] = deg[-1] = 3.0
    diag = shifts[:, None] + deg / hx2
    lower = np.full(lines.shape, -1.0 / hx2)
    upper = lower.copy()
    lower[:, 0] = upper[:, -1] = 0.0  # no coupling between the lines
    m = linalg.TriDiag(lower=lower.ravel(), diag=diag.ravel(), upper=upper.ravel())
    solved = linalg.thomas_solve(m, lines.ravel()).reshape(lines.shape)
    d_new = solved[0] if grid.dim == 1 else linalg.inverse_sine_transform(solved.T)

    clamped = int(np.count_nonzero((d_new < 0.0) | (d_new > consts.L)))
    d_new = np.clip(d_new, 0.0, consts.L)
    return d_new, clamped, 1


def suggest_dt(
    state: State,
    params: ModelParams,
    consts: DerivedConstants,
    safety: float,
) -> float:
    """The step's dt controller: a dt that the fraction monotonicity budget accepts.

    dt = min(safety * min(h / max|u|, 1 / (K1_max + K2_max + D)), 1 / max beta),
    clipped to the remaining horizon.  The CFL velocity u leaves out the
    viscous drift.  beta is ``_fraction_budget`` at dt = 1 on the current
    state, with the per-cell ``_fraction_rates`` and the face velocities
    including the drift; the budget is linear in dt, so 1 / max beta is the
    largest dt it accepts at the current density.  This bound carries the
    viscous 2 dt eps / h^2 term, which the CFL and reaction bounds leave out.
    """
    u = _face_velocities(state.grid, state.n, params.gamma, 0.0)
    speed = 0.0
    for ui in u:
        if ui.size:
            speed = max(speed, float(np.max(np.abs(ui))))
    if not math.isfinite(speed):
        raise SolverFailure("non-finite transport velocity")
    h_min = min(state.grid.h)
    dt_adv = h_min / speed if speed > 0.0 else math.inf
    rate_sum = consts.K1_max + consts.K2_max + params.D
    dt_react = 1.0 / rate_sum if rate_sum > 0.0 else math.inf
    dt = safety * min(dt_adv, dt_react)
    u = _with_viscous_drift(state.grid, u, state.n, params.eps_reg)
    budget = _fraction_budget(state.grid, 1.0, params, _fraction_rates(state, params)[2], u)
    beta = float(np.max(budget))
    if beta > 0.0:
        dt = min(dt, 1.0 / beta)
    remaining = params.T_final - state.t
    if remaining > 0.0:
        dt = min(dt, remaining)
    return dt


def _pipeline(
    state: State,
    params: ModelParams,
    consts: DerivedConstants,
    settings: SolverSettings,
    dt: float,
) -> tuple[State, StepReport]:
    n_new, report = density_solve(state, dt, params, settings)
    c_new = fraction_update(state, n_new, dt, params)
    d_new, clamped, lin = nutrient_solve(state, n_new, c_new, dt, params, consts)
    report.clamped_cells += clamped
    report.linear_iters += lin
    new_state = State(
        t=state.t + dt, grid=state.grid, n=n_new, c=c_new, d=d_new, gamma=params.gamma
    )
    return new_state, report


def step(
    state: State,
    params: ModelParams,
    consts: DerivedConstants,
    settings: SolverSettings,
    dt_hint: float,
) -> tuple[State, StepReport]:
    """Advance one step of the scheme: try dt_hint, halving dt after each rejected attempt.

    eps_reg = 0 runs the plain scheme; eps_reg > 0 needs a resolved cutoff
    level ell_cut > 0.  An attempt runs the density solve, the fraction
    update and the nutrient solve at its dt; a SolverFailure from any of
    them rejects it, records its message in ``StepReport.rejections`` and
    halves dt, up to retry_max times.  At the dt ``suggest_dt`` proposes,
    the fraction budget of the current state holds, so the halvings are
    guards.
    """
    if params.eps_reg > 0.0 and not (params.ell_cut > 0.0):
        raise ValueError("eps_reg > 0 requires a resolved cutoff level ell_cut > 0")
    if not (dt_hint > 0.0):
        raise ValueError(f"dt must be positive, got {dt_hint}")
    dt = dt_hint
    rejections: list[str] = []
    for _ in range(settings.retry_max + 1):
        try:
            new_state, report = _pipeline(state, params, consts, settings, dt)
        except SolverFailure as exc:
            rejections.append(str(exc))
            dt *= 0.5
            continue
        report.rejections = rejections
        return new_state, report
    raise SolverFailure(
        f"step failed after {settings.retry_max} dt halvings (last: {rejections[-1]})"
    )
