"""Time stepping for the coupled density / fraction / nutrient system.

One step advances, in order:

  1. total density n: backward Euler on the degenerate diffusion equation
     dn/dt = lap(K(n)) + eps*lap(n) + (G(d) - D*c) n, solved by Newton
     (K is the flux potential, gamma/(gamma+1) * n^(gamma+1)).  One
     ``_NewtonSystem`` record per solve holds what the solve freezes, and
     its Newton operator solves each Newton system: ``_BandOperator``, a
     tridiagonal direct solve, in 1D and, in 2D, ``_DensityOperator``, CG
     on the red-black reduced system of the symmetrized 5-point stencil
     scaled to a unit diagonal (the Schur complement on the black cells of
     a checkerboard, with the red cells back-substituted), to a tolerance
     sized to the Newton residual and safeguarded against oversolving;
  2. autophagic fraction c = n2/n: explicit upwind advection by the Darcy
     velocity u = -grad(n^gamma), in advective form (each face's inflow
     times the jump from its upstream cell), plus explicit reaction
     K1(d)(1-c) - K2(d)c - D c(1-c), whose right side points into [0, 1];
     with viscosity, backward Euler on eps*lap(c) after that explicit part;
  3. nutrient d: semi-implicit solve of b dd/dt - lap(d) = -psi(d_old) n + a c n
     with Dirichlet boundary data, clamped to [0, L].

The nutrient operator and the fraction viscosity have constant
coefficients, so both go through one direct line solve: one tridiagonal
system in 1D and, in 2D, a division in the product sine (Dirichlet) or
cosine (no-flux) basis of the two axes, with no tridiagonal solve.

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

A ``State`` carries the ``ModelParams`` it evolves under, derived constants
included, and every function here that takes a state reads them from it, so
one run has one gamma and one nutrient ceiling.

``suggest_dt`` is the one dt controller.  Its dt meets the CFL and reaction
bounds, scaled by the safety factor, the whole fraction monotonicity budget
of the current state, viscous drift included, and the ``dt_max`` cap; the
implicit viscosity adds no step limit.  ``step`` halves dt after a rejected
attempt, a guard for a hint from elsewhere or a new density whose advective
inflow outgrows the current one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import SolverFailure
from .grid import Grid, face_gradient, laplacian_neumann
from .model import ModelParams, cutoff

#: Jacobian degeneracy floor: diffusion derivative is evaluated at max(n, this)
VACUUM_FLOOR = 1e-14

#: monotonicity budget slack for the explicit part of the fraction update
CFL_SLACK = 1e-9

#: iteration cap of the 2D density CG
LINEAR_MAX = 10_000

#: the density Newton forms its residual's rounding floor only below this residual
FLOOR_CHECK = 1e-6

#: the undamped Newton fallback may grow the residual by at most this factor
FALLBACK_GROWTH = 100.0


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
    return np.power(x, e, out=np.zeros(x.shape), where=~(x < floor))


@dataclass(frozen=True)
class State:
    """Cell arrays n, c, d on ``grid`` at one instant, the params they evolve under, and their v.

    Every function that reads a state reads its model data, gamma and L
    included, from ``params``; a step's new state carries its start's
    params.  v = n^(gamma+1) is computed on first use and kept, read-only,
    for the life of the state, so the ledger, the accumulators and a
    snapshot of one state share it.
    """

    t: float
    grid: Grid
    n: np.ndarray
    c: np.ndarray
    d: np.ndarray
    params: ModelParams

    def __post_init__(self):
        for name in ("n", "c", "d"):
            values = np.asarray(getattr(self, name), dtype=float)
            if values.shape != self.grid.shape:
                raise ValueError(f"{name} has shape {values.shape}, grid has {self.grid.shape}")
            object.__setattr__(self, name, values)

    @cached_property
    def v(self) -> np.ndarray:
        v = positive_power(self.n, self.params.gamma + 1.0)
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


@dataclass
class _Iterate:
    """A density Newton iterate n evaluated once, with c and d frozen at the step's start."""

    n: np.ndarray
    rhs: np.ndarray       # right-hand side of dn/dt = ...
    f: np.ndarray         # residual n - n_old - dt rhs
    norm: float           # max|f|
    unclamped: bool       # no cutoff acts on (1-c) n or c n: the branch rhs took
    floor: float          # rounding floor of f where newton_tol < norm <= FLOOR_CHECK, else 0


class _NewtonSystem:
    """What one density solve freezes: its step's data, coefficients and Newton operator.

    It holds n_old, dt, the grid, the params and newton_tol; the density
    equation's coefficients at the state the step starts from (the cutoff
    level ell, g = G(cutoff(d)), c, the reaction rate G - D c wherever no
    clamp acts, ``in_band``: c in [0, 1] and n_old >= 0, and ``spread``:
    the larger of max c and 1 - min c); gamma/(gamma+1); and the Newton
    operator of the grid's dimension, a ``_BandOperator`` in 1D and a
    ``_DensityOperator`` in 2D, each built with dt.
    """

    def __init__(self, state: State, dt: float, newton_tol: float):
        self.grid, self.params, self.n_old, self.c = state.grid, state.params, state.n, state.c
        self.dt, self.newton_tol = dt, newton_tol
        params, c = self.params, self.c
        self.ell = _cutoff_level(params)
        self.g = np.asarray(params.rates.G(cutoff(state.d, self.ell)), dtype=float)
        self.rate = self.g - params.D * c
        c_min, c_max = float(c.min()), float(c.max())
        self.in_band = c_min >= 0.0 and c_max <= 1.0 and float(state.n.min()) >= 0.0
        self.spread = max(c_max, 1.0 - c_min)
        self.potential_scale = params.gamma / (params.gamma + 1.0)
        self.op = (_BandOperator if self.grid.dim == 1 else _DensityOperator)(self.grid, dt)

    def evaluate(self, n: np.ndarray) -> _Iterate:
        """Evaluate the iterate n: its right side, residual and, near convergence, rounding floor.

        The flux potential K(n) = gamma * integral of cutoff(s, ell)^gamma ds
        equals gamma/(gamma+1) * (n+)^(gamma+1) on [0, ell] and continues
        linearly above, which is exactly the effect of clamping the mobility
        coefficients.  The floor, 8 u max(|n| + dt (|L| |K(n)| + eps |L| |n|)),
        is the level to which f can be evaluated: u is the unit roundoff and
        |L| the no-flux Laplacian's stencil with every coefficient made
        positive, so each interior face adds (x_lo + x_hi) / h^2 to both of its
        cells.  It is formed only where it can stop a solve that newton_tol
        does not.  A trial far past saturation overflows n^(gamma+1); its
        residual is then not finite, which no stop or acceptance test passes.
        """
        grid, params, ell, dt = self.grid, self.params, self.ell, self.dt
        gamma = params.gamma
        n_max = float(n.max())
        # no cutoff acts on (1-c) n or c n for any n in [0, n_max]: in_band checks
        # n >= 0 on the old density, and Newton iterates are floored at zero
        unclamped = self.in_band and n_max * self.spread <= ell
        with np.errstate(over="ignore", invalid="ignore"):
            if n_max <= ell:
                pot = self.potential_scale * positive_power(n, gamma + 1.0)
            else:
                pot = self.potential_scale * positive_power(cutoff(n, ell), gamma + 1.0)
                pot += np.where(n > ell, gamma * ell**gamma * (n - ell), 0.0)
            rhs = laplacian_neumann(grid, pot)
            if unclamped:  # the reaction
                rhs += self.rate * n
            else:
                g, c = self.g, self.c
                rhs += g * cutoff((1.0 - c) * n, ell) + (g - params.D) * cutoff(c * n, ell)
            if params.eps_reg > 0.0:
                rhs += params.eps_reg * laplacian_neumann(grid, n)
            f = n - self.n_old
            f -= dt * rhs
        norm = float(np.abs(f).max())
        floor = 0.0
        if self.newton_tol < norm <= FLOOR_CHECK:
            x = np.abs(pot, out=pot)
            x += params.eps_reg * np.abs(n)
            scale = np.abs(n)
            for (lo, hi), h in zip(grid.sides, grid.h):
                face = x[lo] + x[hi]
                face *= dt / h / h
                scale[lo] += face
                scale[hi] += face
            floor = 8.0 * np.finfo(float).eps * float(scale.max())
        return _Iterate(n=n, rhs=rhs, f=f, norm=norm, unclamped=unclamped, floor=floor)

    def jacobian(self, it: _Iterate) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal factors (a, r) of the Newton Jacobian of the right side at ``it``.

        a is d/dn of the flux potential, floored away from the vacuum, plus eps;
        r is d/dn of the reaction, with each species term switched off where the
        right derivative of its cutoff is zero (outside [0, ell)), so that a
        vacuum cell gets the same r on both paths when no clamp acts.
        """
        n, params, ell = it.n, self.params, self.ell
        floored = np.maximum(n, VACUUM_FLOOR)
        if ell < math.inf:  # cutoff(., inf) is the identity on [VACUUM_FLOOR, inf)
            floored = cutoff(floored, ell)
        a = params.gamma * positive_power(floored, params.gamma) + params.eps_reg
        if it.unclamped:
            return a, self.rate
        c = self.c
        n1 = (1.0 - c) * n
        n2 = c * n
        active1 = ((n1 >= 0.0) & (n1 < ell)).astype(float)
        active2 = ((n2 >= 0.0) & (n2 < ell)).astype(float)
        return a, self.g * (1.0 - c) * active1 + (self.g - params.D) * c * active2


def _count_cutoff_activations(n: np.ndarray, c: np.ndarray, ell: float) -> int:
    """Cells where any band cutoff actually clamps (n, n1 or n2 outside (0, ell))."""
    n1 = (1.0 - c) * n
    n2 = c * n
    hit = (n > ell) | (n < 0.0)
    for s in (n1, n2):
        hit = hit | (s > ell) | (s < 0.0)
    return int(np.count_nonzero(hit))


class _BandOperator:
    """The 1D Newton matrix I - dt (lap diag(a) + diag(r)) in band form, solved directly.

    Its diagonal is 1 + dt deg a / h^2 - dt r, deg the number of interior
    faces of a cell, whose row factors dt deg are fixed for a density
    solve; cell i couples to i - 1 and i + 1 with w = -dt a / h^2 of the
    neighbour.
    """

    def __init__(self, grid: Grid, dt: float):
        self.dt, self.h2 = dt, grid.h[0] ** 2
        self.dt_deg = np.full(grid.cells[0], 2.0 * dt)
        self.dt_deg[0] = self.dt_deg[-1] = dt

    def solve(self, a: np.ndarray, r: np.ndarray, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
        """delta with (I - dt (lap diag(a) + diag(r))) delta = rhs, and one iteration; ``tol`` is unused."""
        diag = self.dt_deg * a
        diag /= self.h2
        diag += 1.0
        diag -= self.dt * r
        # row i + 1 holds w[i] below the diagonal, row i w[i + 1] above
        w = np.multiply(a, -self.dt)
        w /= self.h2
        return linalg.thomas_solve(w[:-1], diag, w[1:], rhs), 1


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
    density solve builds one operator, with its dt; each Newton system
    refills its scales in place, and every array is allocated here, once.
    """

    def __init__(self, grid: Grid, dt: float):
        nx, ny = grid.cells
        self.dt = dt
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
        self.dt_over_hx2 = dt / hx2
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

    def assemble(self, a: np.ndarray, diag_reaction: np.ndarray) -> None:
        """Fill the scales for S J S^-1 with a > 0 and diag_reaction = 1 - dt r > 0."""
        d = self.cells(self.diagonal)
        np.multiply(a, self.dt, out=d)
        d *= self.faces_over_h2
        d += diag_reaction
        t = self.cells(self.t)
        np.divide(a, d, out=t)
        np.sqrt(t, out=t)
        np.copyto(self.t_red, self.t[0::2])
        np.copyto(self.t_black, self.t[1::2])
        np.copyto(self.weights, self.diagonal[1::2])
        np.multiply(self.t_red, self.dt_over_hx2, out=self.coupling_red)
        np.multiply(self.t_black, self.dt_over_hx2, out=self.coupling_black)

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

    def solve(self, a: np.ndarray, r: np.ndarray, rhs: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
        """delta with (I - dt (lap diag(a) + diag(r))) delta = rhs, and its CG iterations.

        The system is symmetrized with S = diag(sqrt(a)) -- S J S^-1 =
        diag(1 - dt r) - dt S lap S is SPD -- scaled by its diagonal D and
        reduced to its black cells; CG on the reduced system runs, in at
        most LINEAR_MAX iterations, until sqrt(sum D_black r^2) is at most
        tol * |S rhs|.  The back-substitution leaves the red residual zero
        up to rounding, so that is the 2-norm test on the symmetrized
        system.  A bound that overflows raises SolverFailure before any
        operator work.
        """
        diag_reaction = 1.0 - self.dt * r
        if np.min(diag_reaction) <= 0.0:
            raise SolverFailure("density Jacobian lost positivity; dt too large for the reactions")
        a_safe = np.maximum(a, 1e-30)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = tol * math.sqrt(float(np.vdot(a_safe * rhs, rhs)))  # tol |S rhs|
        if not math.isfinite(bound):
            raise SolverFailure("density Newton system overflows: |S rhs| is not finite")
        self.assemble(a_safe, diag_reaction)
        # b = D^-1/2 S rhs = t rhs, and the reduced right side is b_black + C^T b_red
        b = self.x
        np.multiply(self.cells(self.t), rhs, out=self.cells(b))
        self.apply_ct(b[0::2], self.reduced_rhs)
        self.reduced_rhs += b[1::2]
        result = linalg.pcg_solve(self.matvec, self.weights, self.reduced_rhs, bound, LINEAR_MAX, self.work)
        # x_red = b_red + C x_black, in place of b
        b[1::2] = result.x
        self.apply_c(result.x, self.red)
        b[0::2] += self.red
        # the solution of S J S^-1 is D^-1/2 x, and delta = S^-1 D^-1/2 x = t x / a
        delta = self.cells(b) * self.cells(self.t)
        delta /= a_safe
        return delta, result.iterations


def density_solve(
    state: State, dt: float, settings: SolverSettings
) -> tuple[np.ndarray, StepReport]:
    """Backward-Euler solve for the total density with frozen c and d.

    Damped Newton on the cell vector, converged when max|f| <= newton_tol
    for the residual f(n) = n - n_old - dt*rhs(n), or when max|f| <=
    FLOOR_CHECK is at most the rounding floor of f, below which no iterate
    can be told from another.  The solve builds one ``_NewtonSystem``
    record, which freezes n_old, dt, the grid, the params, newton_tol and
    the coefficients at the step's start, and the Newton operator of the
    grid's dimension; every Newton system goes through that operator's
    ``solve``.  Newton system k is solved to the relative tolerance
    max(linear_tol, min(0.1, max(|f_k|, 0.5 newton_tol / |f_k|))), |f_k| =
    max|f_k|: an inexact-Newton forcing term that keeps the quadratic
    convergence (Dembo, Eisenstat and Steihaug 1982) without solving early
    systems beyond what their residual can use, with the safeguard of
    Eisenstat and Walker (1996) in Kelley's form (1995, section 6.3), which
    solves the last system only to about newton_tol / 2 rather than to
    |f_k|^2; newton_tol still decides acceptance, and the 1D direct solve
    is exact.  The line search halves the step until the residual shrinks.
    Each iterate, the start and every trial, is evaluated once
    (``_NewtonSystem.evaluate``), floor included, and the one accepted
    brings that record into the next iteration.  When 8
    halvings fail, the full step is taken as a fallback if its residual is
    finite and at most FALLBACK_GROWTH times the current one; a larger
    growth, or a second fallback in one solve, raises SolverFailure.  After
    convergence the update is re-applied in explicit conservative form,
    n_new = n_old + dt*rhs(n*), so that no-flux runs conserve mass to
    rounding rather than to the Newton tolerance.  The
    result is floored at zero with clamps counted.
    """
    n_old = state.n
    system = _NewtonSystem(state, dt, settings.newton_tol)
    report = StepReport(dt_used=dt)
    cur = system.evaluate(n_old.copy())
    for it in range(settings.newton_max + 1):
        report.newton_iters = it + 1  # residual evaluations, 1 on a fixed point
        report.newton_residual = cur.norm
        if not math.isfinite(cur.norm):
            raise SolverFailure("density Newton residual is non-finite")
        if cur.norm <= settings.newton_tol or cur.norm <= cur.floor:
            break
        if it == settings.newton_max:
            raise SolverFailure(
                f"density Newton did not converge in {settings.newton_max} iterations "
                f"(residual {cur.norm:.3e})"
            )
        a, r = system.jacobian(cur)
        # forcing term with Eisenstat and Walker's safeguard against oversolving
        tol = max(settings.linear_tol, min(0.1, max(cur.norm, 0.5 * settings.newton_tol / cur.norm)))
        delta, lin = system.op.solve(a, r, -cur.f, tol)
        report.linear_iters += lin
        # damped update: halve until the residual shrinks; the full step,
        # which is the first trial, is the bounded fallback
        for k in range(8):
            n_trial = cur.n + 0.5**k * delta
            np.maximum(n_trial, 0.0, out=n_trial)
            trial = system.evaluate(n_trial)
            if k == 0:
                full = trial
            if math.isfinite(trial.norm) and trial.norm < cur.norm:
                break
        else:
            if not full.norm <= FALLBACK_GROWTH * cur.norm:  # also rejects a non-finite one
                raise SolverFailure(
                    "density Newton's undamped step grew the residual from "
                    f"{cur.norm:.3e} to {full.norm:.3e}"
                )
            report.newton_fallbacks += 1
            if report.newton_fallbacks > 1:
                raise SolverFailure(
                    "density Newton fell back to an undamped step twice "
                    f"(residual {cur.norm:.3e})"
                )
            trial = full
        cur = trial

    n_new = n_old + dt * cur.rhs
    report.clamped_cells = int(np.count_nonzero(n_new < 0.0))
    n_new = np.maximum(n_new, 0.0)
    report.cutoff_activations = _count_cutoff_activations(cur.n, state.c, system.ell)
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


def _fraction_rates(state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K1, K2 and K1 + K2 + D on the cutoff-clamped current nutrient.

    They depend only on the state a step starts from; ``suggest_dt`` and
    ``fraction_update`` each evaluate them.
    """
    params = state.params
    d_arg = cutoff(state.d, _cutoff_level(params))
    k1 = np.asarray(params.rates.K1(d_arg), dtype=float)
    k2 = np.asarray(params.rates.K2(d_arg), dtype=float)
    return k1, k2, k1 + k2 + params.D


def _fraction_budget(
    grid: Grid,
    dt: float,
    rate_sum: np.ndarray,
    u: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Per-cell monotonicity budget of the explicit part of the fraction update.

    Sums, in this order, the advective inflow Courant numbers of the face
    velocities u (the viscous drift included) and dt (K1 + K2 + D).  The
    implicit viscosity needs no share of it.  ``suggest_dt`` evaluates it
    at dt = 1 on the current density; ``fraction_update`` enforces it at the
    step's dt on the new one.
    """
    budget = np.zeros(grid.shape)
    for ui, (lo, hi), h in zip(u, grid.sides, grid.h):
        inflow_lo = np.maximum(ui, 0.0)   # face feeds the hi cell
        inflow_hi = np.maximum(-ui, 0.0)  # face feeds the lo cell
        budget[hi] += dt / h * inflow_lo
        budget[lo] += dt / h * inflow_hi
    budget += dt * rate_sum
    return budget


def fraction_update(state: State, n_new: np.ndarray, dt: float) -> np.ndarray:
    """Explicit upwind advection and reaction of the fraction, then implicit viscosity.

    The explicit part c* = c + dt (-adv + reaction) advects by the face
    velocities u of ``_face_velocities``, the viscous drift included: with
    J = (c_hi - c_lo) / h, a face adds max(u, 0) J to its hi cell and
    min(u, 0) J to its lo cell, its inflow times the jump from upstream.  The
    per-cell monotonicity budget (those inflows over h plus the reaction
    rates, times dt; see ``_fraction_budget``) must stay at or below one;
    that is the condition under which c* is a convex combination and
    the reaction keeps it inside [0, 1].  A violated budget raises
    SolverFailure so the caller can halve dt.  With eps > 0 the result
    solves (I - dt eps lap_N) c_new = c*: that matrix is an M-matrix with
    unit row sums, so c_new is a convex combination of c* for every dt,
    and it is clipped to [min c*, max c*], which removes only the rounding
    of the solve.
    """
    grid, params = state.grid, state.params
    c = state.c
    u = _face_velocities(grid, n_new, params.gamma, params.eps_reg)
    k1, k2, rate_sum = _fraction_rates(state)
    worst = float(np.max(_fraction_budget(grid, dt, rate_sum, u)))
    if not worst <= 1.0 + CFL_SLACK:  # a NaN budget fails too
        raise SolverFailure(f"fraction update monotonicity budget {worst:.3f} exceeds 1")

    adv = np.zeros(grid.shape)
    for ui, (lo, hi), h in zip(u, grid.sides, grid.h):
        jump = c[hi] - c[lo]
        adv[hi] += np.maximum(ui, 0.0) * jump / h
        adv[lo] += np.minimum(ui, 0.0) * jump / h
    reaction = k1 * (1.0 - c) - k2 * c - params.D * c * (1.0 - c)

    c_star = c + dt * (-adv + reaction)
    if not dt * params.eps_reg > 0.0:  # no viscosity, or a dt eps that underflows to 0
        return c_star
    # (I - dt eps lap_N) c_new = c*, divided through by dt eps
    shift = 1.0 / (dt * params.eps_reg)
    c_new = _line_solve(grid, shift, shift * c_star, dirichlet=False)
    return np.clip(c_new, c_star.min(), c_star.max(), out=c_new)


def _line_solve(grid: Grid, shift: float, rhs: np.ndarray, dirichlet: bool) -> np.ndarray:
    """Solve (shift - lap) x = rhs for the constant-coefficient cell-centred Laplacian.

    lap has homogeneous Dirichlet walls (the ghost value -x, data already on
    ``rhs``) or no-flux walls: a wall cell's diagonal counts its one
    interior face, plus two for the Dirichlet ghost.  1D is one tridiagonal
    solve.  In 2D the operator is diagonal in the product of the
    ``linalg.line_basis`` modes Bx and By of the two axes, so
    x = Bx^T [(Bx rhs By^T) / (shift + lambda_x,i + lambda_y,j)] By, with the
    normwise residual check of every direct solve.
    """
    if grid.dim == 1:
        nx, hx2 = grid.cells[0], grid.h[0] ** 2
        deg = np.full(nx, 2.0)
        deg[0] = deg[-1] = 3.0 if dirichlet else 1.0
        off = np.full(nx - 1, -1.0 / hx2)  # symmetric: lower = upper
        return linalg.thomas_solve(off, shift + deg / hx2, off, rhs)
    (bx, lam_x), (by, lam_y) = (linalg.line_basis(n, h, dirichlet) for n, h in zip(grid.cells, grid.h))
    x = bx.T @ ((bx @ rhs @ by.T) / (shift + lam_x[:, None] + lam_y)) @ by

    def residual_of(x):
        residual = shift * x - laplacian_neumann(grid, x) - rhs
        if dirichlet:
            # the ghost value -x puts 2 x / h^2 more on each wall cell
            for axis, h in enumerate(grid.h):
                walls, edges = np.swapaxes(residual, 0, axis), np.swapaxes(x, 0, axis)
                walls[0] += 2.0 * edges[0] / h**2
                walls[-1] += 2.0 * edges[-1] / h**2
        return residual

    # the largest row sum of |shift - lap|, an interior cell's
    linalg.check_direct_solve(x, residual_of, lambda: shift + sum(4.0 / h**2 for h in grid.h), rhs, "line")
    return x


def nutrient_solve(
    state: State, n_new: np.ndarray, c_new: np.ndarray, dt: float
) -> tuple[np.ndarray, int, int]:
    """Semi-implicit nutrient solve: implicit diffusion, explicit consumption.

    Solves (b/dt)(d_new - d_old) - lap_dirichlet(d_new) = -psi(d_old) n + a c n
    directly (``_line_solve`` with shift b/dt) and clamps the result to
    [0, params.consts.L], counting clamp events.  Returns (d_new,
    clamped_cells, linear_iterations), one iteration for the direct solve.
    """
    d_old, params = state.d, state.params
    b_dt = params.b / dt
    psi_old = np.asarray(params.rates.psi(d_old), dtype=float)
    source = -psi_old * n_new + params.a * c_new * n_new
    rhs = b_dt * d_old + source
    # the Dirichlet ghost value 2 d_b - d puts 2 d_b / h^2 on each wall cell's right side
    for axis, h in enumerate(state.grid.h):
        walls = np.swapaxes(rhs, 0, axis)
        walls[0] += 2.0 * params.d_b / h**2
        walls[-1] += 2.0 * params.d_b / h**2
    d_new = _line_solve(state.grid, b_dt, rhs, dirichlet=True)

    clamped = int(np.count_nonzero((d_new < 0.0) | (d_new > params.consts.L)))
    d_new = np.clip(d_new, 0.0, params.consts.L)
    return d_new, clamped, 1


def suggest_dt(state: State, settings: SolverSettings) -> float:
    """The step's dt controller: a dt that the fraction monotonicity budget accepts.

    dt = min(safety * min(h / max|u|, 1 / (K1_max + K2_max + D)), 1 / max beta),
    clipped to ``dt_max`` and to the remaining horizon.  The CFL velocity u
    leaves out the viscous drift.  beta is ``_fraction_budget`` at dt = 1 on
    the current state, with the per-cell ``_fraction_rates`` and the face
    velocities including the drift; the budget is linear in dt, so 1 / max
    beta is the largest dt it accepts at the current density.  This bound
    carries the drift's inflow, which the CFL bound leaves out.  The
    fraction viscosity is implicit and sets no bound.
    """
    params = state.params
    u = _face_velocities(state.grid, state.n, params.gamma, 0.0)
    speed = 0.0
    for ui in u:
        speed = max(speed, float(np.max(np.abs(ui))))
    if not math.isfinite(speed):
        raise SolverFailure("non-finite transport velocity")
    h_min = min(state.grid.h)
    dt_adv = h_min / speed if speed > 0.0 else math.inf
    rate_sum = params.consts.K1_max + params.consts.K2_max + params.D
    dt_react = 1.0 / rate_sum if rate_sum > 0.0 else math.inf
    dt = settings.safety * min(dt_adv, dt_react)
    u = _with_viscous_drift(state.grid, u, state.n, params.eps_reg)
    budget = _fraction_budget(state.grid, 1.0, _fraction_rates(state)[2], u)
    beta = float(np.max(budget))
    if beta > 0.0:
        dt = min(dt, 1.0 / beta)
    dt = min(dt, settings.dt_max)
    remaining = params.T_final - state.t
    if remaining > 0.0:
        dt = min(dt, remaining)
    return dt


def _pipeline(state: State, settings: SolverSettings, dt: float) -> tuple[State, StepReport]:
    n_new, report = density_solve(state, dt, settings)
    c_new = fraction_update(state, n_new, dt)
    d_new, clamped, lin = nutrient_solve(state, n_new, c_new, dt)
    report.clamped_cells += clamped
    report.linear_iters += lin
    return replace(state, t=state.t + dt, n=n_new, c=c_new, d=d_new), report


def step(state: State, settings: SolverSettings, dt_hint: float) -> tuple[State, StepReport]:
    """Advance one step of the scheme: try dt_hint, halving dt after each rejected attempt.

    The state's params need their resolved ``consts``.  eps_reg = 0 runs the
    plain scheme; eps_reg > 0 needs a resolved cutoff level ell_cut > 0.  An
    attempt runs the density solve, the fraction update and the nutrient
    solve at its dt; a SolverFailure from any of them rejects it, records
    its message in ``StepReport.rejections`` and halves dt, up to retry_max
    times.  At the dt ``suggest_dt`` proposes, the fraction budget of the
    current state holds, so the halvings are guards.
    """
    params = state.params
    if params.consts is None:
        raise ValueError("step needs the run's derived constants in params.consts")
    if params.eps_reg > 0.0 and not (params.ell_cut > 0.0):
        raise ValueError("eps_reg > 0 requires a resolved cutoff level ell_cut > 0")
    if not (dt_hint > 0.0):
        raise ValueError(f"dt must be positive, got {dt_hint}")
    dt = dt_hint
    rejections: list[str] = []
    for _ in range(settings.retry_max + 1):
        try:
            new_state, report = _pipeline(state, settings, dt)
        except SolverFailure as exc:
            rejections.append(str(exc))
            dt *= 0.5
            continue
        report.rejections = rejections
        return new_state, report
    raise SolverFailure(
        f"step failed after {settings.retry_max} dt halvings (last: {rejections[-1]})"
    )
