"""Deterministic linear solvers for the implicit sub-steps.

Tridiagonal systems go through a banded direct solve, LAPACK ``dgtsv``; a
block of independent tridiagonal systems is one banded system whose
couplings between blocks are zero.  ``dgtsv`` comes from scipy's compiled
LAPACK extension ``scipy.linalg._flapack``, loaded on its own by the first
tridiagonal solve: ``scipy.linalg`` itself is never imported, because
importing that package takes longer than all of tissuesim's other imports
together.  The orthonormal sine basis (DST-II) diagonalizes the
cell-centred Dirichlet Laplacian along one axis, and the orthonormal cosine
basis (DCT-II) the no-flux one; ``line_basis`` gives either as a dense
matrix with its eigenvalues, so a constant-coefficient 2D solve is four
small matrix products and a division, with no tridiagonal solve.  Every
direct solve passes one normwise backward error test.
Variable-coefficient 2D systems are SPD (after symmetrization in the
caller) and go through conjugate gradients on an operator scaled to a unit
diagonal, stopped by a bound on the residual weighted by the diagonal the
scaling took out; the caller reduces the system to its black cells first.
Every path uses fixed iteration and accumulation orders: identical inputs
give bit-identical outputs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

#: direct-solve residual must stay below this times (|A| |solution| + |rhs|), infinity norms
DIRECT_RESIDUAL_TOL = 1e-12


def _load_flapack():
    """scipy's f2py LAPACK module, found and loaded without importing scipy.

    ``find_spec("scipy")`` only locates the top-level package; resolving
    ``scipy.linalg._flapack`` by its dotted name would run the ``scipy`` and
    ``scipy.linalg`` package imports first.  The extension itself needs
    numpy alone.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed: its LAPACK extension provides dgtsv")
    linalg_dir = os.path.join(os.path.dirname(scipy_spec.origin), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [linalg_dir])
    if spec is None:
        raise ImportError(f"scipy.linalg._flapack not found in {linalg_dir}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _dgtsv():
    """LAPACK ``dgtsv``, loaded by the first tridiagonal solve: a 2D run makes none."""
    return _load_flapack().dgtsv


def check_direct_solve(x: np.ndarray, residual_of, a_norm_of, rhs: np.ndarray, what: str) -> None:
    """Raise SolverFailure unless the direct solution x of A x = rhs is finite and backward stable.

    The residual r = A x - rhs must pass the normwise backward error test
    |r|inf <= DIRECT_RESIDUAL_TOL (|A|inf |x|inf + |rhs|inf).  A
    backward-stable solve leaves a residual of a few roundings of |A| |x|,
    so a test without the |A| term rejects correct solves of systems with
    large entries.  ``residual_of(x)`` returns r in a fresh array and is
    called only on a finite x; ``a_norm_of()`` returns |A|inf, the largest
    row sum of |A|, and is called only when |r|inf exceeds
    DIRECT_RESIDUAL_TOL |rhs|inf, which the test passes whatever |A| is.
    """
    x_max = float(np.abs(x).max())  # nan or inf exactly when some x is
    if not math.isfinite(x_max):
        raise SolverFailure(f"{what} solve produced non-finite values")
    residual = residual_of(x)
    resid = float(np.abs(residual, out=residual).max())
    rhs_max = float(np.abs(rhs).max())
    if resid <= DIRECT_RESIDUAL_TOL * rhs_max:
        return
    scale = a_norm_of() * x_max + rhs_max
    if not resid <= DIRECT_RESIDUAL_TOL * max(scale, 1e-300):
        raise SolverFailure(
            f"{what} residual {resid:.3e} exceeds {DIRECT_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )


def thomas_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Direct tridiagonal solve (LAPACK gtsv, partial pivoting) with a residual check.

    The matrix is given in gtsv's band form: ``diag`` of length n, and the
    off-diagonals ``lower`` (row i + 1, column i) and ``upper`` (row i,
    column i + 1) of length n - 1; gtsv raises ValueError on other lengths.
    Independent systems stacked end to end are one system whose
    off-diagonal entries between them are zero.  The solver only requires
    nonsingularity (LAPACK pivots internally).  Raises SolverFailure on a
    singular system, a non-finite solution or a residual that fails
    ``check_direct_solve``.
    """
    rhs = np.asarray(rhs, dtype=float)
    *_, x, info = _dgtsv()(lower, diag, upper, rhs)
    if info > 0:
        raise SolverFailure("tridiagonal solve failed: singular matrix")

    def residual_of(x):
        residual = diag * x
        residual[:-1] += upper * x[1:]
        residual[1:] += lower * x[:-1]
        residual -= rhs
        return residual

    def a_norm_of():
        row_sums = np.abs(diag)
        row_sums[:-1] += np.abs(upper)
        row_sums[1:] += np.abs(lower)
        return float(row_sums.max())

    check_direct_solve(x, residual_of, a_norm_of, rhs, "tridiagonal")
    return x


@functools.lru_cache(maxsize=4)  # a 2D run asks for at most two axes times two wall types
def line_basis(n: int, h: float, dirichlet: bool) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal modes of -lap on n cells of width h, and their eigenvalues.

    lap is the cell-centred Laplacian whose wall cells have degree 3 (a
    Dirichlet ghost value of minus the wall cell's) or 1 (no flux).  Its modes
    are the rows of the orthonormal DST-II, mode k = 1..n being
    sqrt(2/n) sin(pi k (j + 1/2) / n) with the k = n row scaled by a further
    1/sqrt(2), or of the orthonormal DCT-II, mode k = 0..n-1 being
    sqrt(2/n) cos(pi k (j + 1/2) / n) with the k = 0 row scaled by
    1/sqrt(2).  Mode k has eigenvalue 4/h^2 sin^2(pi k / 2n).  The matrix is
    orthogonal, so its transpose is its inverse.  Both arrays are read-only
    and cached: a run asks for the same bases at every step.
    """
    k = np.arange(1, n + 1) if dirichlet else np.arange(n)
    # the phase k (2j + 1) pi / 2n, reduced exactly to [0, 2 pi) first
    phase = np.outer(k, 2 * np.arange(n) + 1) % (4 * n) * (np.pi / (2 * n))
    basis = math.sqrt(2.0 / n) * (np.sin(phase) if dirichlet else np.cos(phase))
    basis[-1 if dirichlet else 0] *= math.sqrt(0.5)
    eigenvalues = 4.0 / h**2 * np.sin(np.pi * k / (2 * n)) ** 2
    basis.flags.writeable = eigenvalues.flags.writeable = False
    return basis, eigenvalues


@dataclass(frozen=True)
class PcgResult:
    x: np.ndarray
    iterations: int


def pcg_solve(
    matvec, weights: np.ndarray, rhs: np.ndarray, bound: float, max_iters: int, work: np.ndarray
) -> PcgResult:
    """Conjugate gradients for a Jacobi-scaled SPD operator, stopped by a weighted residual bound.

    ``matvec(y, out)`` writes A y into ``out`` for an SPD matrix A scaled to
    a unit diagonal, so the iterates are those of Jacobi-preconditioned CG
    on the unscaled matrix.  The solve converges when sqrt(sum weights r^2)
    is at most ``bound`` for the residual r of A; with ``weights`` the
    diagonal the scaling took out, that is the 2-norm of the unscaled
    residual.  The test is made on the initial residual too, so a right
    side that meets it, zero for one, returns x = 0 after 0 iterations.
    Raises SolverFailure on a non-positive curvature direction or on
    stagnation at max_iters.  ``work`` is a (5, n) array that holds x, r, p,
    A p and a scratch vector, so a caller that solves many systems allocates
    them once; the returned x is ``work[0]``.  Every update is in place,
    with the same roundings as the textbook updates.
    """
    x, r, p, ap, scaled = work
    x.fill(0.0)
    np.copyto(r, rhs)
    # sum(weights r^2) >= min(weights) r.r, so the weighted norm is formed
    # only once that lower bound meets the test; the slack is far above the
    # rounding of either sum, so the decision is the weighted test's
    floor = float(weights.min()) * (1.0 - 1e-9)
    bound_sq = bound * bound

    def converged(rr: float) -> bool:
        return floor * rr <= bound_sq and (
            math.sqrt(float(np.dot(np.multiply(weights, r, out=scaled), r))) <= bound
        )

    rr = float(np.dot(r, r))
    if converged(rr):
        return PcgResult(x=x, iterations=0)
    np.copyto(p, r)
    for k in range(1, max_iters + 1):
        matvec(p, ap)
        denom = float(np.dot(p, ap))
        if denom <= 0.0:
            raise SolverFailure("conjugate gradient hit a non-positive curvature direction")
        alpha = rr / denom
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(ap, alpha, out=scaled)
        rr_new = float(np.dot(r, r))
        if converged(rr_new):
            return PcgResult(x=x, iterations=k)
        p *= rr_new / rr
        p += r
        rr = rr_new
    raise SolverFailure(f"conjugate gradient stagnated after {max_iters} iterations")
