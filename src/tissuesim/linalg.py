"""Deterministic linear solvers for the implicit sub-steps.

Tridiagonal systems go through a banded direct solve, LAPACK ``dgtsv``; a
block of independent tridiagonal systems is one banded system whose
couplings between blocks are zero.  ``dgtsv`` comes from scipy's compiled
LAPACK extension ``scipy.linalg._flapack``, loaded on its own:
``scipy.linalg`` itself is never imported, because importing that package
takes longer than all of tissuesim's other imports together.  The
orthonormal sine transform (DST-II) diagonalizes the cell-centred Dirichlet
Laplacian along one axis, and its Neumann twin, the orthonormal cosine
transform (DCT-II), the no-flux one; either turns a constant-coefficient 2D
solve into such a block of lines.  Both go through one length-2n real FFT
of the odd or even extension.  Variable-coefficient 2D systems are SPD (after
symmetrization in the caller) and go through conjugate gradients on an
operator scaled to a unit diagonal, stopped by a bound on the residual
weighted by the diagonal the scaling took out; the caller reduces the
system to its black cells first.  Every path uses fixed iteration and
accumulation orders: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

#: direct-solve residual must stay below this times (|rhs| + |solution|)
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


dgtsv = _load_flapack().dgtsv


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
    singular system, a non-finite solution or an unexpectedly large (or
    non-finite) residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise SolverFailure("tridiagonal solve failed: singular matrix")
    x_max = float(np.abs(x).max())  # nan or inf exactly when some x is
    if not math.isfinite(x_max):
        raise SolverFailure("tridiagonal solve produced non-finite values")
    residual = diag * x
    residual[:-1] += upper * x[1:]
    residual[1:] += lower * x[:-1]
    residual -= rhs
    resid = float(np.abs(residual, out=residual).max())
    scale = float(np.abs(rhs).max()) + x_max
    if not resid <= DIRECT_RESIDUAL_TOL * max(scale, 1e-300):
        raise SolverFailure(
            f"tridiagonal residual {resid:.3e} exceeds {DIRECT_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )
    return x


def _phases(n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of pi k / 2n for the modes k = first..first + n - 1."""
    theta = np.pi * np.arange(first, first + n) / (2 * n)
    return np.sin(theta), np.cos(theta)


def _orthonormal_scale(n: int, single: int) -> np.ndarray:
    """sqrt(2/n) per mode, sqrt(1/n) for the mode at index ``single``."""
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[single] = math.sqrt(1.0 / n)
    return scale


def sine_transform(v: np.ndarray) -> np.ndarray:
    """Orthonormal DST-II along the last axis, through a length-2n real FFT.

    Mode k = 1..n is sqrt(2/n) sum_j v_j sin(pi k (j + 1/2) / n), with the
    k = n mode scaled by a further 1/sqrt(2).  Its inverse is
    ``inverse_sine_transform``.
    """
    n = v.shape[-1]
    spectrum = np.fft.rfft(np.concatenate((v, -v[..., ::-1]), axis=-1), axis=-1)[..., 1:]
    sin, cos = _phases(n, 1)
    return 0.5 * _orthonormal_scale(n, -1) * (sin * spectrum.real - cos * spectrum.imag)


def dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues 4/h^2 sin^2(pi k / 2n) of -lap_D on the sine modes k = 1..n.

    lap_D is the cell-centred Laplacian of n cells of width h with ghost
    values that put zero on both walls; ``sine_transform`` diagonalizes it.
    """
    sin, _ = _phases(n, 1)
    return 4.0 / h**2 * sin**2


def inverse_sine_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse (the transpose, a DST-III) of ``sine_transform`` along the last axis."""
    n = coeffs.shape[-1]
    sin, cos = _phases(n, 1)
    weights = _orthonormal_scale(n, -1) * coeffs
    weights[..., -1] *= 2.0  # the k = n term is folded into one real FFT entry
    spectrum = np.zeros(coeffs.shape[:-1] + (n + 1,), dtype=complex)
    spectrum[..., 1:] = weights * (sin - 1j * cos)
    return n * np.fft.irfft(spectrum, n=2 * n, axis=-1)[..., :n]


def cosine_transform(v: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis, through a length-2n real FFT.

    Mode k = 0..n-1 is sqrt(2/n) sum_j v_j cos(pi k (j + 1/2) / n), with the
    k = 0 mode scaled by a further 1/sqrt(2).  Its inverse is
    ``inverse_cosine_transform``.
    """
    n = v.shape[-1]
    spectrum = np.fft.rfft(np.concatenate((v, v[..., ::-1]), axis=-1), axis=-1)[..., :n]
    sin, cos = _phases(n, 0)
    return 0.5 * _orthonormal_scale(n, 0) * (cos * spectrum.real + sin * spectrum.imag)


def neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues 4/h^2 sin^2(pi k / 2n) of -lap_N on the cosine modes k = 0..n-1.

    lap_N is the cell-centred no-flux Laplacian of n cells of width h;
    ``cosine_transform`` diagonalizes it, and the constant mode k = 0 has
    eigenvalue 0.
    """
    sin, _ = _phases(n, 0)
    return 4.0 / h**2 * sin**2


def inverse_cosine_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse (the transpose, a DCT-III) of ``cosine_transform`` along the last axis."""
    n = coeffs.shape[-1]
    sin, cos = _phases(n, 0)
    weights = _orthonormal_scale(n, 0) * coeffs
    weights[..., 0] *= 2.0  # the real FFT counts the k = 0 entry once, the others twice
    spectrum = np.zeros(coeffs.shape[:-1] + (n + 1,), dtype=complex)
    spectrum[..., :n] = weights * (cos + 1j * sin)
    return n * np.fft.irfft(spectrum, n=2 * n, axis=-1)[..., :n]


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
