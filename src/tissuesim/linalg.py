"""Deterministic linear solvers for the implicit sub-steps.

Tridiagonal systems go through a banded direct solve, LAPACK ``dgtsv``; a
block of independent tridiagonal systems is one banded system whose
couplings between blocks are zero.  ``dgtsv`` comes from scipy's compiled
LAPACK extension ``scipy.linalg._flapack``, loaded on its own:
``scipy.linalg`` itself is never imported, because importing that package
takes longer than all of tissuesim's other imports together.  The
orthonormal sine transform (DST-II) diagonalizes the cell-centred Dirichlet
Laplacian along one axis, so it turns a constant-coefficient 2D solve into
such a block.  Variable-coefficient 2D systems are SPD (after
symmetrization in the caller) and go through conjugate gradients with
Jacobi preconditioning.  Every path uses fixed iteration and accumulation
orders: identical inputs give bit-identical outputs.
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


@dataclass(frozen=True)
class TriDiag:
    """Tridiagonal matrix in per-row coefficient form.

    ``lower[0]`` and ``upper[-1]`` are ignored.  The solver only requires
    nonsingularity (LAPACK pivots internally).  Independent systems stacked
    end to end form one TriDiag whose couplings between them are zero.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        di = np.asarray(self.diag, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if not (lo.shape == di.shape == up.shape) or di.ndim != 1:
            raise ValueError("lower/diag/upper must be 1-D arrays of equal length")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "diag", di)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.upper[:-1] * x[1:]
        y[1:] += self.lower[1:] * x[:-1]
        return y


def thomas_solve(m: TriDiag, rhs: np.ndarray) -> np.ndarray:
    """Direct tridiagonal solve (LAPACK gtsv, partial pivoting) with a residual check.

    Raises SolverFailure on a singular system, a non-finite solution or an
    unexpectedly large (or non-finite) residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    *_, x, info = dgtsv(m.lower[1:], m.diag, m.upper[:-1], rhs)
    if info > 0:
        raise SolverFailure("tridiagonal solve failed: singular matrix")
    if not np.all(np.isfinite(x)):
        raise SolverFailure("tridiagonal solve produced non-finite values")
    resid = float(np.max(np.abs(m.matvec(x) - rhs)))
    scale = float(np.max(np.abs(rhs))) + float(np.max(np.abs(x)))
    if not resid <= DIRECT_RESIDUAL_TOL * max(scale, 1e-300):
        raise SolverFailure(
            f"tridiagonal residual {resid:.3e} exceeds {DIRECT_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )
    return x


def _sine_phases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of pi k / 2n for the modes k = 1..n."""
    theta = np.pi * np.arange(1, n + 1) / (2 * n)
    return np.sin(theta), np.cos(theta)


def _sine_scale(n: int) -> np.ndarray:
    """Orthonormal scaling of the DST-II modes k = 1..n."""
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[-1] = math.sqrt(1.0 / n)
    return scale


def sine_transform(v: np.ndarray) -> np.ndarray:
    """Orthonormal DST-II along the last axis, through a length-2n real FFT.

    Mode k = 1..n is sqrt(2/n) sum_j v_j sin(pi k (j + 1/2) / n), with the
    k = n mode scaled by a further 1/sqrt(2).  Its inverse is
    ``inverse_sine_transform``.
    """
    n = v.shape[-1]
    spectrum = np.fft.rfft(np.concatenate((v, -v[..., ::-1]), axis=-1), axis=-1)[..., 1:]
    sin, cos = _sine_phases(n)
    return 0.5 * _sine_scale(n) * (sin * spectrum.real - cos * spectrum.imag)


def dirichlet_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues 4/h^2 sin^2(pi k / 2n) of -lap_D on the sine modes k = 1..n.

    lap_D is the cell-centred Laplacian of n cells of width h with ghost
    values that put zero on both walls; ``sine_transform`` diagonalizes it.
    """
    sin, _ = _sine_phases(n)
    return 4.0 / h**2 * sin**2


def inverse_sine_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse (the transpose, a DST-III) of ``sine_transform`` along the last axis."""
    n = coeffs.shape[-1]
    sin, cos = _sine_phases(n)
    weights = _sine_scale(n) * coeffs
    weights[..., -1] *= 2.0  # the k = n term is folded into one real FFT entry
    spectrum = np.zeros(coeffs.shape[:-1] + (n + 1,), dtype=complex)
    spectrum[..., 1:] = weights * (sin - 1j * cos)
    return n * np.fft.irfft(spectrum, n=2 * n, axis=-1)[..., :n]


@dataclass(frozen=True)
class PcgResult:
    x: np.ndarray
    iterations: int


def pcg_solve(
    matvec, diagonal: np.ndarray, rhs: np.ndarray, tol: float, max_iters: int
) -> PcgResult:
    """Jacobi-preconditioned conjugate gradients for the SPD operator ``matvec``.

    Converges when the 2-norm residual drops below tol * |rhs|; raises
    SolverFailure on stagnation at max_iters.  The iterates x, r, z and p
    are updated in place, with the same roundings as the textbook updates.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros(n)
    if rhs_norm == 0.0:
        return PcgResult(x=x, iterations=0)
    inv_diag = 1.0 / diagonal
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    scaled = np.empty(n)
    rz = float(np.dot(r, z))
    for k in range(1, max_iters + 1):
        ap = matvec(p)
        denom = float(np.dot(p, ap))
        if denom <= 0.0:
            raise SolverFailure("conjugate gradient hit a non-positive curvature direction")
        alpha = rz / denom
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(ap, alpha, out=scaled)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(np.dot(r, z))
        if math.sqrt(float(np.dot(r, r))) <= tol * rhs_norm:
            return PcgResult(x=x, iterations=k)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverFailure(f"conjugate gradient stagnated after {max_iters} iterations")
