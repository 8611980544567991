"""Deterministic linear solvers for the implicit sub-steps.

1D systems are tridiagonal and go through a banded direct solve; 2D systems
are SPD (after symmetrization in the caller) and go through conjugate
gradients with Jacobi preconditioning.  Both paths use fixed iteration and
accumulation orders: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverFailure

#: direct-solve residual must stay below this times (|rhs| + |solution|)
DIRECT_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class TriDiag:
    """Tridiagonal matrix in per-row coefficient form.

    ``lower[0]`` and ``upper[-1]`` are ignored.  The solver only requires
    nonsingularity (LAPACK pivots internally).
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
    """Direct tridiagonal solve with a residual check.

    Raises SolverFailure on a singular system or an unexpectedly large
    residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    ab = np.zeros((3, m.n))
    ab[0, 1:] = m.upper[:-1]
    ab[1, :] = m.diag
    ab[2, :-1] = m.lower[1:]
    try:
        x = solve_banded((1, 1), ab, rhs, overwrite_ab=False, overwrite_b=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"tridiagonal solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverFailure("tridiagonal solve produced non-finite values")
    resid = float(np.max(np.abs(m.matvec(x) - rhs)))
    scale = float(np.max(np.abs(rhs))) + float(np.max(np.abs(x)))
    if resid > DIRECT_RESIDUAL_TOL * max(scale, 1e-300):
        raise SolverFailure(
            f"tridiagonal residual {resid:.3e} exceeds {DIRECT_RESIDUAL_TOL:.1e} * {scale:.3e}"
        )
    return x


@dataclass
class LinOp:
    """Matrix-free SPD operator: deterministic action plus its diagonal."""

    shape_n: int
    matvec: "callable"
    diagonal: np.ndarray

    def verify_symmetric(self, rel_tol: float = 1e-10, probes: int = 3) -> bool:
        """Probe <Ax, y> == <x, Ay> with a fixed-seed random pair."""
        rng = np.random.default_rng(0)
        for _ in range(probes):
            x = rng.standard_normal(self.shape_n)
            y = rng.standard_normal(self.shape_n)
            ax_y = float(np.dot(self.matvec(x), y))
            x_ay = float(np.dot(x, self.matvec(y)))
            scale = max(abs(ax_y), abs(x_ay), 1e-300)
            if abs(ax_y - x_ay) > rel_tol * scale:
                return False
        return True


@dataclass(frozen=True)
class PcgResult:
    x: np.ndarray
    iterations: int
    residual_norms: tuple[float, ...]  # preconditioned norms sqrt(r' M^-1 r)


def pcg_solve(op: LinOp, rhs: np.ndarray, tol: float, max_iters: int) -> PcgResult:
    """Jacobi-preconditioned conjugate gradients.

    Converges when the 2-norm residual drops below tol * |rhs|; raises
    SolverFailure on stagnation at max_iters.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros(n)
    if rhs_norm == 0.0:
        return PcgResult(x=x, iterations=0, residual_norms=(0.0,))
    inv_diag = 1.0 / op.diagonal
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(np.dot(r, z))
    history = [float(np.sqrt(abs(rz)))]
    for k in range(1, max_iters + 1):
        ap = op.matvec(p)
        denom = float(np.dot(p, ap))
        if denom <= 0.0:
            raise SolverFailure("conjugate gradient hit a non-positive curvature direction")
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        z = inv_diag * r
        rz_new = float(np.dot(r, z))
        history.append(float(np.sqrt(abs(rz_new))))
        if float(np.linalg.norm(r)) <= tol * rhs_norm:
            return PcgResult(x=x, iterations=k, residual_norms=tuple(history))
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    raise SolverFailure(f"conjugate gradient stagnated after {max_iters} iterations")
