"""Constitutive functions, physical constants, and structural hypotheses.

The four rate functions (growth G, transitions K1/K2, nutrient consumption
psi) are shipped as three parametric presets:

  * ``linear``:      f(d) = alpha * d
  * ``saturating``:  f(d) = alpha * d / (beta + d)
  * ``constant``:    f(d) = alpha

All presets are monotone, so maxima over [0, L] sit at an endpoint; the
dense-sampling maximization below is therefore exact up to grid resolution
and a small safety inflation is applied wherever the growth ceiling enters a
bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid

PRESETS = ("linear", "saturating", "constant")

#: number of sample points used to maximize rates over [0, L]
RATE_SAMPLES = 10_000

#: relative headroom applied where the growth ceiling enters a bound check
BOUND_INFLATION = 1e-6


@dataclass(frozen=True)
class RateFunction:
    """One named rate preset with its numeric parameters."""

    kind: str
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in PRESETS:
            raise ConfigError([f"unknown rate preset '{self.kind}'"])
        if self.kind == "saturating" and not (self.beta > 0.0):
            raise ConfigError([f"saturating preset needs beta > 0, got {self.beta}"])

    def __call__(self, d):
        d = np.asarray(d, dtype=float)
        if self.kind == "linear":
            out = self.alpha * d
        elif self.kind == "saturating":
            out = self.alpha * d / (self.beta + d)
        else:
            out = np.full_like(d, self.alpha)
        if d.ndim == 0:
            return float(out)
        return out

    @property
    def is_zero(self) -> bool:
        return self.alpha == 0.0

    def critical_level(self, a: float) -> float:
        """Smallest d > 0 with f(d) = a, or nan if none exists.

        Used for the consumption rate: the critical nutrient concentration
        is where consumption balances the autophagic supply rate.
        """
        if self.kind == "linear":
            if self.alpha > 0.0:
                return a / self.alpha
            return math.nan
        if self.kind == "saturating":
            if self.alpha > a:
                return a * self.beta / (self.alpha - a)
            return math.nan
        return math.nan


@dataclass(frozen=True)
class RateFunctions:
    """The full rate table G, K1, K2, psi."""

    G: RateFunction
    K1: RateFunction
    K2: RateFunction
    psi: RateFunction


def eval_rates(rates: RateFunctions, d):
    """Evaluate (G, K1, K2, psi) at nutrient level(s) d.

    Raises ConfigError if any value comes out non-finite.
    """
    out = (rates.G(d), rates.K1(d), rates.K2(d), rates.psi(d))
    for name, val in zip(("G", "K1", "K2", "psi"), out):
        if not np.all(np.isfinite(val)):
            raise ConfigError([f"rate {name} evaluated to a non-finite value"])
    return out


@dataclass(frozen=True)
class ModelParams:
    """All physical and constitutive data for one run."""

    rates: RateFunctions
    D: float = 1.0          # extra death rate of autophagic cells
    a: float = 1.0          # nutrient supply rate of autophagic cells
    b: float = 1.0          # nutrient time constant
    gamma: float = 5.0      # pressure exponent, p = n^gamma
    eps_reg: float = 0.0    # viscosity of the regularized scheme (0 = off)
    ell_cut: float = 0.0    # cutoff level (0 = derive automatically)
    d_b: float = 1.0        # boundary nutrient value
    T_final: float = 1.0

    def validate(self) -> list[str]:
        errors = []
        if not (self.D > 0.0):
            errors.append(f"D must be positive, got {self.D}")
        if not (self.a > 0.0):
            errors.append(f"a must be positive, got {self.a}")
        if not (self.b > 0.0):
            errors.append(f"b must be positive, got {self.b}")
        if not (self.gamma >= 1.0):
            errors.append(f"gamma must be >= 1, got {self.gamma}")
        if self.eps_reg < 0.0:
            errors.append(f"eps_reg must be >= 0, got {self.eps_reg}")
        if self.ell_cut < 0.0:
            errors.append(f"ell_cut must be >= 0, got {self.ell_cut}")
        if self.d_b < 0.0:
            errors.append(f"d_b must be >= 0, got {self.d_b}")
        if self.T_final < 0.0:
            errors.append(f"T_final must be >= 0, got {self.T_final}")
        return errors


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from the data: nutrient ceiling and rate bounds."""

    L: float        # nutrient ceiling max(d_b, max d0, d_crit)
    G0: float       # max of G over [0, L]
    M0: float       # max of |G| and |G - D| over [0, L]
    d_crit: float   # critical nutrient concentration, psi(d_crit) = a
    K1_max: float   # max of K1 over [0, L]
    K2_max: float   # max of K2 over [0, L]


def _sample_levels(L: float) -> np.ndarray:
    # dense uniform sampling with exact endpoints; presets are monotone so
    # the endpoint values already realize the max, the interior samples are
    # insurance against future non-monotone presets
    if L <= 0.0:
        return np.array([0.0])
    return np.linspace(0.0, L, RATE_SAMPLES)


def derive_constants(params: ModelParams, d0: np.ndarray) -> DerivedConstants:
    """Compute L, G0, M0 and the transition-rate bounds for one run."""
    d_crit = params.rates.psi.critical_level(params.a)
    if not math.isfinite(d_crit):
        raise ConfigError(
            ["psi never reaches the supply rate a: no critical concentration; "
             "use a linear psi, or a saturating psi with alpha > a"]
        )
    L = max(params.d_b, float(d0.max()), d_crit)
    s = _sample_levels(L)
    g = np.asarray(params.rates.G(s), dtype=float)
    G0 = float(g.max())
    M0 = float(max(np.abs(g).max(), np.abs(g - params.D).max()))
    K1_max = float(np.asarray(params.rates.K1(s), dtype=float).max())
    K2_max = float(np.asarray(params.rates.K2(s), dtype=float).max())
    return DerivedConstants(L=L, G0=G0, M0=M0, d_crit=d_crit, K1_max=K1_max, K2_max=K2_max)


def validate_rates(params: ModelParams, consts: DerivedConstants) -> list[str]:
    """Check the structural hypotheses of the rate table on [0, L]."""
    errors = []
    s = _sample_levels(consts.L)
    _, k1, k2, psi = eval_rates(params.rates, s)
    if np.min(k1) < 0.0:
        errors.append("K1 is negative somewhere on [0, L]")
    if np.min(k2) < 0.0:
        errors.append("K2 is negative somewhere on [0, L]")
    psi0 = params.rates.psi(0.0)
    if psi0 != 0.0:
        errors.append(f"psi(0) must be 0, got {psi0}")
    if np.any(np.diff(np.asarray(psi)) < -1e-15):
        errors.append("psi must be nondecreasing on [0, L]")
    return errors


def cutoff(s, ell: float):
    """Clamp to the band [0, ell]; Lipschitz-1, idempotent, monotone."""
    if not (ell > 0.0):
        raise ValueError(f"cutoff level must be positive, got {ell}")
    arr = np.asarray(s, dtype=float)
    out = np.minimum(np.maximum(arr, 0.0), ell)  # np.clip does the same, slower
    if arr.ndim == 0:
        return float(out)
    return out


def check_h7(grid: Grid, n0: np.ndarray, sigma: float, G0: float, T: float) -> tuple[bool, float]:
    """Initial-mass smallness hypothesis behind the stiff-limit estimates.

    Measures the superlevel set {n0 >= sigma} of the cell values n0 on
    ``grid`` and compares it to |Omega| / (e^{G0 T} * max n0).  Returns (passed, ratio) where ratio is
    measured / allowed; ratio <= 1 passes.  sigma must lie in (0, e^{-G0 T}).
    """
    if not (0.0 < sigma < math.exp(-G0 * T)):
        raise ValueError(
            f"sigma must lie in (0, e^(-G0*T)) = (0, {math.exp(-G0 * T):.6g}), got {sigma}"
        )
    vol = grid.cell_volume
    measured = float(np.count_nonzero(n0 >= sigma)) * vol
    if measured == 0.0:
        return True, 0.0
    # some cell has n0 >= sigma > 0, so max n0 > 0
    allowed = grid.num_cells * vol / (math.exp(G0 * T) * float(n0.max()))
    ratio = measured / allowed
    return ratio <= 1.0, ratio
