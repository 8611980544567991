"""Constitutive functions, physical constants, and structural hypotheses.

The four rate functions (growth G, transitions K1/K2, nutrient consumption
psi) are shipped as three parametric presets:

  * ``linear``:      f(d) = alpha * d
  * ``saturating``:  f(d) = alpha * d / (beta + d)
  * ``constant``:    f(d) = alpha

All presets are monotone, so maxima over [0, L] sit at an endpoint, and
``derive_constants`` evaluates each rate at d = 0 and d = L only; a small
safety inflation is applied wherever the growth ceiling enters a bound
check.  The structural hypotheses on the rates (K1, K2 >= 0, psi
nondecreasing with psi(0) = 0) are guaranteed by the config schema, which
admits only nonnegative transition rates, positive psi slopes and betas, and
finite numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid

PRESETS = ("linear", "saturating", "constant")

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


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from the data: nutrient ceiling and rate bounds."""

    L: float        # nutrient ceiling max(d_b, max d0, d_crit)
    G0: float       # max of G over [0, L]
    M0: float       # max of |G| and |G - D| over [0, L]
    d_crit: float   # critical nutrient concentration, psi(d_crit) = a
    K1_max: float   # max of K1 over [0, L]
    K2_max: float   # max of K2 over [0, L]


def derive_constants(params: ModelParams, d0: np.ndarray) -> DerivedConstants:
    """Compute L, G0, M0 and the transition-rate bounds for one run.

    The presets are monotone, so every maximum over [0, L] is taken over
    the values at the two endpoints.  Raises ConfigError if G, K1, K2, psi
    or the net rate G - D is non-finite there, or if psi never reaches the
    supply rate a, or reaches it only at a level that overflows.
    """
    d_crit = params.rates.psi.critical_level(params.a)
    if math.isinf(d_crit):
        raise ConfigError(
            [f"the critical concentration, where psi reaches the supply rate a = {params.a!r}, "
             "overflows: it exceeds the largest float"]
        )
    if math.isnan(d_crit):
        raise ConfigError(
            ["psi never reaches the supply rate a: no critical concentration; "
             "use a linear psi, or a saturating psi with alpha > a"]
        )
    L = max(params.d_b, float(d0.max()), d_crit)
    with np.errstate(over="ignore"):
        ends = {name: getattr(params.rates, name)(np.array([0.0, L]))
                for name in ("G", "K1", "K2", "psi")}
        ends["G - D"] = ends["G"] - params.D
    for name, values in ends.items():
        if not np.all(np.isfinite(values)):
            raise ConfigError([f"rate {name} is not finite on [0, L] = [0, {L!r}]"])
    G0 = float(ends["G"].max())
    M0 = float(max(np.abs(ends["G"]).max(), np.abs(ends["G - D"]).max()))
    K1_max = float(ends["K1"].max())
    K2_max = float(ends["K2"].max())
    return DerivedConstants(L=L, G0=G0, M0=M0, d_crit=d_crit, K1_max=K1_max, K2_max=K2_max)


def cutoff(s, ell: float):
    """Clamp to the band [0, ell]; Lipschitz-1, idempotent, monotone."""
    if not (ell > 0.0):
        raise ValueError(f"cutoff level must be positive, got {ell}")
    arr = np.asarray(s, dtype=float)
    out = np.minimum(np.maximum(arr, 0.0), ell)  # np.clip does the same, slower
    if arr.ndim == 0:
        return float(out)
    return out


def saturating_exp(x: float) -> float:
    """e^x of every e^(rate t) bound factor: ``math.exp(x)``, or inf where that overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def check_h7(grid: Grid, n0: np.ndarray, sigma: float, G0: float, T: float) -> tuple[bool, float]:
    """Initial-mass smallness hypothesis behind the stiff-limit estimates.

    Measures the superlevel set {n0 >= sigma} of the cell values n0 on
    ``grid`` and compares it to |Omega| / (e^{G0 T} * max n0).  Returns (passed, ratio) where ratio is
    measured / allowed; ratio <= 1 passes.  sigma must lie in (0, e^{-G0 T}).
    An allowance that underflows to 0 fails with ratio inf; an infinite one passes with ratio 0.
    """
    sigma_max = saturating_exp(-G0 * T)
    if not (0.0 < sigma < sigma_max):
        raise ValueError(f"sigma must lie in (0, e^(-G0*T)) = (0, {sigma_max:.6g}), got {sigma}")
    vol = grid.cell_volume
    measured = float(np.count_nonzero(n0 >= sigma)) * vol
    if measured == 0.0:
        return True, 0.0
    scale = saturating_exp(G0 * T) * float(n0.max())
    allowed = grid.num_cells * vol / scale if scale > 0.0 else math.inf
    ratio = measured / allowed if allowed > 0.0 else math.inf
    return ratio <= 1.0, ratio
