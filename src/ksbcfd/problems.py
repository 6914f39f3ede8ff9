"""Built-in chemotaxis experiment definitions.

Each problem packages the domain, the chemotactic sensitivity, analytic
initial data (with closed-form second derivatives of the initial
concentration, needed by the discrete initial condition), and optionally a
manufactured exact solution with its forcing pair.

The manufactured accuracy problem uses

    rho(x, y, t) = c(x, y, t) = (x^2 - x)^2 (y^2 - y)^2 t

on the unit square.  These fields do not satisfy the homogeneous system, so
forcing terms are derived by substituting them into the model

    f_rho = d_t rho - Lap(rho) + lam * div(rho grad c),
    f_c   = d_t c   - Lap(c)   + c - rho,

and frozen here in closed form (a finite-difference residual check in the
test suite guards the transcription).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ProblemSpec",
    "ExactSolution",
    "Forcing",
    "mms_accuracy",
    "global_existence",
    "blowup_supercritical",
    "blowup_center",
    "blowup_corner",
    "PROBLEMS",
    "get_problem",
]


@dataclass(frozen=True)
class ExactSolution:
    rho: Callable  # (x, y, t)
    c: Callable
    c_x: Callable
    c_y: Callable


@dataclass(frozen=True)
class Forcing:
    f_rho: Callable  # (x, y, t)
    f_c: Callable


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    domain: tuple[float, float, float, float]  # (x_lo, x_hi, y_lo, y_hi)
    lam: float
    rho0: Callable  # (x, y)
    c0: Callable
    c0_xx: Callable | None
    c0_yy: Callable | None
    exact: ExactSolution | None = None
    forcing: Forcing | None = None

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("chemotactic sensitivity must be positive")
        if self.exact is not None and self.forcing is None:
            raise ValueError("a manufactured exact solution requires its forcing pair")


def _zero(x, y):
    return np.zeros(np.broadcast(x, y).shape)


# --- manufactured accuracy problem ------------------------------------------


def _poly(x):
    return (x * x - x) ** 2


def _poly_d1(x):
    return 2.0 * (x * x - x) * (2.0 * x - 1.0)


def _poly_d2(x):
    return 12.0 * x * x - 12.0 * x + 2.0


def mms_accuracy() -> ProblemSpec:
    """Smooth manufactured solution on (0,1)^2 with derived forcing."""
    lam = 1.0

    def rho(x, y, t):
        return _poly(x) * _poly(y) * t

    def c_x(x, y, t):
        return _poly_d1(x) * _poly(y) * t

    def c_y(x, y, t):
        return _poly(x) * _poly_d1(y) * t

    def f_rho(x, y, t):
        a, b = _poly(x), _poly(y)
        a1, b1 = _poly_d1(x), _poly_d1(y)
        a2, b2 = _poly_d2(x), _poly_d2(y)
        ab = a * b
        lap = a2 * b + a * b2
        # div(rho grad c) = |grad g|^2 + g Lap g for g = rho = c
        cross = a1 * a1 * b * b + a * a * b1 * b1 + ab * lap
        return ab - t * lap + lam * t * t * cross

    def f_c(x, y, t):
        a, b = _poly(x), _poly(y)
        return a * b - t * (_poly_d2(x) * b + a * _poly_d2(y))

    return ProblemSpec(
        name="mms_accuracy",
        domain=(0.0, 1.0, 0.0, 1.0),
        lam=lam,
        rho0=_zero,
        c0=_zero,
        c0_xx=_zero,
        c0_yy=_zero,
        exact=ExactSolution(rho=rho, c=rho, c_x=c_x, c_y=c_y),
        forcing=Forcing(f_rho=f_rho, f_c=f_c),
    )


# --- Gaussian blow-up studies ------------------------------------------------


def _gaussian(amp, k, x0, y0):
    def f(x, y):
        return amp * np.exp(-k * ((x - x0) ** 2 + (y - y0) ** 2))

    return f


def _gaussian_dd(amp, k, x0, y0, axis):
    """The second derivative of ``_gaussian`` along axis 0 (x) or 1 (y)."""
    def f(x, y):
        r2 = (x - x0) ** 2 + (y - y0) ** 2
        d = x - x0 if axis == 0 else y - y0
        return amp * np.exp(-k * r2) * (4.0 * k * k * d ** 2 - 2.0 * k)

    return f


def _gaussian_problem(name, domain, rho, c=None) -> ProblemSpec:
    """lam = 1 and Gaussian initial data, each (amp, k, x0, y0); the
    concentration is zero when ``c`` is None."""
    if c is None:
        c0 = c0_xx = c0_yy = _zero
    else:
        c0, c0_xx, c0_yy = _gaussian(*c), _gaussian_dd(*c, axis=0), _gaussian_dd(*c, axis=1)
    return ProblemSpec(name=name, domain=domain, lam=1.0, rho0=_gaussian(*rho),
                       c0=c0, c0_xx=c0_xx, c0_yy=c0_yy)


def global_existence() -> ProblemSpec:
    """Subcritical Gaussian (total cell mass ~24.67 < 8 pi): global solution."""
    return _gaussian_problem("global_existence", (0.0, 1.0, 0.0, 1.0),
                             rho=(50.0, 5.0, 0.5, 0.5), c=(25.0, 2.5, 0.5, 0.5))


def blowup_supercritical() -> ProblemSpec:
    """Supercritical Gaussian (total cell mass ~27.23 > 8 pi) on (-1,1)^2."""
    return _gaussian_problem("blowup_supercritical", (-1.0, 1.0, -1.0, 1.0),
                             rho=(130.0, 15.0, 0.0, 0.0), c=(13.0, 2.0, 0.0, 0.0))


def blowup_center() -> ProblemSpec:
    """Concentrated Gaussian blowing up at the center of the unit square."""
    return _gaussian_problem("blowup_center", (0.0, 1.0, 0.0, 1.0),
                             rho=(1000.0, 100.0, 0.5, 0.5), c=(500.0, 50.0, 0.5, 0.5))


def blowup_corner() -> ProblemSpec:
    """Off-center Gaussian on (-0.5,0.5)^2 that blows up at the corner."""
    return _gaussian_problem("blowup_corner", (-0.5, 0.5, -0.5, 0.5),
                             rho=(1000.0, 100.0, 0.15, 0.15))


PROBLEMS: dict[str, Callable[[], ProblemSpec]] = {
    "mms_accuracy": mms_accuracy,
    "global_existence": global_existence,
    "blowup_supercritical": blowup_supercritical,
    "blowup_center": blowup_center,
    "blowup_corner": blowup_corner,
}


def get_problem(name: str) -> ProblemSpec:
    try:
        factory = PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise ValueError(f"unknown problem {name!r}; known problems: {known}") from None
    return factory()
