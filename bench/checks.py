"""Correctness checks on the files a workload writes, made apart from ksbcfd.

Every reference here comes from outside the program: the grid formulas the
README states, closed-form integrals of the initial Gaussians, the paper's
published error table, and properties the scheme must have (mass
conservation, second-order convergence, a corner blow-up that halts on its
threshold).  None compares against a stored copy of the program's output.
Each check raises ``CheckError`` with the reason when its input fails it.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """A workload's output failed a correctness check."""


# Published uniform-grid errors (rho, c, grad c) of the manufactured accuracy
# test, t_final = 1, tau = 1/M.  For M = 160 the paper gives rho only.
PUBLISHED_UNIFORM = {
    10: (3.30e-4, 3.34e-4, 4.73e-5),
    20: (8.30e-5, 8.36e-5, 1.18e-5),
    40: (2.07e-5, 2.09e-5, 2.97e-6),
    80: (5.20e-6, 5.23e-6, 7.42e-7),
    160: (1.30e-6, None, None),
}
ERROR_FACTOR = 2.0
ORDER_RANGE = (1.9, 2.1)
ORDER_FROM_M = 40
MASS_DRIFT_TOL = 1e-9
U_MIN_FLOOR = -1e-8
SNAPSHOT_MASS_TOL = 1e-12


def primal_points(family: str, n: int, lo: float, hi: float) -> np.ndarray:
    """Cell faces of one axis, from the formulas the README states."""
    if family == "uniform":
        s = np.arange(n + 1) / n
    elif family == "corner":  # 1/2 - (i/n)^1.5 on (-1/2, 1/2), refined toward +1/2
        s = 1.0 - (np.arange(n, -1, -1) / n) ** 1.5
    else:
        raise ValueError(f"no reference formula for grid family {family!r}")
    return lo + (hi - lo) * s


def gaussian_mass(amp: float, k: float, x0: float, y0: float, domain) -> float:
    """Closed-form integral of amp * exp(-k r^2) over the rectangle."""
    x_lo, x_hi, y_lo, y_hi = domain
    r = math.sqrt(k)

    def axis(lo, hi, c):
        return math.sqrt(math.pi / k) / 2.0 * (math.erf(r * (hi - c)) - math.erf(r * (lo - c)))

    return amp * axis(x_lo, x_hi, x0) * axis(y_lo, y_hi, y0)


def check_initial_mass(mass: float, amp: float, k: float, x0: float, y0: float,
                       domain, h_max: float) -> None:
    """The discrete mass of the sampled Gaussian against its exact integral.

    The midpoint rule errs by at most (h^2 / 24) * integral |Lap f|, and for
    f = amp exp(-k r^2) that integral is at most 8 k times the mass of f on
    the whole plane.
    """
    exact = gaussian_mass(amp, k, x0, y0, domain)
    bound = h_max**2 / 24.0 * 8.0 * k * (amp * math.pi / k) / exact
    rel = abs(mass - exact) / exact
    if not rel <= bound:
        raise CheckError(f"initial mass {mass!r} is {rel:.3e} from the exact integral "
                         f"{exact!r}, above the midpoint-rule bound {bound:.3e}")


def check_mass_drift(masses, tol: float = MASS_DRIFT_TOL) -> float:
    """Relative drift of the discrete mass over the run; returns it."""
    masses = np.asarray(masses, dtype=float)
    drift = float(np.max(np.abs(masses - masses[0])) / abs(masses[0]))
    if not drift <= tol:
        raise CheckError(f"relative mass drift {drift:.3e} exceeds {tol:.0e}")
    return drift


def check_rise_then_decay(u_max) -> None:
    """The density peak rises from its start and then decays (subcritical)."""
    u_max = np.asarray(u_max, dtype=float)
    peak = int(np.argmax(u_max))
    if not (0 < peak < len(u_max) - 1 and u_max[peak] > u_max[0] and u_max[-1] < u_max[peak]):
        raise CheckError(f"u_max does not rise and then decay (peak at row {peak} of {len(u_max)})")


def check_positivity(u_min, floor: float = U_MIN_FLOOR) -> None:
    low = float(np.min(u_min))
    if not low >= floor:
        raise CheckError(f"u_min reaches {low:.3e}, below {floor:.0e}")


def check_snapshot_mass(values: np.ndarray, widths_x: np.ndarray, widths_y: np.ndarray,
                        expected: float, tol: float = SNAPSHOT_MASS_TOL) -> None:
    """Area-weighted sum of a density snapshot, ``values[i, j]``, against a mass."""
    mass = float(np.sum(np.outer(widths_x, widths_y) * values))
    rel = abs(mass - expected) / abs(expected)
    if not rel <= tol:
        raise CheckError(f"snapshot mass {mass!r} differs from {expected!r} by {rel:.3e} "
                         f"relative (allowed {tol:.0e})")


def check_corner_halt(blew_up: bool, t, u_max, argmax_last, shape) -> float:
    """The corner run halts on its threshold, having first passed 1e4 at
    t in [0.13, 0.18], with its final peak within 2 cells of the (+1/2, +1/2)
    corner.  Returns the crossing time."""
    if not blew_up:
        raise CheckError("the corner run did not halt on its blow-up threshold")
    crossing = [ti for ti, u in zip(t, u_max) if u > 1e4]
    if not crossing or not 0.13 <= crossing[0] <= 0.18:
        raise CheckError(f"u_max first exceeds 1e4 at t={crossing[0] if crossing else None}, "
                         "outside [0.13, 0.18]")
    i, j = argmax_last
    nx, ny = shape
    if not (i >= nx - 3 and j >= ny - 3):
        raise CheckError(f"final argmax {(i, j)} is not within 2 cells of the corner of {shape}")
    return crossing[0]


def observed_order(e_coarse: float, e_fine: float, m_coarse: int, m_fine: int) -> float:
    return math.log(e_coarse / e_fine) / math.log(m_fine / m_coarse)


def check_sweep(rows: list[dict]) -> None:
    """Errors within a factor 2 of the published table wherever it has a
    value, and observed orders, recomputed from the errors, in [1.9, 2.1]
    from M = 40 on.  Rows are dicts with m, e_rho, e_c, e_gradc."""
    keys = ("e_rho", "e_c", "e_gradc")
    for row in rows:
        for key, want in zip(keys, PUBLISHED_UNIFORM.get(row["m"], ())):
            got = row[key]
            if want is not None and not want / ERROR_FACTOR <= got <= want * ERROR_FACTOR:
                raise CheckError(f"M={row['m']} {key}={got:.3e} is not within a factor "
                                 f"{ERROR_FACTOR:g} of the published {want:.2e}")
    for prev, row in zip(rows, rows[1:]):
        if row["m"] < ORDER_FROM_M:
            continue
        for key in keys:
            order = observed_order(prev[key], row[key], prev["m"], row["m"])
            lo, hi = ORDER_RANGE
            if not lo <= order <= hi:
                raise CheckError(f"M={row['m']} observed {key} order {order:.3f} "
                                 f"outside [{lo}, {hi}]")
