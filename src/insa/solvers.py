"""The one equation both column inversions reduce to: u + a*ln(u) = c."""

from __future__ import annotations

import math

from .errors import NoConvergence


def newton(a: float, c: float, *, tol: float, max_iter: int = 50) -> tuple[float, int]:
    """Root u > 0 of u + a*ln(u) = c by Halley iteration from u = c - a*ln(c).

    Stops once the step magnitude drops below ``tol`` and returns the root
    together with the number of iterations used.  An iterate that leaves
    u > 0 or turns non-finite, or an exhausted budget, raises NoConvergence.
    """
    u = c
    try:
        u = c - a * math.log(c)
        for iteration in range(1, max_iter + 1):
            f = u + a * math.log(u) - c
            s = u + a  # u*f'(u); u*u*f''(u) is -a
            step = 2.0 * f * u * s / (2.0 * s * s + a * f)
            u -= step
            if abs(step) < tol:
                return u, iteration
            if not math.isfinite(u):
                break
    except (ValueError, ZeroDivisionError):  # ln(u) at u <= 0, or a flat slope
        pass
    raise NoConvergence(
        f"no root of u + a*ln(u) = c for a={a!r}, c={c!r} within {max_iter}"
        f" iterations; last iterate u={u!r}"
    )
