"""The one equation both column inversions reduce to: u + a*ln(u) = c."""

from __future__ import annotations

import math

from .errors import NoConvergence


def newton(a: float, c: float, *, tol: float, max_iter: int = 50) -> tuple[float, int]:
    """Root u > 0 of u + a*ln(u) = c by Halley iteration from u = c - a*ln(c).

    Stops once the step magnitude drops below ``tol`` and returns the root
    together with the number of iterations used.  A Halley step that would
    leave 0 < u < inf (a warm column with a small c overshoots past zero)
    is replaced by a Newton step on ln(u), which keeps u positive.  A
    non-finite iterate, an exhausted budget, a flat slope or an overflow
    raises NoConvergence.
    """
    u = c
    try:
        u = c - a * math.log(c)
        for iteration in range(1, max_iter + 1):
            f = u + a * math.log(u) - c
            s = u + a  # u*f'(u); u*u*f''(u) is -a
            step = 2.0 * f * u * s / (2.0 * s * s + a * f)
            if not 0.0 < u - step < math.inf:
                step = u - u * math.exp(-f / s)
                if not math.isfinite(step):  # u or c is NaN or infinite
                    break
            u -= step
            if abs(step) < tol:
                return u, iteration
    except (ValueError, ZeroDivisionError, OverflowError):  # ln(c <= 0), flat slope, exp overflow
        pass
    raise NoConvergence(
        f"no root of u + a*ln(u) = c for a={a!r}, c={c!r} within {max_iter}"
        f" iterations; last iterate u={u!r}"
    )
