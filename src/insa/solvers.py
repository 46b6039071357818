"""The one equation both column inversions reduce to: u + a*ln(u) = c."""

from __future__ import annotations

from math import exp, inf, isfinite, log, sqrt, ulp

from .errors import NoConvergence

MAX_ITER = 50  # iteration budget of every solve
CUBIC_STOP = 1e-5  # Halley's in-box step stop; derived in newton


def newton(a: float, c: float, *, tol: float) -> tuple[float, int]:
    """Root u > 0 of u + a*ln(u) = c by Halley iteration from u = c - a*ln(c).

    Stops once the step magnitude drops below ``tol`` and returns the root
    together with the number of iterations used.  From the ordinary start
    with |a| <= 0.25 and tol >= 2.34e-15, a step below CUBIC_STOP = 1e-5 at
    u >= 0.5 returns u - step: Halley's next error, about C*|step|**3 with
    C = |a|/(u*u*s)*|1/3 - a/(4*s)| and s = u + a >= 0.25, is then under
    4*(1/3 + 1/4)*1e-15 < 2.34e-15.  The box has |a| <= 0.231, u >= 0.73
    and tol >= 2.2e-14 (the Hp inversion at T_isa_msl = 295.8 K); a warm
    station far below sea level (c < a) has its root under 0.5 and keeps
    the tol rule.  A Halley step that would leave 0 < u < inf (a warm
    column with a small c overshoots past zero) is replaced by a Newton
    step on ln(u), which keeps u positive.  A non-finite iterate, more
    than MAX_ITER iterations, a flat slope or an overflow raises
    NoConvergence.

    Near the double root of a cold column, a < 0 with c - c_min < 1e-3
    where c_min = a*(ln(-a) - 1) is the least value of the left side, the
    slope vanishes and rounding in f = u + a*ln(u) - c keeps the step from
    settling.  There the iteration starts on the physical branch u > -a
    (positive temperature), at u = -a + sqrt(2*(-a)*(c - c_min)) from the
    quadratic expansion about u = -a, and also stops once |f| <= 2*ulp(c),
    as small as f can be resolved; the result is the root on that branch
    to within what one ulp of c allows.  c < c_min has no root and raises.
    """
    u = c
    try:
        if a < 0.0 and (gap := c - a * (log(-a) - 1.0)) < 1e-3:
            u, f_floor, stop = sqrt(2.0 * -a * gap) - a, 2.0 * ulp(c), tol
        else:
            u, f_floor = c - a * log(c), 0.0
            stop = CUBIC_STOP if -0.25 <= a <= 0.25 and 2.34e-15 <= tol < CUBIC_STOP else tol
        for iteration in range(1, MAX_ITER + 1):
            f = u + a * log(u) - c
            if abs(f) <= f_floor:
                return u, iteration
            s = u + a  # u*f'(u); u*u*f''(u) is -a
            step = 2.0 * f * u * s / (2.0 * s * s + a * f)
            if not 0.0 < (v := u - step) < inf:
                step = u - u * exp(-f / s)
                if not isfinite(step):  # u or c is NaN or infinite
                    break
                v = u - step
            if abs(step) < stop and (u >= 0.5 or abs(step) < tol):
                return v, iteration
            u = v
    except (ValueError, ZeroDivisionError, OverflowError):  # ln(c <= 0), flat slope, exp overflow
        pass
    raise NoConvergence(
        f"no root of u + a*ln(u) = c for a={a!r}, c={c!r} within {MAX_ITER}"
        f" iterations; last iterate u={u!r}"
    )
