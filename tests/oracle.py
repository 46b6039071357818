"""A 40-digit decimal oracle for the column solve u + a*ln(u) = c.

Standard library only (``decimal``).  Each float input converts to a
Decimal exactly, so the oracle grades the package's arithmetic on the
very inputs it was given; the paper's constants enter as their float
values, except the exponent g0/(betaT*R), which is formed here.
"""

from decimal import Decimal, localcontext

from insa.constants import BETA_T_BELOW, G0, P0, R_AIR, T0

DIGITS = 40


def root(a, c):
    """The root u > max(0, -a) of u + a*ln(u) = c, by Newton from c - a*ln(c).

    Used inside the validity box, where the start lies on the root's
    branch and the slope (u + a)/u stays away from zero.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a, c = Decimal(a), Decimal(c)
        u = c - a * c.ln()
        for _ in range(100):
            step = (u + a * u.ln() - c) * u / (u + a)
            u -= step
            if abs(step) <= u.scaleb(-DIGITS + 2):
                return +u
    raise ArithmeticError(f"no decimal root for a={a}, c={c}")


def hp_below(H, delta_T, delta_p):
    """Pressure altitude at tropospheric geopotential H, anchors included."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        beta, t0 = Decimal(BETA_T_BELOW), Decimal(T0)
        gbr = Decimal(G0) / (-beta * Decimal(R_AIR))
        p_ratio = (Decimal(P0) + Decimal(delta_p)) / Decimal(P0)
        hp_msl = t0 / beta * (p_ratio ** (1 / gbr) - 1)
        t = t0 + beta * hp_msl  # T_isa_msl
        u = root(Decimal(delta_T) / t, 1 + beta * Decimal(H) / t)
        return hp_msl + t / beta * (u - 1)


def tisa_msl(T_isa, H, delta_T):
    """Mean sea level standard temperature of the column through (T_isa, H)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        T_isa = Decimal(T_isa)
        w = root(Decimal(delta_T) / T_isa, 1 - Decimal(BETA_T_BELOW) * Decimal(H) / T_isa)
        return w * T_isa
