"""Named numerical constants, each computed at import time from its defining
equation: roots and series exactly, in integers and rationals, rounded once to
the nearest double.  Nothing here is a hard-coded decimal literal; tests pin
the printed digits instead."""
import math
from fractions import Fraction

from .intpoly import IntPolynomial, _horner, sturm_real_count


def _round_once(lower, upper):
    """The double nearest every number in [lower, upper], if both ends round to it."""
    if float(lower) != float(upper):
        raise ArithmeticError(f"[{lower}, {upper}] straddles a rounding boundary")
    return float(upper)


def _real_root(p, lo, hi):
    """The one root of p in the integer bracket (lo, hi], correctly rounded:
    Sturm's count certifies it, and bisection on the integers 2^(nK) p(x / 2^K),
    K = 80, narrows the bracket to width 2^-K."""
    if _horner(p.coefficients, lo) == 0 or sturm_real_count(p, (lo, hi)) != 1:
        raise ArithmeticError(f"({lo}, {hi}] does not isolate a root of {p}")
    k, n = 80, p.degree
    scaled = [c << (n - i) * k for i, c in enumerate(p.coefficients)]
    lo, hi = lo << k, hi << k
    lo_negative = _horner(scaled, lo) < 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if (_horner(scaled, mid) < 0) == lo_negative else (lo, mid)
    return _round_once(Fraction(lo, 1 << k), Fraction(hi, 1 << k))


def _catalan():
    """Catalan's constant from Broadhurst's BBP-type series (arXiv:math/9803067):
    u and v have absolute sums under 2, so term k is under 8 * 16^-k and the
    terms after the 20 summed here add up to less than 16^-19."""
    total = 0
    for k in range(20):
        x = [Fraction(1, (8 * k + j) ** 2) if j % 4 else 0 for j in range(8)]
        u = x[1] / 2 - x[2] / 2 + x[3] / 4 - x[5] / 8 + x[6] / 8 - x[7] / 16
        v = x[1] / 8 + x[2] / 16 + x[3] / 64 - x[5] / 512 - x[6] / 1024 - x[7] / 4096
        total += 3 * u / 16 ** k - 2 * v / 4096 ** k
    return _round_once(total - Fraction(1, 16 ** 19), total + Fraction(1, 16 ** 19))


# Plastic number: the real root of x^3 - x - 1.
PLASTIC_NUMBER = _real_root(IntPolynomial((-1, -1, 0, 1)), 1, 2)

# Squared size of the inverse plastic number (a root of x^3 + x^2 - 1):
# its real conjugate squared plus the squared modulus of its complex pair.
INVERSE_PLASTIC_SQUARE_SIZE = PLASTIC_NUMBER + PLASTIC_NUMBER ** -2

# Positive real root of x^6 + x^2 - 1.
SEXTIC_UNIT_ROOT = _real_root(IntPolynomial((-1, 0, 1, 0, 0, 0, 1)), 0, 1)

# Smallest normalized square size among sextic fields of signature (2, 2).
SEXTIC_MIN_M = (SEXTIC_UNIT_ROOT ** 2 + 1.0 / SEXTIC_UNIT_ROOT) / 2.0

# Argmin of y -> 2^y / (1 + y) on (0, 1): where the signature lower bound
# is smallest over the normalized real-embedding fraction y = s/n.
SIGNATURE_BOUND_ARGMIN = 1.0 / math.log(2.0) - 1.0

# Universal floor for the normalized square size of a nonzero algebraic
# integer: (e log 2) / 2, the value of 2^y/(1+y) at its argmin.
UNIVERSAL_M_FLOOR = math.e * math.log(2.0) / 2.0

# Catalan's constant G = 1 - 1/3^2 + 1/5^2 - 1/7^2 + ..., and Ganelius's
# sharpening of the Erdos-Turan constant, sqrt(2*pi / G).
CATALAN = _catalan()
ERDOS_TURAN_GANELIUS = math.sqrt(2 * math.pi / CATALAN)

# The same constant rounded up in the sixth decimal, the default used by the
# equidistribution check so that the certified inequality is not weakened by
# the decimal truncation.
ERDOS_TURAN_DEFAULT = math.ceil(ERDOS_TURAN_GANELIUS * 1e6) / 1e6

# Classical Erdos-Turan constant.
ERDOS_TURAN_CLASSICAL = 16.0
