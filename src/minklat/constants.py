"""Named numerical constants, each computed at import time from its defining
equation.  Nothing here is a hard-coded decimal literal; tests pin the printed
digits instead.
"""
import math

import mpmath

from .intpoly import _horner_with_derivative


def _newton_real_root(coeffs, x0, iterations=80):
    """Real root of a polynomial (constant term first) by Newton from x0.

    Plain float arithmetic; the callers only need full double precision and
    supply starting points inside the basin of the intended simple root.
    """
    x = x0
    for _ in range(iterations):
        p, dp = _horner_with_derivative(coeffs, x)
        step = p / dp
        x -= step
        if abs(step) <= 1e-17 * (1.0 + abs(x)):
            break
    return x


# Plastic number: the real root of x^3 - x - 1.
PLASTIC_NUMBER = _newton_real_root([-1.0, -1.0, 0.0, 1.0], 1.3)

# Squared size of the inverse plastic number (a root of x^3 + x^2 - 1):
# its real conjugate squared plus the squared modulus of its complex pair.
INVERSE_PLASTIC_SQUARE_SIZE = PLASTIC_NUMBER + PLASTIC_NUMBER ** -2

# Positive real root of x^6 + x^2 - 1.
SEXTIC_UNIT_ROOT = _newton_real_root([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], 0.8)

# Smallest normalized square size among sextic fields of signature (2, 2).
SEXTIC_MIN_M = (SEXTIC_UNIT_ROOT ** 2 + 1.0 / SEXTIC_UNIT_ROOT) / 2.0

# Argmin of y -> 2^y / (1 + y) on (0, 1): where the signature lower bound
# is smallest over the normalized real-embedding fraction y = s/n.
SIGNATURE_BOUND_ARGMIN = 1.0 / math.log(2.0) - 1.0

# Universal floor for the normalized square size of a nonzero algebraic
# integer: (e log 2) / 2, the value of 2^y/(1+y) at its argmin.
UNIVERSAL_M_FLOOR = math.e * math.log(2.0) / 2.0

# Ganelius's sharpening of the Erdos-Turan constant: sqrt(2*pi / G) with G
# Catalan's constant.
ERDOS_TURAN_GANELIUS = float(mpmath.sqrt(2 * mpmath.pi / mpmath.catalan))

# The same constant rounded up in the sixth decimal, the default used by the
# equidistribution check so that the certified inequality is not weakened by
# the decimal truncation.
ERDOS_TURAN_DEFAULT = math.ceil(ERDOS_TURAN_GANELIUS * 1e6) / 1e6

# Classical Erdos-Turan constant.
ERDOS_TURAN_CLASSICAL = 16.0
