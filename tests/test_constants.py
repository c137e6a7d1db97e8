"""Named constants, bit for bit: each root and series value must be the double
nearest its 50-digit mpmath oracle, and the derived constants must keep the
bits they had when mpmath computed them at 53-bit precision.
"""
import math
from fractions import Fraction

import mpmath
import pytest

from minklat import constants
from minklat.constants import (
    CATALAN,
    ERDOS_TURAN_DEFAULT,
    ERDOS_TURAN_GANELIUS,
    PLASTIC_NUMBER,
    SEXTIC_UNIT_ROOT,
)
from minklat.intpoly import IntPolynomial


@pytest.mark.parametrize("value, f, x0", [
    (PLASTIC_NUMBER, lambda x: x**3 - x - 1, "1.3"),
    (SEXTIC_UNIT_ROOT, lambda x: x**6 + x**2 - 1, "0.8"),
], ids=["plastic", "sextic"])
def test_root_is_correctly_rounded(value, f, x0):
    with mpmath.workdps(50):
        assert value == float(mpmath.findroot(f, mpmath.mpf(x0)))


def test_catalan_is_correctly_rounded():
    with mpmath.workdps(50):
        assert CATALAN == float(mpmath.catalan)


def test_ganelius_keeps_its_53_bit_mpmath_value():
    with mpmath.workprec(53):
        assert ERDOS_TURAN_GANELIUS == float(mpmath.sqrt(2 * mpmath.pi / mpmath.catalan))


def test_erdos_turan_default_is_ganelius_rounded_up():
    assert ERDOS_TURAN_DEFAULT == 2.61909


def test_real_root_either_sign_at_the_lower_end():
    for coeffs in [(-2, 0, 1), (2, 0, -1)]:
        root = constants._real_root(IntPolynomial(coeffs), 1, 2)
        assert root.hex() == math.sqrt(2).hex()


def test_real_root_rejects_a_bracket_that_does_not_isolate_a_root():
    # x^2 - 2 has roots -sqrt(2) and sqrt(2): (-2, 2] holds both, (2, 3] none
    for lo, hi in [(-2, 2), (2, 3)]:
        with pytest.raises(ArithmeticError):
            constants._real_root(IntPolynomial((-2, 0, 1)), lo, hi)
    # (x - 1)(x - 3) vanishes at the lower end 1 as well as inside (1, 3]
    with pytest.raises(ArithmeticError):
        constants._real_root(IntPolynomial((3, -4, 1)), 1, 3)


def test_round_once_refuses_an_interval_across_a_rounding_boundary():
    one, ulp = Fraction(1), Fraction(1, 2 ** 52)
    assert constants._round_once(one, one + ulp / 4) == 1.0
    with pytest.raises(ArithmeticError):
        constants._round_once(one, one + ulp)
