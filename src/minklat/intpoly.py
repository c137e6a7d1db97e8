"""Exact integer polynomial arithmetic.

Coefficients are arbitrary-precision Python integers, stored constant term
first.  Everything downstream (signatures, discriminants, search filters)
leans on the exactness of this module: there is no floating fallback in the
Sturm or resultant paths.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

import mpmath

Exact = Union[int, Fraction]


# -- coefficient-list kernels ----------------------------------------------------

def _horner(coeffs: Sequence, x):
    """p(x) for coefficients given constant term first.

    Generic over any x that multiplies and adds with the coefficients: int,
    Fraction, float, complex, numpy arrays and mpmath numbers. The
    accumulator starts at the integer 0, so int and Fraction input stays exact.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _horner_with_derivative(coeffs: Sequence, x):
    """(p(x), p'(x)) in one pass, as generic as _horner."""
    p = dp = 0
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _poly_mul(a: Sequence, b: Sequence, zero=0) -> list:
    """Product of coefficient lists given constant term first.

    As generic as _horner; zero terms on either side are skipped. Every
    term starts at ``zero``, so Fraction input with ``zero=Fraction(0)``
    gives a list of Fractions only.
    """
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _content_list(cs: Sequence[int]) -> int:
    """gcd of the integers in cs; 0 when all are zero."""
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


class IntPolynomial:
    """Immutable integer polynomial; ``coefficients[i]`` multiplies x^i."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            return 0
        return self.coefficients[-1]

    @property
    def constant_term(self) -> int:
        if self.is_zero:
            return 0
        return self.coefficients[0]

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def content(self) -> int:
        return _content_list(self.coefficients)

    def primitive_part(self) -> "IntPolynomial":
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial(c // g for c in self.coefficients)

    def normalized(self) -> "IntPolynomial":
        """Primitive part with a positive leading coefficient: the one
        canonical form of a factor over Q."""
        p = self.primitive_part()
        return -p if p.leading_coefficient < 0 else p

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coefficients)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_poly_mul(self.coefficients, other.coefficients))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coefficients) if i > 0)

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction input, float/complex otherwise."""
        if self.is_zero:
            return 0 if isinstance(x, (int, Fraction)) else 0.0
        return _horner(self.coefficients, x)

    def __call__(self, x):
        return self.evaluate(x)

    # -- transforms --------------------------------------------------------

    def reciprocal(self) -> "IntPolynomial":
        """x^deg * p(1/x), normalized to a positive leading coefficient."""
        if self.is_zero or self.constant_term == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        rev = list(reversed(self.coefficients))
        if rev[-1] < 0:
            rev = [-c for c in rev]
        return IntPolynomial(rev)

    def negate_variable(self) -> "IntPolynomial":
        """p(-x), normalized to a positive leading coefficient."""
        out = [c if i % 2 == 0 else -c for i, c in enumerate(self.coefficients)]
        if out and out[-1] < 0:
            out = [-c for c in out]
        return IntPolynomial(out)

    # -- formatting --------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPolynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Compact human form, e.g. ``x^3-x-1``."""
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append(sign + body)
        return "".join(parts)

    def to_coeff_text(self) -> str:
        """Comma-separated coefficients, constant term first, e.g. ``-1,-1,0,1``."""
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coefficients)


# One term of an expression: an optional sign, then a coefficient, x, or a
# coefficient times x, with an optional power written ^ or **. Whitespace may
# sit between these tokens, never inside a number.
_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+)(?:\s*\*?\s*(?P<var1>x)(?:\s*(?:\^|\*\*)\s*(?P<exp1>\d+))?)?
          | (?P<var2>x)(?:\s*(?:\^|\*\*)\s*(?P<exp2>\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse either a comma list (constant first) or a human form like x^3-x-1.

    In the human form every term after the first starts with + or -, so
    juxtaposed terms such as ``1 2x`` or ``x2`` are rejected, and so is a
    written leading term whose coefficients sum to zero (``x-x+1``). A comma
    list whose last (leading) entry is 0, such as ``1,0`` or ``0``, is
    rejected the same way.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if "," in s or re.fullmatch(r"[+-]?\d+", s):
        try:
            ints = [int(part) for part in s.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad coefficient list: {text!r}") from exc
        if ints[-1] == 0:
            raise ValueError(f"leading coefficient must be nonzero: {text!r}")
        return IntPolynomial(ints)
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (pos and not m.group("sign")):
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("var1") is not None:
            deg, mag = int(m.group("exp1") or 1), int(m.group("coef"))
        elif m.group("coef") is not None:
            deg, mag = 0, int(m.group("coef"))
        else:
            deg, mag = int(m.group("exp2") or 1), 1
        coeffs[deg] = coeffs.get(deg, 0) + sign * mag
        pos = m.end()
    if coeffs[max(coeffs)] == 0:
        raise ValueError(f"leading coefficient must be nonzero: {text!r}")
    return IntPolynomial(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


# -- exact division ---------------------------------------------------------

def divmod_exact(num: IntPolynomial, den: IntPolynomial):
    """Quotient and remainder over Q, as Fraction coefficient lists."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in num.coefficients]
    d = den.degree
    lead = Fraction(den.leading_coefficient)
    q = [Fraction(0)] * max(len(r) - d, 0)
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k] / lead
        if c:
            q[k - d] = c
            for i, dc in enumerate(den.coefficients):
                r[k - d + i] -= c * dc
    while r and r[-1] == 0:
        r.pop()
    return q, r


def try_divide(num: IntPolynomial, den: IntPolynomial) -> Optional[IntPolynomial]:
    """num / den when the division is exact with integer quotient, else None."""
    q, r = divmod_exact(num, den)
    if r:
        return None
    if any(c.denominator != 1 for c in q):
        return None
    return IntPolynomial(int(c) for c in q)


# -- pseudo-remainder sequences ----------------------------------------------

def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list:
    """Pseudo-remainder of dense int lists (constant first): lc(b)^(da-db+1)*a mod b."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da, db - 1, -1):
        c = r[k]
        for i in range(k):
            r[i] *= lb
        if c:
            for i in range(db):
                r[k - db + i] -= c * b[i]
        r[k] = 0
    while r and r[-1] == 0:
        r.pop()
    return r


def _sturm_chain(p: IntPolynomial) -> list:
    """Primitive-PRS Sturm chain of p (degree >= 1), stopped at a zero remainder.

    Each member is a positive multiple of the textbook chain member, so sign
    variation counts are unchanged.  The last member is a constant exactly
    when p is squarefree; otherwise it is a multiple of gcd(p, p'), which
    sturm_real_count rejects and is_irreducible reports as a factor.
    """
    chain = [list(p.coefficients), list(p.derivative().coefficients)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        da, db = len(a) - 1, len(b) - 1
        r = _pseudo_rem(a, b)
        if not r:
            break
        # pseudo-remainder equals lc(b)^(da-db+1) * rem(a, b); flip the sign
        # when that multiplier is negative so the chain stays a positive
        # multiple of (-rem) as Sturm's recursion demands
        mult_negative = b[-1] < 0 and (da - db + 1) % 2 == 1
        g = _content_list(r)
        r = [c // g for c in r]
        if not mult_negative:
            r = [-c for c in r]
        chain.append(r)
    return chain


def _variations(signs: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sign_at(coeffs: Sequence[int], x: Optional[Fraction], side: int) -> int:
    """Sign of the polynomial at x, or at -inf/+inf when x is None (side=-1/+1)."""
    deg = len(coeffs) - 1
    lc = coeffs[-1]
    if x is None:
        s = 1 if lc > 0 else -1
        if side < 0 and deg % 2 == 1:
            s = -s
        return s
    acc = _horner(coeffs, x)
    return (acc > 0) - (acc < 0)


def sturm_real_count(
    p: IntPolynomial,
    interval: Optional[Tuple[Optional[Exact], Optional[Exact]]] = None,
) -> int:
    """Exact number of distinct real roots of a squarefree polynomial.

    ``interval=(a, b)`` counts roots in the half-open interval (a, b]; either
    endpoint may be None for an unbounded side.  Exact rational arithmetic
    throughout; non-squarefree input raises ValueError.
    """
    if p.degree < 1:
        if p.is_zero:
            raise ValueError("squarefree required: zero polynomial")
        return 0
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        raise ValueError("squarefree required: repeated roots detected")
    if interval is None:
        a, b = None, None
    else:
        a, b = interval
        a = Fraction(a) if a is not None else None
        b = Fraction(b) if b is not None else None
        if a is not None and b is not None and a >= b:
            raise ValueError("empty interval: need a < b")
    va = _variations(_sign_at(q, a, -1) for q in chain)
    vb = _variations(_sign_at(q, b, +1) for q in chain)
    return va - vb


# -- resultant and discriminant ----------------------------------------------

def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact resultant via the subresultant pseudo-remainder sequence."""
    if p.is_zero or q.is_zero:
        return 0
    if p.degree == 0:
        return p.leading_coefficient ** q.degree
    if q.degree == 0:
        return q.leading_coefficient ** p.degree
    a = p.primitive_part()
    b = q.primitive_part()
    cont_factor = p.content() ** q.degree * q.content() ** p.degree
    sign = 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        a, b = b, a
    A = list(a.coefficients)
    B = list(b.coefficients)
    g = 1
    h = 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        R = _pseudo_rem(A, B)
        if not R:
            return 0
        # subresultant bookkeeping: each round divides exactly by g*h^delta
        A, B = B, [c // (g * h ** delta) for c in R]
        g = A[-1]
        if delta >= 1:
            h = g ** delta // h ** (delta - 1)
        if len(B) - 1 == 0:
            dA = len(A) - 1
            lb = B[-1]
            res_pp = lb ** dA // h ** (dA - 1)
            return sign * cont_factor * res_pp


def discriminant(p: IntPolynomial) -> int:
    """Exact discriminant from the resultant of p and its derivative."""
    n = p.degree
    if n < 2:
        raise ValueError("discriminant undefined for degree < 2")
    res = resultant(p, p.derivative())
    lead = p.leading_coefficient
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val, rem = divmod(res, lead)
    if rem:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return sign * val


# -- polynomial families ------------------------------------------------------

FAMILY_NAMES = (
    "multinacci",
    "multinacci-cofactor",
    "truncated-geom",
    "even-spread",
    "root-power",
)


def multinacci(n: int) -> IntPolynomial:
    """x^n - x^(n-1) - ... - x - 1, n >= 2."""
    if n < 2:
        raise ValueError("multinacci requires n >= 2")
    return IntPolynomial([-1] * n + [1])


def multinacci_cofactor(n: int) -> IntPolynomial:
    """x^(n+1) - 2x^n + 1 = multinacci(n) * (x - 1)."""
    if n < 2:
        raise ValueError("multinacci-cofactor requires n >= 2")
    coeffs = [0] * (n + 2)
    coeffs[0] = 1
    coeffs[n] = -2
    coeffs[n + 1] = 1
    return IntPolynomial(coeffs)


def truncated_geom(n: int) -> IntPolynomial:
    """x^n + x^(n-1) + ... + x - 1, n >= 2."""
    if n < 2:
        raise ValueError("truncated-geom requires n >= 2")
    return IntPolynomial([-1] + [1] * n)


def even_spread(n: int) -> IntPolynomial:
    """x^n + x^(n-2) + ... + x^2 - 1 for n = 4k + 2."""
    if n < 2 or n % 4 != 2:
        raise ValueError("even-spread requires n = 2 (mod 4)")
    coeffs = [0] * (n + 1)
    coeffs[0] = -1
    for k in range(2, n + 1, 2):
        coeffs[k] = 1
    return IntPolynomial(coeffs)


def root_power(n: int) -> IntPolynomial:
    """x^(3n) + x^(2n) - 1, n >= 1."""
    if n < 1:
        raise ValueError("root-power requires n >= 1")
    coeffs = [0] * (3 * n + 1)
    coeffs[0] = -1
    coeffs[2 * n] = 1
    coeffs[3 * n] = 1
    return IntPolynomial(coeffs)


_FAMILY_BUILDERS = {
    "multinacci": multinacci,
    "multinacci-cofactor": multinacci_cofactor,
    "truncated-geom": truncated_geom,
    "even-spread": even_spread,
    "root-power": root_power,
}


def make_family(kind: str, n: int) -> IntPolynomial:
    """Construct a named family member; kind is one of FAMILY_NAMES."""
    key = kind.strip().lower().replace("_", "-")
    if key not in _FAMILY_BUILDERS:
        raise ValueError(f"unknown family {kind!r}; expected one of {FAMILY_NAMES}")
    return _FAMILY_BUILDERS[key](n)


# -- irreducibility ------------------------------------------------------------

def _rational_roots(p: IntPolynomial):
    """All rational roots, via the rational root theorem."""
    a0 = p.constant_term
    an = p.leading_coefficient
    if a0 == 0:
        yield Fraction(0)
        return
    def divisors(m):
        m = abs(m)
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                out.append(m // d)
            d += 1
        return sorted(set(out))
    for num in divisors(a0):
        for den in divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p.evaluate(cand) == 0:
                    yield cand


def _monicize(p: IntPolynomial) -> IntPolynomial:
    """lc^(n-1) * p(x / lc): a monic integer polynomial with the same splitting."""
    lc = p.leading_coefficient
    n = p.degree
    # the leading term is 1 exactly: lc ** -1 is a float that can round below 1
    lower = [c * lc ** (n - 1 - i) for i, c in enumerate(p.coefficients[:-1])]
    return IntPolynomial(lower + [1])


# Primes for the factor-degree sets; a prime where the polynomial is not
# squarefree is skipped, and the loop stops once no size survives.
_DEGREE_SET_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _divmod_mod_p(a: Sequence[int], b: Sequence[int], prime: int):
    """Quotient and remainder over F_p of dense lists (constant first).

    b has no trailing zero. Results are reduced mod p and trimmed.
    """
    r = [c % prime for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, prime)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] * inv % prime
        if c:
            q[k - db] = c
            for i in range(db):
                r[k - db + i] = (r[k - db + i] - c * b[i]) % prime
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _mulmod_p(a: Sequence[int], b: Sequence[int], f: Sequence[int], prime: int) -> list:
    """a * b mod f over F_p."""
    return _divmod_mod_p(_poly_mul(a, b), f, prime)[1]


def _gcd_mod_p(a: Sequence[int], b: Sequence[int], prime: int) -> list:
    """Monic gcd over F_p; a must be nonzero."""
    while b:
        a, b = b, _divmod_mod_p(a, b, prime)[1]
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _factor_degrees_mod_p(f: Sequence[int], prime: int) -> Optional[list]:
    """Degrees of the irreducible factors of monic f over F_p, or None when
    f is not squarefree mod p (distinct-degree factorization)."""
    f = [c % prime for c in f]
    df = [i * c % prime for i, c in enumerate(f)][1:]
    while df and df[-1] == 0:
        df.pop()
    if not df or len(_gcd_mod_p(f, df, prime)) > 1:
        return None
    degrees = []
    g, h, d = f, [0, 1], 0  # h = x^(p^d) mod g
    while 2 * (d + 1) <= len(g) - 1:
        d += 1
        power, h = h, [1]
        for bit in bin(prime)[2:]:
            h = _mulmod_p(h, h, g, prime)
            if bit == "1":
                h = _mulmod_p(h, power, g, prime)
        # the product of the degree-d factors is gcd(g, x^(p^d) - x)
        shifted = h + [0] * (2 - len(h))
        shifted[1] = (shifted[1] - 1) % prime
        while shifted and shifted[-1] == 0:
            shifted.pop()
        t = _gcd_mod_p(g, shifted, prime)
        if len(t) > 1:
            degrees += [d] * ((len(t) - 1) // d)
            g = _divmod_mod_p(g, t, prime)[0]
            h = _divmod_mod_p(h, g, prime)[1]
    if len(g) > 1:
        degrees.append(len(g) - 1)  # what is left has no factor of degree <= d
    return degrees


def _factor_degree_sizes(work: IntPolynomial) -> list:
    """Sizes k, 2 <= k <= n/2, that a monic factor of work over Z may have.

    A factor over Z reduces mod p to a product of factors over F_p, so its
    degree is a sum of some of the mod-p factor degrees, for every prime p
    where work stays squarefree. Degree 1 is left out: the caller has ruled
    out rational roots. An empty list proves work irreducible.
    """
    n = work.degree
    sizes = set(range(2, n // 2 + 1))
    for prime in _DEGREE_SET_PRIMES:
        if not sizes:
            break
        degrees = _factor_degrees_mod_p(work.coefficients, prime)
        if degrees is None:
            continue
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        sizes &= sums
    return sorted(sizes)


def is_irreducible(p: IntPolynomial, return_witness: bool = False):
    """Irreducibility over Q of a nonconstant primitive integer polynomial.

    Exact stages run first: rational roots, then the last member of the
    Sturm chain, which is a multiple of gcd(p, p') and so a repeated factor
    whenever it is not a constant. The monic form is then factored by degree
    over a few small primes (``_factor_degree_sizes``); a factor over Z has a
    degree that every prime allows, so when no size from 2 to n/2 survives
    (always so below degree 4), p is irreducible. Otherwise candidate
    factors of the surviving sizes are reconstructed from subsets of
    high-precision complex roots by rounding elementary symmetric functions;
    exact integer division is the certificate, so the floating step only
    proposes, and the witness is the same one that trying every size would
    give. With return_witness=True the result is (verdict, factor-or-None).
    """
    if p.degree < 1:
        raise ValueError("irreducibility undefined for constant polynomials")
    if p.content() != 1:
        p = p.primitive_part()  # integer content is a unit over Q

    def result(verdict, witness=None):
        return (verdict, witness) if return_witness else verdict

    if p.degree == 1:
        return result(True)
    if p.constant_term == 0:
        return result(False, IntPolynomial((0, 1)))
    for root in _rational_roots(p):
        factor = IntPolynomial((-root.numerator, root.denominator))
        return result(False, factor)
    last = _sturm_chain(p)[-1]
    if len(last) > 1:
        # repeated roots: gcd(p, p') is a proper factor
        return result(False, IntPolynomial(last).normalized())

    work = p if p.is_monic else _monicize(p)
    sizes = _factor_degree_sizes(work)
    if not sizes:
        return result(True)
    n = work.degree
    max_root = 1.0 + max(abs(c) for c in work.coefficients)  # Cauchy bound
    # symmetric functions of k roots stay below binom(k, k/2) * max_root^k;
    # keep the rounding error a couple of orders below 1/2
    dps = max(30, int(n * math.log10(max_root)) + n + 15)
    with mpmath.workdps(dps):
        monic_coeffs = [mpmath.mpf(c) for c in reversed(work.coefficients)]
        try:
            roots = mpmath.polyroots(monic_coeffs, maxsteps=200, extraprec=120)
        except mpmath.libmp.NoConvergence:
            roots = mpmath.polyroots(monic_coeffs, maxsteps=1000, extraprec=400)
        witness = _find_factor(work, roots, sizes)
    if witness is None:
        return result(True)
    if p.is_monic:
        return result(False, witness)
    # map back through x -> lc*x and strip content
    lc = p.leading_coefficient
    mapped = IntPolynomial(c * lc ** i for i, c in enumerate(witness.coefficients))
    return result(False, mapped.normalized())


def is_irreducible_of_signature(p: IntPolynomial, s: int) -> bool:
    """True iff p is irreducible over Q and has exactly s real roots.

    The exact Sturm count decides first, since it is cheap and rejects most
    candidates; a polynomial that is not squarefree is reducible.
    """
    try:
        if sturm_real_count(p) != s:
            return False
    except ValueError:
        return False
    return is_irreducible(p)


def _find_factor(work: IntPolynomial, roots, sizes) -> Optional[IntPolynomial]:
    """First monic factor of work, by size in ``sizes`` then subset order."""
    from itertools import combinations

    n = work.degree
    tol = mpmath.mpf("0.125")
    for k in sizes:
        index_pools = combinations(range(n), k)
        if 2 * k == n:
            # complementary subsets give the complementary factor; fix root 0
            index_pools = (c for c in combinations(range(n), k) if c[0] == 0)
        for subset in index_pools:
            # product of (x - z) over the subset, constant term first
            poly = [mpmath.mpc(1)]
            for idx in subset:
                z = roots[idx]
                nxt = [mpmath.mpc(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    nxt[i + 1] += c
                    nxt[i] -= z * c
                poly = nxt
            ints = []
            ok = True
            for c in poly:
                if abs(mpmath.im(c)) > tol:
                    ok = False
                    break
                r = mpmath.re(c)
                near = int(mpmath.nint(r))
                if abs(r - near) > tol:
                    ok = False
                    break
                ints.append(near)
            if not ok:
                continue
            candidate = IntPolynomial(ints)
            if candidate.degree != k:
                continue
            if try_divide(work, candidate) is not None:
                return candidate
    return None
