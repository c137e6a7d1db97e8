"""Exact integer polynomial arithmetic.

Coefficients are arbitrary-precision Python integers, stored constant term
first.  Everything downstream (signatures, discriminants, search filters)
leans on the exactness of this module: there is no floating fallback in the
Sturm or resultant paths, which read one remainder sequence: the Sturm
chain is the sequence of (p, p'), and discriminants come from its steps.
Exact division and the Sturm signs at rational endpoints run on integers;
Fraction appears only where a rational endpoint enters.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, count, zip_longest
from typing import Iterable, Optional, Sequence, Tuple, Union

Exact = Union[int, Fraction]


# -- coefficient-list kernels ----------------------------------------------------

def _horner(coeffs: Sequence, x):
    """p(x) for coefficients given constant term first.

    Generic over any x that multiplies and adds with the coefficients: int,
    Fraction, float, complex, numpy arrays and arbitrary-precision floats. The
    accumulator starts at the integer 0, so int and Fraction input stays exact.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _horner_with_derivative(coeffs: Sequence, x):
    """(p(x), p'(x)) in one pass, as generic as _horner.

    The steps are augmented assignments: the same operations in the same
    order as dp = dp * x + p and p = p * x + c, but on a numpy array they
    update the accumulators in place instead of allocating two arrays per
    coefficient, and on immutable scalars they only rebind. So an integer
    array x with float or complex coefficients raises on the in-place add;
    pass a float or complex array.  A zero c costs no add: skipping + 0.0
    can change only the sign of a zero component of p or p', Aberth's
    iterates (the only array input) hold zero components only as +0.0, and
    no nonzero value reads a zero's sign.
    """
    p = dp = 0
    for c in reversed(coeffs):
        dp *= x
        dp += p
        p *= x
        if c:
            p += c
    return p, dp


def _poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of coefficient lists given constant term first.

    As generic as _horner; zero terms on either side are skipped.
    """
    out = [0] * (len(a) + len(b) - 1)
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

def _long_divide(r: list, b: Sequence[int]) -> list:
    """Quotient digits r[k] // lc(b) of integer long division of r by b (int
    lists, constant first); the remainder is left in r.  On r = lc(b)^e·a,
    e = da-db+1, every digit is exact (Knuth, TAOCP vol. 2, §4.6.1), so r
    ends as prem(a, b) after O(e·deg b) products.
    """
    db, lead = len(b) - 1, b[-1]
    q = []
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] // lead
        q.append(c)
        if c:
            for i, bc in enumerate(b, k - db):
                r[i] -= c * bc
    q.reverse()
    return q


def try_divide(num: IntPolynomial, den: IntPolynomial) -> Optional[IntPolynomial]:
    """num / den when the division is exact with integer quotient, else None.

    Integer long division: a leading coefficient that lc(den) does not divide
    leaves a residue in the remainder, so a zero remainder decides both.
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(num.coefficients)
    q = _long_divide(r, den.coefficients)
    return None if any(r) else IntPolynomial(q)


# -- pseudo-remainder sequences ----------------------------------------------

def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list:
    """Pseudo-remainder of dense int lists (constant first): lc(b)^(da-db+1)*a mod b.

    One exact _long_divide of that scaled dividend: O((da-db+1)·deg b) products.
    """
    scale = b[-1] ** (len(a) - len(b) + 1)
    r = [c * scale for c in a]
    _long_divide(r, b)
    while r and r[-1] == 0:
        r.pop()
    return r


def _remainder_sequence(a: list, b: list) -> Tuple[list, list]:
    """Primitive pseudo-remainder sequence of dense int lists a, b (constant
    first, deg a >= deg b >= 0), stopped at a constant or a zero remainder.

    Returns (chain, contents): the chain starts a, b, and member i + 2 is
    prem(chain[i], chain[i + 1]) / contents[i], where the signed content
    makes each member a positive multiple of -rem(chain[i], chain[i + 1]),
    as Sturm's recursion demands.
    """
    chain, contents = [a, b], []
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_rem(a, b)
        if not r:
            break
        # the pseudo-remainder is lc(b)^(da-db+1) * rem(a, b): divide by
        # minus its content unless that multiplier is negative
        g = _content_list(r)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            g = -g
        chain.append([c // g for c in r])
        contents.append(g)
    return chain, contents


def _sturm_chain(p: IntPolynomial) -> list:
    """Sturm chain of p (degree >= 1): the remainder sequence of (p, p').

    Each member is a positive multiple of the textbook chain member, so sign
    variation counts are unchanged.  The last member is a constant exactly
    when p is squarefree; otherwise it is a multiple of gcd(p, p'), which
    sturm_real_count rejects and is_irreducible reports as a factor.
    """
    return _remainder_sequence(list(p.coefficients), list(p.derivative().coefficients))[0]


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
    """Sign of the polynomial at x, or at -inf/+inf when x is None (side=-1/+1).

    At x = num/den, den > 0, it is the sign of the integer den^deg p(num/den).
    """
    deg = len(coeffs) - 1
    lc = coeffs[-1]
    if x is None:
        s = 1 if lc > 0 else -1
        if side < 0 and deg % 2 == 1:
            s = -s
        return s
    den = x.denominator
    acc = _horner([c * den ** (deg - i) for i, c in enumerate(coeffs)], x.numerator)
    return (acc > 0) - (acc < 0)


def sturm_real_count(
    p: IntPolynomial,
    interval: Optional[Tuple[Optional[Exact], Optional[Exact]]] = None,
) -> int:
    """Exact number of distinct real roots of a squarefree polynomial.

    ``interval=(a, b)`` counts roots in the half-open interval (a, b]; either
    endpoint may be None for an unbounded side.  Exact integer arithmetic
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
    """Exact resultant, read off the remainder sequence of (p, q).

    With d the degrees, each step A, B -> C, prem(A, B) = g C, gives res(A, B)
    = (-1)^(dA dB) lc(B)^(dA - dC - (dA - dB + 1) dB) g^dB res(B, C).  The
    sequence ends at a constant c, where res(A, c) = c^dA, or at a zero
    remainder, where A and B share a factor and the resultant is 0.
    """
    if p.is_zero or q.is_zero:
        return 0
    a, b = list(p.coefficients), list(q.coefficients)
    num, den = 1, 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            num = -1
    chain, contents = _remainder_sequence(a, b)
    if len(chain[-1]) > 1:
        return 0
    for a, b, c, g in zip(chain, chain[1:], chain[2:], contents):
        da, db = len(a) - 1, len(b) - 1
        if da * db % 2:
            num = -num
        # the exponent of lc(b) can be negative: keep it apart until the end
        e = da - (len(c) - 1) - (da - db + 1) * db
        if e >= 0:
            num *= b[-1] ** e
        else:
            den *= b[-1] ** -e
        num *= g ** db
    num *= chain[-1][0] ** (len(chain[-2]) - 1)
    return num // den


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


# -- irreducibility ------------------------------------------------------------

def _monicize(p: IntPolynomial) -> IntPolynomial:
    """lc^(n-1) * p(x / lc): a monic integer polynomial with the same splitting."""
    lc = p.leading_coefficient
    n = p.degree
    # the leading term is 1 exactly: lc ** -1 is a float that can round below 1
    lower = [c * lc ** (n - 1 - i) for i, c in enumerate(p.coefficients[:-1])]
    return IntPolynomial(lower + [1])


# usable primes in a row that leave the possible factor sizes unchanged
# before _factor_degree_sizes stops reading primes
SETTLED_PRIMES = 3


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    return (q for q in count(2) if all(q % d for d in range(2, math.isqrt(q) + 1)))


def _divmod_mod_p(a: Sequence[int], b: Sequence[int], modulus: int):
    """Quotient and remainder mod ``modulus`` of dense lists (constant first).

    b has no trailing zero and a unit leading coefficient (monic, mod a prime
    power). Results are reduced and trimmed.
    """
    r = [c % modulus for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, modulus)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] * inv % modulus
        if c:
            q[k - db] = c
            for i in range(db):
                r[k - db + i] = (r[k - db + i] - c * b[i]) % modulus
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _mulmod_p(a: Sequence[int], b: Sequence[int], f: Sequence[int], prime: int) -> list:
    """a * b mod f over F_p."""
    return _divmod_mod_p(_poly_mul(a, b), f, prime)[1]


def _powmod_p(base: Sequence[int], e: int, f: Sequence[int], prime: int) -> list:
    """base^e mod f over F_p, by square and multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod_p(out, out, f, prime)
        if bit == "1":
            out = _mulmod_p(out, base, f, prime)
    return out


def _sub_mod_p(a: Sequence[int], b: Sequence[int], prime: int) -> list:
    """a - b over F_p, trimmed."""
    out = [(x - y) % prime for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_mod_p(a: Sequence[int], b: Sequence[int], prime: int) -> list:
    """Monic gcd over F_p; a must be nonzero."""
    while b:
        a, b = b, _divmod_mod_p(a, b, prime)[1]
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _distinct_degree_parts(f: Sequence[int], prime: int) -> Optional[list]:
    """Pairs (d, product of the degree-d irreducible factors) of monic f over
    F_p, or None when f is not squarefree mod p (distinct-degree
    factorization)."""
    f = [c % prime for c in f]
    df = [i * c % prime for i, c in enumerate(f)][1:]
    while df and df[-1] == 0:
        df.pop()
    if not df or len(_gcd_mod_p(f, df, prime)) > 1:
        return None
    parts = []
    g, h, d = f, [0, 1], 0  # h = x^(p^d) mod g
    while 2 * (d + 1) <= len(g) - 1:
        d += 1
        h = _powmod_p(h, prime, g, prime)
        # the product of the degree-d factors is gcd(g, x^(p^d) - x)
        t = _gcd_mod_p(g, _sub_mod_p(h, [0, 1], prime), prime)
        if len(t) > 1:
            parts.append((d, t))
            g = _divmod_mod_p(g, t, prime)[0]
            h = _divmod_mod_p(h, g, prime)[1]
    if len(g) > 1:
        parts.append((len(g) - 1, g))  # what is left has no factor of degree <= d
    return parts


def _factor_degree_sizes(work: IntPolynomial):
    """(sizes, prime, parts) for the monic squarefree polynomial work.

    A factor over Z reduces mod p to a product of factors over F_p, so its
    degree is a sum of some of the mod-p factor degrees, for every prime p
    where work stays squarefree. ``sizes`` lists the k, 1 <= k <= n/2, that
    every prime read allows; an empty list proves work irreducible. ``prime``
    is the odd prime with the fewest factors among those read, and ``parts``
    its distinct-degree factorization.

    The sizes only shrink, and a size that a factor over Z has never drops
    out, so reading fewer primes leaves extra sizes but never loses one.
    _find_factor returns every factor of the least size that has one, so
    neither the verdict nor the canonical witness depends on which primes
    were read. The loop therefore stops once SETTLED_PRIMES usable primes in
    a row have left the sizes unchanged and an odd prime is at hand, or when
    the sizes are empty, or past 50 once an odd prime is at hand. Some odd
    prime keeps work squarefree, since finitely many primes divide the
    discriminant.
    """
    n = work.degree
    sizes = set(range(1, n // 2 + 1))
    best, fewest = (None, None), n + 1
    unchanged = 0
    for prime in _primes():
        if not sizes or (best[0] and (prime > 50 or unchanged >= SETTLED_PRIMES)):
            break
        parts = _distinct_degree_parts(work.coefficients, prime)
        if parts is None:
            continue
        degrees = [d for d, g in parts for _ in range((len(g) - 1) // d)]
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        unchanged = unchanged + 1 if sizes <= sums else 0
        sizes &= sums
        if prime > 2 and len(degrees) < fewest:
            best, fewest = (prime, parts), len(degrees)
    return (sorted(sizes), *best)


def _split_equal_degree(g: list, d: int, prime: int, rng: random.Random) -> list:
    """The monic factors over F_p, p odd, of a squarefree g whose irreducible
    factors all have degree d (Cantor and Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = [rng.randrange(prime) for _ in range(len(g) - 1)]
        b = _powmod_p(a, (prime ** d - 1) // 2, g, prime)
        h = _gcd_mod_p(g, _sub_mod_p(b, [1], prime), prime)
        if 1 < len(h) < len(g):
            rest = _divmod_mod_p(g, h, prime)[0]
            return [u for v in (h, rest) for u in _split_equal_degree(v, d, prime, rng)]


def _hensel_lift(f: Sequence[int], u: list, prime: int, modulus: int) -> list:
    """The monic factor of f mod ``modulus``, a power of p, that is u mod p.

    u is irreducible over F_p and f squarefree mod p. Linear lifting: with h
    the cofactor of the factor g so far (mod m) and t the inverse of h mod
    (p, u), g + m * (t * (f - g h) / m mod u) holds mod m * p.
    """
    t = _powmod_p(_divmod_mod_p(f, u, prime)[0], prime ** (len(u) - 1) - 2, u, prime)
    g, m = u, prime
    while m < modulus:
        h = _divmod_mod_p(f, g, m)[0]
        e = [(c - gh) // m % prime for c, gh in zip(f, _poly_mul(g, h))]
        step = _mulmod_p(t, e, u, prime)
        g = [c + m * s for c, s in zip(g, step + [0] * (len(g) - len(step)))]
        m *= prime
    return g


def _find_factor(work: IntPolynomial, sizes: list, prime: int, parts: list) -> list:
    """Every monic factor over Z of the monic squarefree polynomial work whose
    degree is the least size in ``sizes`` that has one; [] when none has.

    Zassenhaus: the factors mod p are lifted to p^k above twice the Mignotte
    bound C(k, k/2) * |work|_2 on the coefficients of a factor of degree k,
    and products of subsets whose degrees sum to a size are test-divided.
    """
    rng = random.Random(0)
    local = [u for d, g in parts for u in _split_equal_degree(g, d, prime, rng)]
    top = sizes[-1]
    norm = math.isqrt(sum(c * c for c in work.coefficients)) + 1
    modulus = prime
    while modulus <= 2 * math.comb(top, top // 2) * norm:
        modulus *= prime
    lifted = [_hensel_lift(work.coefficients, u, prime, modulus) for u in local]
    for k in sizes:
        found = []
        for length in range(1, len(lifted)):
            for subset in combinations(lifted, length):
                if sum(len(u) - 1 for u in subset) != k:
                    continue
                g = reduce(lambda a, u: [c % modulus for c in _poly_mul(a, u)], subset, [1])
                g = IntPolynomial(c - modulus if 2 * c > modulus else c for c in g)
                if try_divide(work, g) is not None:
                    found.append(g)
        if found:
            return found
    return []


def is_irreducible(p: IntPolynomial, return_witness: bool = False):
    """Irreducibility over Q of a nonconstant integer polynomial, decided exactly.

    With repeated roots, the last member of p's Sturm chain is a multiple of
    gcd(p, p'), and p's irreducible factors are those of p / gcd(p, p'). A
    squarefree p is decided on its monic form lc^(n-1) p(x/lc): factor
    degrees mod small primes leave the sizes, 1 to n/2, that a factor over Z
    may have (none: irreducible), and the factors mod one prime are
    Hensel-lifted and recombined by exact division (``_find_factor``).

    With return_witness=True the result is (verdict, factor-or-None). The
    factor is canonical: the least degree, then the smallest coefficient
    tuple of its normalized form, read from the leading coefficient down.
    """
    if p.degree < 1:
        raise ValueError("irreducibility undefined for constant polynomials")
    if p.content() != 1:
        p = p.primitive_part()  # integer content is a unit over Q

    def result(verdict, witness=None):
        return (verdict, witness) if return_witness else verdict

    if p.degree == 1:
        return result(True)
    last = _sturm_chain(p)[-1]
    if len(last) > 1:
        # a primitive divisor of p over Q divides it over Z (Gauss)
        core = try_divide(p, IntPolynomial(last).normalized())
        witness = is_irreducible(core, return_witness=True)[1]
        return result(False, witness or core.normalized())
    witness = _squarefree_factor(p)
    return result(witness is None, witness)


def _squarefree_factor(p: IntPolynomial) -> Optional[IntPolynomial]:
    """The canonical factor of a primitive squarefree p of degree >= 2, or
    None when p is irreducible (is_irreducible's squarefree branch)."""
    work = p if p.is_monic else _monicize(p)
    sizes, prime, parts = _factor_degree_sizes(work)
    factors = _find_factor(work, sizes, prime, parts) if sizes else []
    if not factors:
        return None
    # map back through x -> lc*x and strip content
    lc = p.leading_coefficient
    mapped = [IntPolynomial(c * lc ** i for i, c in enumerate(g.coefficients)).normalized()
              for g in factors]
    return min(mapped, key=lambda w: w.coefficients[::-1])


def is_irreducible_of_signature(p: IntPolynomial, s: int) -> bool:
    """True iff p is irreducible over Q and has exactly s real roots.

    The exact Sturm count decides first, since it is cheap and rejects most
    candidates; a polynomial that is not squarefree is reducible.  The count
    has proven p squarefree, so its Sturm chain is not built again.
    """
    try:
        if sturm_real_count(p) != s:
            return False
    except ValueError:
        return False
    if p.degree < 2:
        return is_irreducible(p)
    return _squarefree_factor(p.primitive_part()) is None
