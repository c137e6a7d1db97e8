"""Inputs of the three workloads and one pass over them.

An operation is one public minklat call whose output is checked on its own:
one search, one family check, one sector bound, one shortest vector. The
workload's inputs come from the seed alone. Seed 0 gives the fixed inputs
listed in README.md; any other seed draws other members of the same families
from small windows of the same degree class (same parity or residue, degree
within about 2%), so that a pass costs nearly the same on every seed.

Functions are looked up on their modules at call time (``roots.find_roots``,
not a bound name), so a tracer installed on the modules sees every call.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Tuple

WORKLOADS = ("search", "families", "lattice")

# The complete m < 1 sets of degrees 3 to 6 (67 polynomials), as frozen in
# tests/test_search.py. The search workload must reproduce the degree-5 and
# degree-6 sets; the lattice workload takes all 67 as fixed inputs.
M_LT_ONE_TABLES = {
    3: (
        "x^3-x^2+1", "x^3+x^2-1", "x^3+x-1", "x^3+x+1",
    ),
    4: (
        "x^4+x^2-1", "x^4+x^3+x^2-x-1", "x^4-x^3+x^2+x-1",
    ),
    5: (
        "x^5-x^3+x^2+x-1", "x^5-x^3-x^2+x+1", "x^5+x^3+x-1", "x^5+x^3+x+1",
        "x^5+x^4+x^3+x^2-1", "x^5-x^4+x^3-x^2+1", "x^5-x^2+1", "x^5+x^2-1",
        "x^5-x^4+x^3-x^2+2x-1", "x^5+x^4+x^3+x^2+2x+1", "x^5+x^3-1",
        "x^5+x^3+1", "x^5+x^2+x-1", "x^5-x^2+x+1", "x^5+x^4-1", "x^5-x^4+1",
        "x^5+x^4+x^3-x-1", "x^5-x^4+x^3-x+1", "x^5+x^3+x^2+x+1",
        "x^5+x^3-x^2+x-1", "x^5+x^4+x^3+x+1", "x^5-x^4+x^3+x-1",
    ),
    6: (
        "x^6+x^2-1", "x^6+x^4+x^2-1", "x^6+x^4-1", "x^6+x^5+x^4-x-1",
        "x^6-x^5+x^4+x-1", "x^6+2x^2-1", "x^6-x^5+2x^4-x^3+x^2-1",
        "x^6+x^5+2x^4+x^3+x^2-1", "x^6+x^3+x^2-x-1", "x^6-x^3+x^2+x-1",
        "x^6-x^5+x^4+x^2-1", "x^6+x^5+x^4+x^2-1", "x^6+x^5+x^2-x-1",
        "x^6-x^5+x^2+x-1", "x^6-2x^4+3x^2-1", "x^6+x^5+2x^4+x^3+x^2-x-1",
        "x^6-x^5+2x^4-x^3+x^2+x-1", "x^6-x^4+x^3+2x^2-x-1",
        "x^6-x^4-x^3+2x^2+x-1", "x^6+2x^5+3x^4+2x^3+x^2-x-1",
        "x^6-2x^5+3x^4-2x^3+x^2+x-1", "x^6-x^5+2x^2-1", "x^6+x^5+2x^2-1",
        "x^6+x^4+x^2-x-1", "x^6+x^4+x^2+x-1", "x^6-x^5+x^4-x^3+2x^2-1",
        "x^6+x^5+x^4+x^3+2x^2-1", "x^6-x^3+2x^2-1", "x^6+x^3+2x^2-1",
        "x^6+x^4+2x^2-1", "x^6+x^5+x^3+2x^2-x-1", "x^6-x^5-x^3+2x^2+x-1",
        "x^6+x^5+x^4+x^2-x-1", "x^6-x^5+x^4+x^2+x-1",
        "x^6+x^5+x^4-x^2-2x-1", "x^6-x^5+x^4-x^2+2x-1",
        "x^6+x^4+x^3+x^2-x-1", "x^6+x^4-x^3+x^2+x-1",
    ),
}

_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")


def parse_coeffs(text: str) -> Tuple[int, ...]:
    """Constant-first integer coefficients of a polynomial written like
    ``x^6-2x^4+3x^2-1``."""
    out: Dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign, num, var, exp = m.groups()
        value = int(num) if num else 1
        power = (int(exp) if exp else 1) if var else 0
        out[power] = out.get(power, 0) + (-value if sign == "-" else value)
        pos = m.end()
    coeffs = [0] * (max(out) + 1)
    for power, c in out.items():
        coeffs[power] = c
    return tuple(coeffs)


def taylor_shift(coeffs: Tuple[int, ...], c: int) -> Tuple[int, ...]:
    """Coefficients of f(x - c): its roots are the roots of f plus c, and
    Z[alpha + c] = Z[alpha], so the lattice and its minimum do not change."""
    out = list(coeffs)
    n = len(out) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            out[k] -= c * out[k + 1]
    return tuple(out)


# -- inputs ---------------------------------------------------------------------


def _draw(rng: random.Random, seed: int, fixed: int, window: Tuple[int, ...]) -> int:
    return fixed if seed == 0 else rng.choice(window)


def _window(center: int, step: int, half: int) -> Tuple[int, ...]:
    return tuple(center + step * i for i in range(-half, half + 1))


def make_ops(workload: str, seed: int) -> List[dict]:
    """The operations of one pass, in order. Each is a plain dict, so that
    inputs can be logged and compared."""
    rng = random.Random(seed)
    if workload == "search":
        # exhaustive: the degree and the signatures are the whole input.
        # Degree 6 is left out: its one (2,2) search takes about 15 s, too long
        # a pass for a median over passes within one run.
        return [{"op": "search", "n": n, "signature": None} for n in (3, 4, 5)]
    if workload == "families":
        # degrees 114 to 155, above roots.POLISH_DEGREE_THRESHOLD, so that every
        # find_roots call here is polished, and a pass stays near 4 s
        ops = [
            {"op": "sum_asymptotic", "n": _draw(rng, seed, 120, _window(120, 2, 2))},
            {"op": "bhu1", "n": _draw(rng, seed, 151, _window(151, 2, 2))},
            {"op": "kiy", "k": _draw(rng, seed, 30, _window(30, 1, 1))},
            {"op": "cubic2", "n": _draw(rng, seed, 40, _window(40, 2, 1))},
            # the two checks that certify irreducibility (degrees 12 and 10);
            # that certificate costs exponential time in the degree, so these
            # stay fixed
            {"op": "cubic2", "n": 4},
            {"op": "kiy", "k": 2},
        ]
        loc = _draw(rng, seed, 150, _window(150, 2, 2))
        ops.append({"op": "multinacci_location", "n": loc})
        ops.append({"op": "pisot", "n": loc})
        for center in (100, 200, 400):
            n = _draw(rng, seed, center, _window(center, 2, 2))
            k = max(1, isqrt(isqrt(n)))
            for j in range(2 * k):
                for constant in ("classical", "default"):
                    ops.append(
                        {"op": "erdos_turan", "n": n, "k": k, "j": j, "constant": constant}
                    )
        return ops
    if workload == "lattice":
        ops = []
        for degree in sorted(M_LT_ONE_TABLES):
            for text in M_LT_ONE_TABLES[degree]:
                # another generator alpha + c of the same order; degree <= 6
                # keeps the shifted power basis well conditioned
                shift = 0 if seed == 0 else rng.choice((-1, 0, 1))
                coeffs = taylor_shift(parse_coeffs(text), shift)
                ops.append({"op": "lattice", "family": "table", "n": degree,
                            "shift": shift, "coeffs": coeffs})
        # truncated_geom(n) and multinacci(n) generate the same order
        # (Z[alpha] = Z[1/alpha]); the first basis is well conditioned, the
        # second has Gram entries near 4^n. Both ranges are fixed: the odd
        # multinacci lattices from n = 15 up fail every time (README.md).
        for n in range(10, 23):
            ops.append({"op": "lattice", "family": "truncated_geom", "n": n})
        for n in range(2, 9):
            ops.append({"op": "lattice", "family": "root_power", "n": n})
        for n in range(9, 23):
            ops.append({"op": "lattice", "family": "multinacci", "n": n})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- one pass ---------------------------------------------------------------------


def _conjugates(cs) -> dict:
    return {
        "coeffs": list(cs.polynomial.coefficients),
        "real": list(cs.real_roots),
        "complex": [[z.real, z.imag] for z in cs.complex_reps],
        "s": cs.s,
        "t": cs.t,
    }


def _plain(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


class Runner:
    """Binds the minklat modules and runs operations against them."""

    def __init__(self) -> None:
        from minklat import constants, intpoly, lattice, roots, search, verify

        self.constants = constants
        self.intpoly = intpoly
        self.lattice = lattice
        self.roots = roots
        self.search = search
        self.verify = verify

    def family_poly(self, op: dict):
        ip = self.intpoly
        kind = op["op"]
        if kind == "search":
            return None
        if kind in ("sum_asymptotic", "bhu1"):
            return ip.truncated_geom(op["n"])
        if kind == "kiy":
            return ip.even_spread(4 * op["k"] + 2)
        if kind == "cubic2":
            return ip.root_power(op["n"])
        if kind in ("multinacci_location", "pisot"):
            return ip.multinacci(op["n"])
        if kind == "erdos_turan":
            return ip.multinacci_cofactor(op["n"])
        if kind == "lattice":
            if op["family"] == "table":
                return ip.IntPolynomial(op["coeffs"])
            return getattr(ip, op["family"])(op["n"])
        raise ValueError(kind)

    def prepare(self, ops: List[dict]) -> List[tuple]:
        """Input generation: build each operation's polynomial."""
        return [(op, self.family_poly(op)) for op in ops]

    def call(self, op: dict, poly):
        """Run one operation; returns the raw program output."""
        kind = op["op"]
        v, r = self.verify, self.roots
        if kind == "search":
            return self.search.enumerate_m_lt_one(
                op["n"], signature_filter=op["signature"], threads=1
            )
        if kind == "sum_asymptotic":
            return v.check_sum_asymptotic(op["n"])
        if kind == "bhu1":
            return v.check_bhu1(op["n"])
        if kind == "kiy":
            return v.check_kiy(op["k"])
        if kind == "cubic2":
            return v.check_cubic2(op["n"])
        if kind == "multinacci_location":
            return r.multinacci_location_check(op["n"])
        if kind == "pisot":
            return r.pisot_check(r.find_roots(poly))
        if kind == "erdos_turan":
            k, j = op["k"], op["j"]
            c = self.constants
            constant = (
                c.ERDOS_TURAN_CLASSICAL if op["constant"] == "classical"
                else c.ERDOS_TURAN_DEFAULT
            )
            return r.erdos_turan_check(
                poly, math.pi * j / k, math.pi * (j + 1) / k, constant=constant
            )
        if kind == "lattice":
            lat = self.lattice.build_embedding(r.find_roots(poly))
            return lat, self.lattice.shortest_vector(lat)
        raise ValueError(kind)

    def describe(self, op: dict, poly, raw) -> dict:
        """JSON-able output of one operation, for the checks. Runs after the
        timed pass; find_roots here returns the root set the pass computed
        (it is cached), so no root finding is repeated."""
        kind = op["op"]
        if kind == "search":
            return {
                "degree": raw.degree,
                "groups": [
                    {
                        "signature": list(g.signature),
                        "lower_bound": g.lower_bound,
                        "entries": [[list(p.coefficients), m] for p, m in g.entries],
                    }
                    for g in raw.groups
                ],
                "inconclusive": [[list(p.coefficients), m] for p, m in raw.inconclusive],
                "stats": dict(raw.stats),
            }
        if kind in ("sum_asymptotic", "bhu1", "kiy", "cubic2"):
            return {
                "check_id": raw.check_id,
                "verdict": raw.verdict,
                "parameters": _plain(raw.parameters),
                "roots": _conjugates(self.roots.find_roots(poly)),
            }
        if kind == "multinacci_location":
            return {
                "all_ok": raw.all_ok,
                "roots": _conjugates(self.roots.find_roots(poly)),
            }
        if kind == "pisot":
            return {"pisot": bool(raw)}
        if kind == "erdos_turan":
            return {
                "coeffs": list(poly.coefficients),
                "lhs": raw.lhs,
                "rhs": raw.rhs,
                "holds": raw.holds,
                "sector_roots": raw.sector_roots,
                "degree": raw.degree,
            }
        if kind == "lattice":
            lat, res = raw
            return {
                "coeffs": list(poly.coefficients),
                "signature": list(lat.signature),
                "squared_length": res.squared_length,
                "m": res.m_value,
                "coordinates": list(res.coordinates),
                "element": _plain(res.element_poly),
            }
        raise ValueError(kind)
