"""Checks of minklat's outputs, made apart from the program.

Nothing here calls minklat: roots come from mpmath.polyroots at 50 digits,
identities are taken exactly from the integer coefficients, and the bounds
are coded from their formulas. Each check_* function takes the operation
and its JSON output (see workloads.Runner.describe) and returns a list of
problems; an empty list means the output passed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
import numpy as np

DPS = 50
# an mpmath root set counts only if its error estimate is below this
ROOT_ERROR = mpmath.mpf("1e-40")
# relative tolerance for reported m and squared lengths
REL_TOL = 1e-9
UNIVERSAL_FLOOR = math.e * math.log(2.0) / 2.0
ET_CLASSICAL = 16.0
# degree-6 m < 1 minimum, x^6 + x^2 - 1 (constant first)
DEG6_MINIMUM = (-1, 0, 1, 0, 0, 0, 1)


def signature_bound(s: int, t: int) -> float:
    """(s 2^(-2t/n) + t 2^(s/n)) / (s+t), n = s + 2t."""
    n = s + 2 * t
    return (s * 2.0 ** (-2.0 * t / n) + t * 2.0 ** (s / n)) / (s + t)


def mirror(coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Constant-first coefficients of (-1)^n f(-x)."""
    n = len(coeffs) - 1
    return tuple(c * (-1) ** (n - i) for i, c in enumerate(coeffs))


def mp_roots(coeffs: Sequence[int]):
    """All complex roots of a monic integer polynomial (constant first) to
    at least 40 digits: numpy's companion eigenvalues seed mpmath.polyroots,
    whose own error estimate must fall below ROOT_ERROR."""
    lead_first = list(reversed(coeffs))
    init = [mpmath.mpc(complex(z)) for z in np.roots(lead_first)]
    with mpmath.workdps(DPS):
        roots, err = mpmath.polyroots(
            lead_first, maxsteps=100, extraprec=60, error=True, roots_init=init
        )
    if err > ROOT_ERROR:
        raise ArithmeticError(f"mpmath roots of {coeffs} only to {err}")
    return roots


def split(roots) -> Tuple[list, list]:
    """Real roots, and one root of each conjugate pair (positive imaginary
    part). At 50 digits a real root has an imaginary part near 1e-50."""
    real = [mpmath.re(z) for z in roots if abs(mpmath.im(z)) < mpmath.mpf("1e-30")]
    upper = [z for z in roots if mpmath.im(z) >= mpmath.mpf("1e-30")]
    return real, upper


def m_of(real, upper) -> mpmath.mpf:
    """Normalised square size (sum r^2 + sum |z|^2 over pairs) / (s+t)."""
    with mpmath.workdps(DPS):
        return (mpmath.fsum(r * r for r in real) + mpmath.fsum(abs(z) ** 2 for z in upper)) / (
            len(real) + len(upper)
        )


def _close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# -- search ---------------------------------------------------------------------------


def check_search(op: dict, out: dict, table: Optional[Sequence[Tuple[int, ...]]]) -> List[str]:
    """Every reported polynomial: signature and m recomputed from 50-digit
    roots, m < 1, m at least the signature bound. The reported set: closed
    under f(x) -> (-1)^n f(-x), equal to the frozen table when one is given,
    and at degree 6 led by x^6+x^2-1."""
    bad: List[str] = []
    n = op["n"]
    found = []
    for g in out["groups"]:
        s, t = g["signature"]
        bound = signature_bound(s, t)
        if not _close(g["lower_bound"], bound, 1e-12):
            bad.append(f"lower bound {g['lower_bound']} for {(s, t)}, expected {bound}")
        for coeffs, m in g["entries"]:
            coeffs = tuple(coeffs)
            found.append((m, coeffs))
            if len(coeffs) != n + 1 or coeffs[-1] != 1:
                bad.append(f"{coeffs}: not monic of degree {n}")
                continue
            real, upper = split(mp_roots(coeffs))
            if (len(real), len(upper)) != (s, t):
                bad.append(f"{coeffs}: signature {(len(real), len(upper))}, reported {(s, t)}")
                continue
            exact_m = m_of(real, upper)
            if abs(m - exact_m) > REL_TOL:
                bad.append(f"{coeffs}: m {m} but 50-digit m {mpmath.nstr(exact_m, 15)}")
            if not m < 1.0:
                bad.append(f"{coeffs}: m {m} not below 1")
            if m < bound - REL_TOL:
                bad.append(f"{coeffs}: m {m} below the signature bound {bound}")
    polys = {c for _, c in found}
    for c in polys:
        if mirror(c) not in polys:
            bad.append(f"{c}: mirror {mirror(c)} missing")
    if table is not None and polys != set(table):
        bad.append(
            f"set differs from the frozen table: {len(polys - set(table))} extra, "
            f"{len(set(table) - polys)} missing"
        )
    if n == 6 and (not found or min(found)[1] != DEG6_MINIMUM):
        bad.append(f"degree-6 minimum is {min(found)[1] if found else None}")
    return bad


# -- families -------------------------------------------------------------------------


def closed_signature(op: dict) -> Tuple[int, int]:
    """Signature of the family member, from its closed form.

    truncated_geom(n), multinacci(n): one real root, and a second (negative)
    one when n is even. even_spread(4k+2): two real roots. root_power(n):
    x^n = y0 for the one real root y0 > 0 of y^3 + y^2 - 1, so one real root
    for odd n and two for even n."""
    kind = op["op"]
    if kind == "kiy":
        n = 4 * op["k"] + 2
        return (2, (n - 2) // 2)
    if kind == "cubic2":
        n = 3 * op["n"]
        s = 1 if op["n"] % 2 else 2
        return (s, (n - s) // 2)
    n = op["n"]
    s = 1 if n % 2 else 2
    return (s, (n - s) // 2)


def check_root_set(op: dict, rs: dict) -> List[str]:
    """Newton's identities p1 = -a_(n-1) and p2 = a_(n-1)^2 - 2 a_(n-2), the
    product of |z| against |a_0|, the root count, and the signature against
    the family's closed form."""
    bad: List[str] = []
    a = rs["coeffs"]
    n = len(a) - 1
    real = [mpmath.mpf(r) for r in rs["real"]]
    upper = [mpmath.mpc(x, y) for x, y in rs["complex"]]
    roots = [mpmath.mpc(r) for r in real] + upper + [mpmath.conj(z) for z in upper]
    if (rs["s"], rs["t"]) != (len(real), len(upper)):
        bad.append(f"signature {(rs['s'], rs['t'])} but {len(real)} real, {len(upper)} pairs")
    if len(roots) != n:
        bad.append(f"{len(roots)} roots for degree {n}")
        return bad
    if (rs["s"], rs["t"]) != closed_signature(op):
        bad.append(f"signature {(rs['s'], rs['t'])}, closed form {closed_signature(op)}")
    with mpmath.workdps(DPS):
        scale1 = mpmath.fsum(abs(z) for z in roots)
        scale2 = mpmath.fsum(abs(z) ** 2 for z in roots)
        p1 = mpmath.fsum(roots)
        p2 = mpmath.fsum(z * z for z in roots)
        want1 = -a[n - 1]
        want2 = a[n - 1] ** 2 - 2 * a[n - 2]
        if abs(p1 - want1) > REL_TOL * (1 + scale1):
            bad.append(f"p1 {mpmath.nstr(p1, 12)}, Newton gives {want1}")
        if abs(p2 - want2) > REL_TOL * (1 + scale2):
            bad.append(f"p2 {mpmath.nstr(p2, 12)}, Newton gives {want2}")
        log_prod = mpmath.fsum(mpmath.log(abs(z)) for z in roots)
        if abs(log_prod - mpmath.log(abs(a[0]))) > REL_TOL * n:
            bad.append(f"log prod |z| = {mpmath.nstr(log_prod, 12)}, log|a0| = {math.log(abs(a[0]))}")
    return bad


def et_rhs(coeffs: Sequence[int], constant: float) -> float:
    d = len(coeffs) - 1
    length = float(sum(abs(c) for c in coeffs))
    return constant * math.sqrt(d * math.log(length / math.sqrt(abs(coeffs[-1] * coeffs[0]))))


def check_families(ops: List[dict], outs: List[dict]) -> Dict[int, List[str]]:
    """Problems per operation index, for the families workload."""
    bad: Dict[int, List[str]] = {i: [] for i in range(len(ops))}
    sectors: Dict[Tuple[int, str], List[int]] = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        kind = op["op"]
        if kind in ("sum_asymptotic", "bhu1", "kiy", "cubic2"):
            if out["verdict"] != "pass":
                bad[i].append(f"verdict {out['verdict']}")
            bad[i] += check_root_set(op, out["roots"])
        elif kind == "multinacci_location":
            if not out["all_ok"]:
                bad[i].append("root layout of multinacci not confirmed")
            bad[i] += check_root_set(op, out["roots"])
        elif kind == "pisot":
            if not out["pisot"]:
                bad[i].append("multinacci root not reported Pisot")
        elif kind == "erdos_turan":
            d = out["degree"]
            if d != len(out["coeffs"]) - 1:
                bad[i].append(f"degree {d}")
            width = 1.0 / (2 * op["k"])
            lhs = abs(out["sector_roots"] - width * d)
            if not _close(out["lhs"], lhs, 1e-12):
                bad[i].append(f"lhs {out['lhs']}, from the count {lhs}")
            if op["constant"] == "classical":
                rhs = et_rhs(out["coeffs"], ET_CLASSICAL)
                if not _close(out["rhs"], rhs, 1e-12):
                    bad[i].append(f"rhs {out['rhs']}, formula gives {rhs}")
                if not (out["holds"] and lhs <= rhs):
                    bad[i].append(f"classical bound fails: {lhs} > {rhs}")
            sectors.setdefault((op["n"], op["constant"]), []).append(i)
    for (n, _), idx in sectors.items():
        total = sum(outs[i]["sector_roots"] for i in idx)
        degree = outs[idx[0]]["degree"]
        if total != degree:
            for i in idx:
                bad[i].append(f"sector counts sum to {total}, degree {degree}")
    return bad


# -- lattice --------------------------------------------------------------------------


def _element_value(element: Sequence, z):
    acc = mpmath.mpc(0)
    for c in reversed(element):
        acc = acc * z + mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
    return acc


def check_lattice_op(op: dict, out: dict) -> List[str]:
    """Reported d^2 against the 50-digit length of the returned element;
    (e log 2)/2 <= signature bound <= m <= min(1, m(alpha))."""
    bad: List[str] = []
    coeffs = out["coeffs"]
    real, upper = split(mp_roots(coeffs))
    s, t = len(real), len(upper)
    if list(out["signature"]) != [s, t]:
        bad.append(f"signature {out['signature']}, roots give {(s, t)}")
        return bad
    element = out["element"]
    if list(element) != list(out["coordinates"]):
        bad.append("coordinates and element differ over the power basis")
    if not any(Fraction(c) for c in element):
        bad.append("zero element")
        return bad
    with mpmath.workdps(DPS):
        length = mpmath.fsum(_element_value(element, r).real ** 2 for r in real)
        length += mpmath.fsum(abs(_element_value(element, z)) ** 2 for z in upper)
        m_alpha = m_of(real, upper)
    d2 = out["squared_length"]
    if abs(d2 - length) > REL_TOL * length:
        bad.append(f"d^2 {d2}, 50-digit length of the element {mpmath.nstr(length, 15)}")
    m = out["m"]
    bound = signature_bound(s, t)
    if not UNIVERSAL_FLOOR <= bound + 1e-12:
        bad.append(f"signature bound {bound} below (e log 2)/2")
    if m < bound - REL_TOL:
        bad.append(f"m {m} below the signature bound {bound}")
    if m > min(1.0, float(m_alpha)) + REL_TOL:
        bad.append(f"m {m} above min(1, m(alpha)) = {min(1.0, float(m_alpha))}")
    return bad


def check_lattice(ops: List[dict], outs: List[dict]) -> Dict[int, List[str]]:
    """Problems per operation index; multinacci(n) must also give the same
    d^2 as truncated_geom(n), which spans the same order."""
    bad = {i: check_lattice_op(op, out) for i, (op, out) in enumerate(zip(ops, outs))}
    tg = {op["n"]: out["squared_length"] for op, out in zip(ops, outs)
          if op["family"] == "truncated_geom"}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if op["family"] == "multinacci" and op["n"] in tg:
            if not _close(out["squared_length"], tg[op["n"]], REL_TOL):
                bad[i].append(
                    f"d^2 {out['squared_length']}, truncated_geom({op['n']}) gives {tg[op['n']]}"
                )
    return bad


def check_pass(workload: str, ops: List[dict], outs: List[dict], tables=None) -> Dict[int, List[str]]:
    """Problems per operation of one pass. An operation that raised has its
    error as its problem."""
    live = [i for i, out in enumerate(outs) if "error" not in out]
    bad: Dict[int, List[str]] = {
        i: [out["error"].strip().splitlines()[-1]] for i, out in enumerate(outs) if "error" in out
    }
    sub_ops = [ops[i] for i in live]
    sub_outs = [outs[i] for i in live]
    if workload == "search":
        found = {}
        for i, op, out in zip(live, sub_ops, sub_outs):
            found[i] = check_search(op, out, (tables or {}).get(op["n"]))
    elif workload == "families":
        part = check_families(sub_ops, sub_outs)
        found = {live[j]: v for j, v in part.items()}
    else:
        part = check_lattice(sub_ops, sub_outs)
        found = {live[j]: v for j, v in part.items()}
    bad.update({i: v for i, v in found.items() if v})
    return bad
