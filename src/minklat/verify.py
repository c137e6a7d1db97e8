"""Numeric verification suite.

Each check evaluates one proved statement on concrete instances and returns a
CheckRecord holding the observed and predicted values, the residual, and the
residual scaled by the statement's stated rate.

Asymptotic statements come with unstated O(.) constants, so their checks can
only assert boundedness: the scaled residual must stay below a regression
constant frozen from a reference run of this module (roughly 2x the measured
worst case, noted beside each constant).  A later run that pushes past a
frozen constant is a failure, never a new baseline.
"""
import json
import math
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .constants import (
    ERDOS_TURAN_CLASSICAL,
    ERDOS_TURAN_DEFAULT,
    INVERSE_PLASTIC_SQUARE_SIZE,
    PLASTIC_NUMBER,
)
from .intpoly import (
    IntPolynomial,
    even_spread,
    is_irreducible,
    is_irreducible_of_signature,
    multinacci_cofactor,
    root_power,
    truncated_geom,
)
from .measures import (
    ExtensionSignature,
    compositum_signature,
    relative_square_size,
    root_extract_profile,
    size_profile,
)
from .roots import erdos_turan_check, find_roots
from .search import (
    SearchReport,
    _orbit,
    _to_polynomial,
    _walk,
    enumerate_m_lt_one,
)

LOG2 = math.log(2.0)

# Family irreducibility is certified through degree 12 and flagged as assumed
# above it. The mod-p degree sets in is_irreducible reach further, but the
# threshold stays for now: raising it changes report bytes, and slows the
# family checks. The stage takes 0.17-0.18 s on even_spread(102), 0.22-0.24 s
# on even_spread(122) and 0.012-0.018 s on root_power(40) (best of 2-3 runs,
# Python 3.11, 2-core Xeon); the families benchmark's kiy check at k = 30
# (degree 122) and cubic2 check at n = 40 (degree 120) sit above the
# threshold, so raising it adds about 0.2 s to every families pass.
CERTIFIED_IRREDUCIBILITY_DEGREE = 12

# Frozen regression bounds for the scaled residuals.  Reference-run worst
# cases, measured over the same ranges the "all" suite covers:
#   sum asymptotic  0.18 (q=1) / 0.29 (q=2) over n <= 800, scaling ~linear in q
#   square size     0.69 over n <= 801, trace remainder x n: 2.74
#   even-spread     norm 0.17, m 0.26, over k <= 100
#   compositum      0.071 over s <= 8, k <= 12
#   root extract    0.261 at n in {5, 15, 45}
#   hyperfactorial  residual in [0.248754, 0.249091] over s <= 500
SUM_ASYMPTOTIC_BOUND = 0.5
SQUARE_SIZE_BOUND = 1.2
TRACE_REMAINDER_BOUND = 4.5
EVEN_SPREAD_NORM_BOUND = 0.35
EVEN_SPREAD_M_BOUND = 0.5
COMPOSITUM_BOUND = 0.15
ROOT_EXTRACT_BOUND = 0.5
HYPERFACTORIAL_WINDOW = (0.2, 0.3)

# Two evaluation paths of the root-power closed form must agree to this.
CLOSED_FORM_TOL = 1e-8

EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check."""

    check_id: str
    parameters: Dict[str, object]
    observed: float
    predicted: float
    residual: float
    scaled_residual: float
    verdict: str
    detail: str = ""


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _irreducibility(p: IntPolynomial) -> Tuple[str, bool]:
    """("certified", verdict) through CERTIFIED_IRREDUCIBILITY_DEGREE, else
    ("assumed", True)."""
    if p.degree <= CERTIFIED_IRREDUCIBILITY_DEGREE:
        return "certified", is_irreducible(p)
    return "assumed", True


def check_sum_asymptotic(n: int, q: float = 2.0) -> CheckRecord:
    """Sum of q-th power moduli over the complex upper-half conjugates of the
    truncated-geometric root: t + (q/2) log 2 + O(n^(-1/4)).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not q > 0:
        raise ValueError("need q > 0")
    roots = find_roots(truncated_geom(n))
    observed = math.fsum(abs(z) ** q for z in roots.complex_reps)
    predicted = roots.t + (q / 2.0) * LOG2
    residual = abs(observed - predicted)
    scaled = residual * n ** 0.25
    bound = SUM_ASYMPTOTIC_BOUND * max(1.0, q)
    return CheckRecord(
        check_id="sum_asymptotic",
        parameters={"n": n, "q": q, "t": roots.t, "bound": bound},
        observed=observed,
        predicted=predicted,
        residual=residual,
        scaled_residual=scaled,
        verdict=_verdict(scaled <= bound),
    )


def check_bhu1(n: int) -> CheckRecord:
    """Squared size of the truncated-geometric root: s + t - 3/4 + log 2 +
    O(n^(-1/4)); the real-part sum alone is s - 3/4 + O(1/n).

    n = 2 is the degenerate totally real case: both remainders collapse and
    the exact value R = 3 (the golden trace equality) is asserted instead.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    roots = find_roots(truncated_geom(n))
    prof = size_profile(roots)
    s, t = roots.signature
    if n == 2:
        residual = abs(prof.R - 3.0)
        return CheckRecord(
            check_id="square_size_asymptotic",
            parameters={"n": 2, "signature": [s, t], "degenerate": True},
            observed=prof.R,
            predicted=3.0,
            residual=residual,
            scaled_residual=residual,
            verdict=_verdict(residual <= 1e-12),
            detail="totally real golden case; trace equality holds exactly",
        )
    predicted = s + t - 0.75 + LOG2
    residual = abs(prof.abs_square_size - predicted)
    scaled = residual * n ** 0.25
    trace_scaled = abs(prof.R - (s - 0.75)) * n
    ok = scaled <= SQUARE_SIZE_BOUND and trace_scaled <= TRACE_REMAINDER_BOUND
    return CheckRecord(
        check_id="square_size_asymptotic",
        parameters={
            "n": n,
            "signature": [s, t],
            "bound": SQUARE_SIZE_BOUND,
            "trace_scaled_residual": trace_scaled,
            "trace_bound": TRACE_REMAINDER_BOUND,
        },
        observed=prof.abs_square_size,
        predicted=predicted,
        residual=residual,
        scaled_residual=scaled,
        verdict=_verdict(ok),
    )


def check_kiy(k: int) -> CheckRecord:
    """Even-spread polynomial of degree n = 4k+2: signature (2, (n-2)/2),
    squared size n/2 + log 2 + O(n^(-1/4)), hence
    m = 1 - 2(1 - log 2)/(n + 2) + O(n^(-5/4)).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = 4 * k + 2
    p = even_spread(n)
    roots = find_roots(p)
    prof = size_profile(roots)
    sig_ok = roots.signature == (2, (n - 2) // 2)
    predicted = n / 2.0 + LOG2
    residual = abs(prof.abs_square_size - predicted)
    scaled = residual * n ** 0.25
    m_pred = 1.0 - 2.0 * (1.0 - LOG2) / (n + 2)
    m_scaled = abs(prof.m - m_pred) * n ** 1.25
    irreducibility, irr_ok = _irreducibility(p)
    ok = (
        sig_ok
        and irr_ok
        and scaled <= EVEN_SPREAD_NORM_BOUND
        and m_scaled <= EVEN_SPREAD_M_BOUND
    )
    return CheckRecord(
        check_id="even_spread_asymptotic",
        parameters={
            "k": k,
            "n": n,
            "signature": list(roots.signature),
            "bound": EVEN_SPREAD_NORM_BOUND,
            "m_observed": prof.m,
            "m_predicted": m_pred,
            "m_scaled_residual": m_scaled,
            "m_bound": EVEN_SPREAD_M_BOUND,
            "irreducibility": irreducibility,
        },
        observed=prof.abs_square_size,
        predicted=predicted,
        residual=residual,
        scaled_residual=scaled,
        verdict=_verdict(ok),
    )


def check_kiy1(s: int, k: int) -> CheckRecord:
    """Compositum bound: composing the even-spread field of degree 4k+2 with
    a totally real extension of signature (s/2, 0) gives a degree n = (2k+1)s
    field of signature (s, (n-s)/2) in which the embedded generator has
    squared size within O(s^(5/4) n^(-1/4)) of n/2 + s log(2)/2.
    """
    if s < 2 or s % 2:
        raise ValueError("s must be even and >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    base = find_roots(even_spread(4 * k + 2))
    prof = size_profile(base)
    ext = ExtensionSignature(s // 2, 0)
    n = (2 * k + 1) * s
    sig = compositum_signature(base.signature, ext)
    sig_ok = sig == (s, (n - s) // 2)
    composed = relative_square_size(prof, ext)
    predicted = n / 2.0 + s * LOG2 / 2.0
    residual = composed - predicted
    scaled = abs(residual) * n ** 0.25 / s ** 1.25
    return CheckRecord(
        check_id="compositum_bound",
        parameters={
            "s": s,
            "k": k,
            "n": n,
            "signature": list(sig),
            "bound": COMPOSITUM_BOUND,
        },
        observed=composed,
        predicted=predicted,
        residual=residual,
        scaled_residual=scaled,
        verdict=_verdict(sig_ok and scaled <= COMPOSITUM_BOUND),
    )


def check_cubic(report: Optional[SearchReport] = None) -> CheckRecord:
    """Every cubic unit with one real embedding has squared size at least
    theta + theta^(-2) = 1.894558..., met exactly by x^3+x^2-1 and
    x^3-x^2+1; additionally the norm-2 cubic x^3-2 clears squared size 3.
    """
    if report is None:
        report = enumerate_m_lt_one(3)
    floor = INVERSE_PLASTIC_SQUARE_SIZE
    violators: List[str] = []
    equality: List[str] = []
    worst = math.inf
    for group in report.groups:
        st = group.signature[0] + group.signature[1]
        for poly, m in group.entries:
            norm2 = st * m
            worst = min(worst, norm2)
            if norm2 < floor - EQUALITY_TOL:
                violators.append(poly.to_text())
            elif abs(norm2 - floor) <= EQUALITY_TOL:
                equality.append(poly.to_text())
    equality.sort()
    norm_case = size_profile(find_roots(IntPolynomial((-2, 0, 0, 1))))
    norm_ok = norm_case.abs_square_size >= 3.0 - 1e-12
    ok = (
        not violators
        and equality == ["x^3+x^2-1", "x^3-x^2+1"]
        and norm_ok
    )
    return CheckRecord(
        check_id="cubic_unit_floor",
        parameters={
            "violators": violators,
            "equality": equality,
            "norm2_cubic_square_size": norm_case.abs_square_size,
        },
        observed=worst,
        predicted=floor,
        residual=worst - floor,
        scaled_residual=abs(worst - floor),
        verdict=_verdict(ok),
    )


def check_cubic2(n: int) -> CheckRecord:
    """The n-th root of the inverse plastic number keeps m below one.

    Two evaluation paths must agree: the root computation on
    x^(3n) + x^(2n) - 1 and the closed form
    ((n+1)/2) theta^(-2/n) + n theta^(1/n) (n odd; (n+2)/2 for even n).
    Irreducibility is certified to degree 12 and assumed beyond (the family
    x^(3n)+x^(2n)-1 stays irreducible by Ljunggren's trinomial-style
    analysis), with the exact Sturm signature still verified either way.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p = root_power(n)
    roots = find_roots(p)
    prof = size_profile(roots)
    if n % 2:
        expect_sig = (1, (3 * n - 1) // 2)
        half = (n + 1) / 2.0
    else:
        expect_sig = (2, (3 * n - 2) // 2)
        half = (n + 2) / 2.0
    closed_norm = half * PLASTIC_NUMBER ** (-2.0 / n) + n * PLASTIC_NUMBER ** (1.0 / n)
    st = expect_sig[0] + expect_sig[1]
    closed_m = closed_norm / st
    agree = abs(prof.abs_square_size - closed_norm)
    irreducibility, irr_ok = _irreducibility(p)
    detail = ""
    if irreducibility == "assumed":
        detail = "irreducibility assumed for degree > 12 (Ljunggren family)"
    ok = (
        roots.signature == expect_sig
        and irr_ok
        and prof.m < 1.0
        and closed_m < 1.0
        and agree <= CLOSED_FORM_TOL
    )
    return CheckRecord(
        check_id="root_power_m_below_one",
        parameters={
            "n": n,
            "degree": p.degree,
            "signature": list(roots.signature),
            "closed_form_gap": agree,
            "irreducibility": irreducibility,
        },
        observed=prof.m,
        predicted=closed_m,
        residual=prof.m - closed_m,
        scaled_residual=agree,
        verdict=_verdict(ok),
        detail=detail,
    )


def check_schur(xs: Sequence[float]) -> CheckRecord:
    """Discriminant-style product bound for real points with a fixed sum of
    squares L: prod (x_i - x_j)^2 <= (L/(s^2-s))^((s^2-s)/2) prod k^k,
    compared in log space.

    The bound is homogeneous of degree s^2-s in the points, so it is
    compared on the points rescaled by the power of two 2^-e that puts
    max |x| in [1, 2). A power of two changes only the exponent, so the
    rescale is exact for every point it leaves in the normal range, and
    neither L nor a squared gap underflows or overflows merely because the
    points are small or large. Points count as repeated only when they are
    equal as given; a squared gap that still falls below the normal range
    enters as 2 log |x_i - x_j| of the given points. The record's
    observed and predicted values are shifted back by (s^2-s) e log 2, and
    sum_of_squares is L of the given points.

    Raises ValueError for fewer than 2 points, or unless some x != 0 (a
    nonzero point set). Repeated points give observed = -inf.
    """
    points = [float(x) for x in xs]
    s = len(points)
    if s < 2:
        raise ValueError("need at least 2 points")
    peak = max(abs(x) for x in points)
    if peak == 0.0:
        raise ValueError("need a nonzero point set")
    e = math.frexp(peak)[1] - 1
    scaled = [math.ldexp(x, -e) for x in points]
    big_l = math.fsum(x * x for x in scaled)
    lhs = 0.0
    for i in range(s):
        for j in range(i + 1, s):
            if points[i] == points[j]:
                lhs = -math.inf
                break
            d2 = (scaled[i] - scaled[j]) ** 2
            if d2 >= sys.float_info.min:
                lhs += math.log(d2)
            else:
                # d2 underflowed to 0 or to a subnormal that has lost bits;
                # the unscaled gap is small enough not to overflow
                lhs += 2 * (math.log(abs(points[i] - points[j])) - e * LOG2)
        if lhs == -math.inf:
            break
    pairs = (s * s - s) // 2
    rhs = pairs * math.log(big_l / (2 * pairs)) + math.fsum(
        k * math.log(k) for k in range(2, s + 1)
    )
    ok = lhs <= rhs + EQUALITY_TOL * max(1.0, abs(rhs))
    shift = 2 * pairs * e * LOG2
    # two steps of 2^e, since ldexp raises where this product overflows to inf
    sum_of_squares = big_l * 2.0**e * 2.0**e
    return CheckRecord(
        check_id="spread_product_bound",
        parameters={"points": s, "sum_of_squares": sum_of_squares},
        observed=lhs + shift,
        predicted=rhs + shift,
        residual=rhs - lhs,
        scaled_residual=rhs - lhs,
        verdict=_verdict(ok),
    )


def check_prod(s: int) -> CheckRecord:
    """Hyperfactorial growth: log prod k^k minus
    ((s^2+s)/2 + 1/12) log s - s^2/4 stays inside a fixed O(1) window.
    """
    if s < 2:
        raise ValueError("need s >= 2")
    observed = math.fsum(k * math.log(k) for k in range(2, s + 1))
    predicted = ((s * s + s) / 2.0 + 1.0 / 12.0) * math.log(s) - s * s / 4.0
    residual = observed - predicted
    lo, hi = HYPERFACTORIAL_WINDOW
    return CheckRecord(
        check_id="hyperfactorial_growth",
        parameters={"s": s, "window": [lo, hi]},
        observed=observed,
        predicted=predicted,
        residual=residual,
        scaled_residual=residual,
        verdict=_verdict(lo <= residual <= hi),
    )


# Family suite for the sector-count bound: dense through degree 100, then a
# coarse tail out to 400.
FULL_FAMILY_SUITE: Tuple[int, ...] = tuple(range(2, 101)) + (
    120,
    150,
    200,
    250,
    300,
    350,
    400,
)


def check_erdos_turan_suite(
    ns: Optional[Sequence[int]] = None,
) -> List[CheckRecord]:
    """Sector-count bound over the multinacci cofactor family, with both the
    classical constant 16 and the sharpened 2.619090, across 2k sectors of
    width pi/k for k = floor(n^(1/4)).
    """
    if ns is None:
        ns = FULL_FAMILY_SUITE
    records = []
    for n in ns:
        p = multinacci_cofactor(n)
        k = max(1, isqrt(isqrt(n)))
        worst = -math.inf
        all_hold = True
        for j in range(2 * k):
            phi = math.pi * j / k
            psi = math.pi * (j + 1) / k
            for constant in (ERDOS_TURAN_CLASSICAL, ERDOS_TURAN_DEFAULT):
                res = erdos_turan_check(p, phi, psi, constant=constant)
                all_hold = all_hold and res.holds
                worst = max(worst, res.lhs - res.rhs)
        records.append(
            CheckRecord(
                check_id="sector_count_bound",
                parameters={"n": n, "k": k, "sectors": 2 * k},
                observed=worst,
                predicted=0.0,
                residual=worst,
                scaled_residual=worst,
                verdict=_verdict(all_hold),
            )
        )
    return records


def check_smyth(max_degree: int = 5) -> CheckRecord:
    """Trace-form floor for totally real algebraic integers: every totally
    real irreducible monic polynomial of degree n has p2 = a_1^2 - 2 a_2 at
    least 3n/2, with equality exactly for x^2+x-1 and x^2-x-1.

    The candidates are the Newton-window walk of the totally real ball
    p2 <= 3n/2 and the mirror of each; ``scanned`` counts them.
    """
    if not 2 <= max_degree <= 5:
        raise ValueError("scan supports degrees 2 through 5")
    violators: List[str] = []
    equality: List[str] = []
    scanned = 0
    for n in range(2, max_degree + 1):
        leaves, _ = _walk(n, None, [1.5 * n], True)
        for coeffs in map(tuple, leaves.tolist()):
            # the mirror's roots are the negatives: same verdict, same p2
            members = _orbit(coeffs)
            scanned += len(members)
            if not is_irreducible_of_signature(_to_polynomial(coeffs, n), n):
                continue
            p2 = coeffs[0] * coeffs[0] - 2 * coeffs[1]
            texts = [_to_polynomial(c, n).to_text() for c in members]
            if 2 * p2 < 3 * n:
                violators.extend(texts)
            elif 2 * p2 == 3 * n:
                equality.extend(texts)
    equality.sort()
    ok = not violators and equality == ["x^2+x-1", "x^2-x-1"]
    return CheckRecord(
        check_id="trace_form_floor",
        parameters={
            "max_degree": max_degree,
            "scanned": scanned,
            "violators": violators,
            "equality": equality,
        },
        observed=float(len(violators)),
        predicted=0.0,
        residual=float(len(violators)),
        scaled_residual=float(len(violators)),
        verdict=_verdict(ok),
    )


def check_root_extract(n: int, base: Optional[IntPolynomial] = None) -> CheckRecord:
    """m of an odd n-th root of a fixed algebraic integer approaches
    1 + log|Nm| / (s+t) with an O(n^(-2)) remainder; (s, t) is the extract's
    signature.  Default base is x^3 - 2.
    """
    if base is None:
        base = IntPolynomial((-2, 0, 0, 1))
    base_roots = find_roots(base)
    base_prof = size_profile(base_roots)
    prof = root_extract_profile(base_roots, n)
    st = prof.signature[0] + prof.signature[1]
    predicted = 1.0 + math.log(base_prof.norm_abs) / st
    residual = prof.m - predicted
    scaled = abs(residual) * n * n
    return CheckRecord(
        check_id="root_extract_limit",
        parameters={
            "n": n,
            "base": base.to_text(),
            "signature": list(prof.signature),
            "bound": ROOT_EXTRACT_BOUND,
        },
        observed=prof.m,
        predicted=predicted,
        residual=residual,
        scaled_residual=scaled,
        verdict=_verdict(scaled <= ROOT_EXTRACT_BOUND),
    )


def _golden_conjugates() -> List[float]:
    roots = find_roots(IntPolynomial((-1, -1, 1)))
    return sorted(roots.real_roots)


def _suite_jobs(suite: str) -> List[Callable[[], object]]:
    jobs = [
        lambda: check_sum_asymptotic(50, 2.0),
        lambda: check_sum_asymptotic(200, 2.0),
        lambda: check_sum_asymptotic(402, 1.0),
        lambda: check_bhu1(2),
        lambda: check_bhu1(5),
        lambda: check_bhu1(101),
        lambda: check_kiy(1),
        lambda: check_kiy(12),
        lambda: check_kiy1(2, 1),
        lambda: check_kiy1(4, 1),
        check_cubic,
        lambda: check_cubic2(1),
        lambda: check_cubic2(2),
        lambda: check_cubic2(5),
        lambda: check_schur([1.0, -1.0]),
        lambda: check_schur(_golden_conjugates()),
        lambda: check_prod(2),
        lambda: check_prod(100),
        lambda: check_root_extract(5),
    ]
    if suite == "fast":
        return jobs + [
            lambda: check_erdos_turan_suite((10, 50, 100)),
            lambda: check_smyth(3),
        ]
    return jobs + [
        lambda: check_sum_asymptotic(3, 2.0),
        lambda: check_sum_asymptotic(100, 2.0),
        lambda: check_sum_asymptotic(400, 2.0),
        lambda: check_sum_asymptotic(800, 2.0),
        lambda: check_sum_asymptotic(50, 1.0),
        lambda: check_sum_asymptotic(100, 1.0),
        lambda: check_sum_asymptotic(200, 1.0),
        lambda: check_sum_asymptotic(800, 1.0),
        lambda: check_bhu1(51),
        lambda: check_bhu1(201),
        lambda: check_bhu1(401),
        lambda: check_bhu1(801),
        lambda: check_kiy(2),
        lambda: check_kiy(25),
        lambda: check_kiy(50),
        lambda: check_kiy(100),
        lambda: check_kiy1(2, 2),
        lambda: check_kiy1(2, 3),
        lambda: check_kiy1(2, 5),
        lambda: check_kiy1(2, 8),
        lambda: check_kiy1(2, 12),
        lambda: check_kiy1(4, 3),
        lambda: check_kiy1(6, 2),
        lambda: check_cubic2(3),
        lambda: check_cubic2(4),
        lambda: check_cubic2(8),
        lambda: check_cubic2(12),
        lambda: check_cubic2(20),
        lambda: check_cubic2(50),
        lambda: check_schur(
            sorted(find_roots(IntPolynomial((-1, -3, 0, 1))).real_roots)
        ),
        lambda: check_prod(3),
        lambda: check_prod(5),
        lambda: check_prod(10),
        lambda: check_prod(50),
        lambda: check_prod(500),
        lambda: check_root_extract(15),
        lambda: check_root_extract(45),
        check_erdos_turan_suite,
        lambda: check_smyth(5),
    ]


def run_suite(suite: str = "fast") -> List[CheckRecord]:
    """Run the named suite and return its records ordered by check id then
    parameters.
    """
    if suite not in ("fast", "all"):
        raise ValueError("unknown suite")
    records: List[CheckRecord] = []
    for job in _suite_jobs(suite):
        out = job()
        if isinstance(out, list):
            records.extend(out)
        else:
            records.append(out)
    records.sort(
        key=lambda r: (
            r.check_id,
            json.dumps(r.parameters, sort_keys=True, default=str),
        )
    )
    return records
