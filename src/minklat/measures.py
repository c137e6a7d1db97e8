"""Size measures of algebraic integers and the closed-form bounds relating
them: sums of squared conjugates, normalised square size m, behaviour under
field extensions, and the norm/signature lower bounds.

Conventions: C(alpha) sums squared moduli over one representative per complex
pair (t terms, not 2t).  norm_abs is read exactly off the minimal polynomial's
constant term.  Floating bound comparisons carry a 1e-9 relative guard; a
comparison inside the guard raises instead of guessing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .constants import UNIVERSAL_M_FLOOR
from .roots import ConjugateSet, InconclusiveError

COMPARISON_GUARD = 1e-9

# printed alongside every relative-size report; the formula silently assumes it
LINEAR_DISJOINTNESS_CAVEAT = (
    "relative sizes assume the extension is linearly disjoint from the "
    "element's field and totally independent in signature; this is the "
    "caller's obligation and is not checkable from the profile"
)


@dataclass(frozen=True)
class SizeProfile:
    """Size measures of one algebraic integer, derived from certified roots."""

    signature: Tuple[int, int]
    R: float
    C: float
    abs_square_size: float
    m: float
    norm_abs: int
    mahler: float

    @property
    def s(self) -> int:
        return self.signature[0]

    @property
    def t(self) -> int:
        return self.signature[1]

    @property
    def degree(self) -> int:
        return self.s + 2 * self.t


@dataclass(frozen=True)
class ExtensionSignature:
    """Signature data (s2, 2t2 conjugates) of an auxiliary extension field."""

    s2: int
    t2: int

    def __post_init__(self):
        if self.s2 < 0 or self.t2 < 0 or self.s2 + 2 * self.t2 < 1:
            raise ValueError("extension signature needs s2, t2 >= 0 and s2 + 2t2 >= 1")


def size_profile(roots: ConjugateSet) -> SizeProfile:
    """All size measures of the element whose conjugates are given."""
    p = roots.polynomial
    r_sum = math.fsum(r * r for r in roots.real_roots)
    c_sum = math.fsum(z.real * z.real + z.imag * z.imag for z in roots.complex_reps)
    total = r_sum + c_sum
    denom = roots.s + roots.t
    mahler = 1.0
    for z in roots.all_roots():
        a = abs(z)
        if a > 1.0:
            mahler *= a
    return SizeProfile(
        signature=(roots.s, roots.t),
        R=r_sum,
        C=c_sum,
        abs_square_size=total,
        m=total / denom,
        norm_abs=abs(p.constant_term),
        mahler=mahler,
    )


def relative_square_size(profile: SizeProfile, ext: ExtensionSignature) -> float:
    """Squared size of the element inside the compositum with an extension of
    signature (s2, t2): (s2+t2)*R + (s2+2t2)*C.
    """
    return (ext.s2 + ext.t2) * profile.R + (ext.s2 + 2 * ext.t2) * profile.C


def compositum_signature(
    sig1: Tuple[int, int], sig2: ExtensionSignature
) -> Tuple[int, int]:
    """Signature of the compositum of fields with signatures (s1,t1), (s2,t2)."""
    s1, t1 = sig1
    return (s1 * sig2.s2, s1 * sig2.t2 + sig2.s2 * t1 + 2 * t1 * sig2.t2)


def relative_m(profile: SizeProfile, ext: ExtensionSignature) -> float:
    """Normalised square size of the element viewed in the compositum."""
    s, t = compositum_signature(profile.signature, ext)
    if s + t < 1:
        raise ValueError("degenerate compositum signature")
    return relative_square_size(profile, ext) / (s + t)


def mk_lt_one_criterion(profile: SizeProfile, ext: ExtensionSignature) -> bool:
    """Decide t2/(s2+t2) < (s1+t1-R-C)/(C-t1), the criterion for the
    compositum to have minimal normalised size below 1.

    Requires m(alpha) < 1; the two sides are cross-checked against
    relative_m < 1, which is algebraically the same inequality.
    """
    if profile.m >= 1.0:
        raise ValueError("hypothesis violated")
    s1, t1 = profile.signature
    denom = profile.C - t1
    if denom <= 0:
        raise ValueError("inconsistent profile")
    lhs = ext.t2 / (ext.s2 + ext.t2)
    rhs = (s1 + t1 - profile.R - profile.C) / denom
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) < COMPARISON_GUARD * scale:
        raise InconclusiveError("inconclusive at tolerance")
    verdict = lhs < rhs
    rel = relative_m(profile, ext)
    if abs(rel - 1.0) >= COMPARISON_GUARD and (rel < 1.0) != verdict:
        raise RuntimeError("criterion disagrees with relative size; internal error")
    return verdict


def norm_lower_bound(n: int, s: int, norm_abs: int) -> float:
    """Lower bound n * 2^(s/n-1) * |Nm|^(2/n) for the squared size."""
    if n < 1 or s < 0 or s > n or (n - s) % 2 != 0:
        raise ValueError(f"invalid signature: n={n}, s={s}")
    if norm_abs < 1:
        raise ValueError("norm_abs must be a positive integer")
    return n * 2.0 ** (s / n - 1.0) * norm_abs ** (2.0 / n)


def m_lower_bound_signature(s: int, t: int) -> float:
    """Signature-only lower bound (s*2^(-2t/n) + t*2^(s/n)) / (s+t), n = s+2t."""
    if s < 0 or t < 0 or s + t < 1:
        raise ValueError("need s, t >= 0 with s + t >= 1")
    n = s + 2 * t
    return (s * 2.0 ** (-2.0 * t / n) + t * 2.0 ** (s / n)) / (s + t)


def unit_necessity_gate(n: int, norm_abs: int) -> bool:
    """True when no element of degree n with this norm can reach m < 1,
    i.e. floor * |Nm|^(2/n) >= 1.  At n <= 23 this holds for every norm >= 2,
    so only units are worth enumerating there.
    """
    if n < 1 or norm_abs < 1:
        raise ValueError("need n >= 1 and norm_abs >= 1")
    return UNIVERSAL_M_FLOOR * norm_abs ** (2.0 / n) >= 1.0


def root_extract_profile(base: ConjugateSet, n: int) -> SizeProfile:
    """Size profile of an nth root (n odd) of the base element, assuming the
    extract has full degree n over the base field (caller's obligation).

    Each real conjugate alpha_i contributes one real nth root and (n-1)/2
    complex pairs, all of squared modulus |alpha_i|^(2/n); each complex pair
    contributes n pairs of squared modulus |alpha_j|^(2/n).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("need odd n >= 1")
    if n == 1:
        return size_profile(base)
    s1, t1 = base.s, base.t
    real_pow = [abs(r) ** (2.0 / n) for r in base.real_roots]
    cplx_pow = [abs(z) ** (2.0 / n) for z in base.complex_reps]
    r_sum = math.fsum(real_pow)
    c_sum = (n - 1) / 2.0 * math.fsum(real_pow) + n * math.fsum(cplx_pow)
    s = s1
    t = (n - 1) * s1 // 2 + n * t1
    total = r_sum + c_sum

    prof = size_profile(base)
    return SizeProfile(
        signature=(s, t),
        R=r_sum,
        C=c_sum,
        abs_square_size=total,
        m=total / (s + t),
        norm_abs=prof.norm_abs,
        mahler=prof.mahler,
    )
