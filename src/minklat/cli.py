"""Command-line surface.

Each subcommand binds one library module: analyze (roots and size measures of
one polynomial), search (full-degree enumeration), lattice (embedding and
shortest vector), family (named constructions with their location checks),
verify (the check suite).  This module is the one report writer: the library
returns plain results, and every report's keys, column order and number
formats are set here.  Reports are assembled in memory and written once, so an
error path never leaves a partial report behind.  One csv.writer writes every
csv report, so a field holding a comma or a quote is quoted.

Exit codes: 2 for unusable arguments (click usage errors and polynomial parse
errors), 1 for computation errors and for any verify verdict that is not a
pass, 0 otherwise.
"""
import csv
import io
import json
import math
import re
from typing import List, Optional, Sequence, Tuple

import click

from .constants import UNIVERSAL_M_FLOOR
from .intpoly import (
    IntPolynomial,
    discriminant,
    even_spread,
    multinacci,
    multinacci_cofactor,
    parse_polynomial,
    root_power,
    truncated_geom,
)
from .lattice import ORDER_CAVEAT, build_embedding, shortest_vector
from .measures import (
    LINEAR_DISJOINTNESS_CAVEAT,
    ExtensionSignature,
    compositum_signature,
    m_lower_bound_signature,
    mk_lt_one_criterion,
    relative_m,
    relative_square_size,
    size_profile,
)
from .roots import (
    InconclusiveError,
    find_roots,
    multinacci_location_check,
    pisot_check,
)
from .search import SearchReport, enumerate_m_lt_one
from .verify import (
    CheckRecord,
    check_cubic2,
    check_erdos_turan_suite,
    check_kiy,
    run_suite,
)


def _parse_polynomial(text: str) -> IntPolynomial:
    """Accept either an expression like ``x^3-x-1`` or a coefficient list
    like ``1,0,-1,-1`` or ``1 0 -1 -1`` (leading coefficient first).
    """
    raw = text.strip()
    if not raw:
        raise click.UsageError("empty polynomial")
    if "x" in raw:
        try:
            return parse_polynomial(raw)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    try:
        desc = [int(p) for p in re.split(r"\s*,\s*|\s+", raw)]
    except ValueError:
        raise click.UsageError(f"cannot parse coefficient list: {text!r}")
    if desc[0] == 0:
        raise click.UsageError("leading coefficient must be nonzero")
    return IntPolynomial(tuple(reversed(desc)))


def _parse_signature(text: Optional[str]) -> Optional[Tuple[int, int]]:
    if text is None:
        return None
    cleaned = text.strip().strip("()")
    parts = [p for p in re.split(r"[,\s]+", cleaned) if p]
    if len(parts) != 2:
        raise click.UsageError("signature must be two integers, e.g. 2,2")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise click.UsageError("signature must be two integers, e.g. 2,2")


_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "text"]),
    default="text",
    show_default=True,
    help="report format",
)
_PRECISION = click.option(
    "--precision",
    type=click.IntRange(1, 17),
    default=9,
    show_default=True,
    help="decimal places for numbers in text and csv reports",
)


# -- report layout ------------------------------------------------------------------


def _entries_json(entries: Sequence[Tuple[IntPolynomial, float]]) -> List[dict]:
    return [{"polynomial": p.to_text(), "m": m} for p, m in entries]


def _search_rows(report: SearchReport) -> List[Tuple[str, str, str, str]]:
    """(signature, polynomial, m, lower bound) per found polynomial."""
    rows = []
    for g in report.groups:
        sig = f"({g.signature[0]},{g.signature[1]})"
        for p, m in g.entries:
            rows.append((sig, p.to_text(), f"{m:.9f}", f"{g.lower_bound:.9f}"))
    return rows


def _csv_report(
    header: str, rows: Sequence[Sequence[object]], caveat: Optional[str] = None
) -> None:
    """Write the comma-separated header and the rows as csv, then the caveat
    as a # comment line."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    if caveat is not None:
        out.write(f"# {caveat}\n")
    click.echo(out.getvalue(), nl=False)


def _finite_or_text(x: object) -> object:
    """JSON has no inf or nan, so a non-finite float is written as its text."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _check_json(r: CheckRecord) -> dict:
    return {
        "check_id": r.check_id,
        "parameters": {k: _finite_or_text(v) for k, v in r.parameters.items()},
        "observed": _finite_or_text(r.observed),
        "predicted": _finite_or_text(r.predicted),
        "residual": _finite_or_text(r.residual),
        "scaled_residual": _finite_or_text(r.scaled_residual),
        "verdict": r.verdict,
        "detail": r.detail,
    }


@click.group()
def main() -> None:
    """Size measures, searches, and lattice computations for algebraic
    integers under the canonical embedding."""


@main.command()
@click.argument("polynomial")
@click.option(
    "--extension",
    default=None,
    help="signature s2,t2 of a linearly disjoint extension; adds the "
    "relative-size report for the compositum",
)
@_FORMAT
@_PRECISION
def analyze(
    polynomial: str, extension: Optional[str], fmt: str, precision: int
) -> None:
    """Roots, signature, and size measures of one monic polynomial."""
    p = _parse_polynomial(polynomial)
    ext_sig = _parse_signature(extension)
    try:
        roots = find_roots(p)
        prof = size_profile(roots)
        # a linear polynomial has no root pairs to separate
        disc = discriminant(p) if p.degree >= 2 else 1
        bound = m_lower_bound_signature(prof.s, prof.t)
        rel = None
        if ext_sig is not None:
            ext = ExtensionSignature(*ext_sig)
            if prof.m >= 1.0:
                criterion = "not applicable (m >= 1)"
            else:
                try:
                    criterion = mk_lt_one_criterion(prof, ext)
                except InconclusiveError:
                    criterion = "inconclusive"
            rel = {
                "extension_signature": list(ext_sig),
                "compositum_signature": list(
                    compositum_signature(prof.signature, ext)
                ),
                "relative_square_size": relative_square_size(prof, ext),
                "relative_m": relative_m(prof, ext),
                "m_below_one_in_compositum": criterion,
                "caveat": LINEAR_DISJOINTNESS_CAVEAT,
            }
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        payload = {
            "polynomial": p.to_text(),
            "s": prof.s,
            "t": prof.t,
            "R": prof.R,
            "C": prof.C,
            "abs_square_size": prof.abs_square_size,
            "m": prof.m,
            "norm_abs": prof.norm_abs,
            "mahler": prof.mahler,
            "discriminant": disc,
            "signature_lower_bound": bound,
            "universal_floor": UNIVERSAL_M_FLOOR,
            "clears_signature_bound": prof.m >= bound,
        }
        if rel is not None:
            payload["relative"] = rel
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    d = precision
    if fmt == "csv":
        header = "polynomial,s,t,m,lower_bound"
        row = [p.to_text(), prof.s, prof.t, f"{prof.m:.{d}f}", f"{bound:.{d}f}"]
        if rel is None:
            _csv_report(header, [row])
        else:
            header += ",ext_s,ext_t,relative_square_size,relative_m"
            sizes = (rel["relative_square_size"], rel["relative_m"])
            row += [*ext_sig, *(f"{x:.{d}f}" for x in sizes)]
            _csv_report(header, [row], LINEAR_DISJOINTNESS_CAVEAT)
        return
    lines = [
        f"polynomial      {p.to_text()}",
        f"degree          {p.degree}",
        f"signature       ({prof.s},{prof.t})",
        f"real sum R      {prof.R:.{d}f}",
        f"pair sum C      {prof.C:.{d}f}",
        f"square size     {prof.abs_square_size:.{d}f}",
        f"m               {prof.m:.{d}f}",
        f"mahler          {prof.mahler:.{d}f}",
        f"|norm|          {prof.norm_abs}",
        f"discriminant    {disc}",
        f"signature bound {bound:.{d}f} ({'met' if prof.m >= bound else 'VIOLATED'})",
        f"universal floor {UNIVERSAL_M_FLOOR:.{d}f} ({'met' if prof.m >= UNIVERSAL_M_FLOOR else 'VIOLATED'})",
    ]
    if rel is not None:
        comp = rel["compositum_signature"]
        lines += [
            f"extension       ({ext_sig[0]},{ext_sig[1]})",
            f"compositum      ({comp[0]},{comp[1]})",
            f"relative size   {rel['relative_square_size']:.{d}f}",
            f"relative m      {rel['relative_m']:.{d}f}",
            f"m < 1 in comp.  {rel['m_below_one_in_compositum']}",
            f"note: {LINEAR_DISJOINTNESS_CAVEAT}",
        ]
    click.echo("\n".join(lines))


@main.command()
@click.argument("degree", type=int)
@click.option("--signature", default=None, help="restrict to one signature, e.g. 2,2")
@click.option("--threads", type=click.IntRange(1, 64), default=1, show_default=True)
@_FORMAT
def search(
    degree: int,
    signature: Optional[str],
    threads: int,
    fmt: str,
) -> None:
    """Enumerate all monic integer polynomials of one degree with m < 1."""
    sig = _parse_signature(signature)
    try:
        report = enumerate_m_lt_one(degree, signature_filter=sig, threads=threads)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        # report.wall_time is diagnostics, kept out to keep the report byte-stable
        payload = {
            "degree": report.degree,
            "groups": [
                {
                    "signature": list(g.signature),
                    "count": g.count,
                    "lower_bound": g.lower_bound,
                    "polynomials": _entries_json(g.entries),
                }
                for g in report.groups
            ],
            "inconclusive": _entries_json(report.inconclusive),
            "stats": dict(report.stats),
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    rows = _search_rows(report)
    if fmt == "csv":
        _csv_report("signature,polynomial,m,lower_bound", rows)
        return
    lines = [f"degree {degree}: {report.total_count()} polynomials with m < 1"]
    for group in report.groups:
        lines.append(
            f"signature ({group.signature[0]},{group.signature[1]}): "
            f"{group.count} found, lower bound {group.lower_bound:.9f}"
        )
    if rows:
        width = max(len(r[1]) for r in rows)
        for sig_txt, poly, m, bound in rows:
            lines.append(f"  {sig_txt}  {poly:<{width}}  m={m}  bound={bound}")
    if report.inconclusive:
        lines.append("inconclusive (within 1e-9 of 1):")
        for poly, m in report.inconclusive:
            lines.append(f"  {poly.to_text()}  m={m!r}")
    click.echo("\n".join(lines))


@main.command()
@click.argument("polynomial")
@_FORMAT
@_PRECISION
def lattice(polynomial: str, fmt: str, precision: int) -> None:
    """Embed Z[alpha] for a monic irreducible polynomial and report the
    shortest vector, m, and the exact minimizer."""
    p = _parse_polynomial(polynomial)
    try:
        roots = find_roots(p)
        lat = build_embedding(roots)
        sv = shortest_vector(lat)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        payload = {
            "polynomial": p.to_text(),
            "dimension": lat.dimension,
            "signature": list(lat.signature),
            "determinant": lat.determinant,
            "order_discriminant": str(lat.order_disc),
            "shortest": {
                "squared_length": sv.squared_length,
                "coordinates": list(sv.coordinates),
                "element_poly": [str(c) for c in sv.element_poly],
                "m": sv.m_value,
                "method": sv.method,
                "minimizer_degree": sv.minimizer_degree,
                "minimizer_minpoly": (
                    sv.minimizer_minpoly.to_text() if sv.minimizer_minpoly else None
                ),
            },
            "caveat": ORDER_CAVEAT,
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    d = precision
    if fmt == "csv":
        coords = " ".join(str(c) for c in sv.coordinates)
        minpoly = sv.minimizer_minpoly.to_text() if sv.minimizer_minpoly else ""
        numbers = [f"{x:.{d}f}" for x in (sv.squared_length, sv.m_value)]
        row = [p.to_text(), lat.dimension, *lat.signature, *numbers, coords, minpoly]
        _csv_report(
            "polynomial,dimension,s,t,d_squared,m,coordinates,minimizer_minpoly",
            [row],
            ORDER_CAVEAT,
        )
        return
    lines = [
        f"polynomial      {p.to_text()}",
        f"dimension       {lat.dimension}",
        f"signature       ({lat.signature[0]},{lat.signature[1]})",
        f"determinant     {lat.determinant:.{d}f}",
        f"order disc      {lat.order_disc}",
        f"d^2             {sv.squared_length:.{d}f}",
        f"m               {sv.m_value:.{d}f}",
        f"coordinates     ({', '.join(str(c) for c in sv.coordinates)})",
        f"element         {' + '.join(f'{c}*a^{i}' for i, c in enumerate(sv.element_poly) if c) or '0'}",
        f"minimizer deg   {sv.minimizer_degree}",
        f"minimizer poly  {sv.minimizer_minpoly.to_text() if sv.minimizer_minpoly else '-'}",
        f"method          {sv.method}",
        f"note: {ORDER_CAVEAT}",
    ]
    click.echo("\n".join(lines))


@main.command()
@click.argument(
    "kind",
    type=click.Choice(
        ["multinacci", "cofactor", "truncated-geom", "even-spread", "root-power"]
    ),
)
@click.argument("n", type=int)
@_FORMAT
@_PRECISION
def family(kind: str, n: int, fmt: str, precision: int) -> None:
    """One member of a named polynomial family with its location checks."""
    d = precision
    try:
        if kind == "multinacci":
            p = multinacci(n)
            loc = multinacci_location_check(n)
            pisot = pisot_check(find_roots(p))
            checks = {
                "dominant_in_window": loc.dominant_in_window,
                "second_real_ok": loc.second_real_ok,
                "annulus_ok": loc.annulus_ok,
                "pisot": pisot,
            }
        elif kind == "cofactor":
            p = multinacci_cofactor(n)
            (rec,) = check_erdos_turan_suite((n,))
            checks = {
                "sector_bound_holds": rec.verdict == "pass",
                "sectors": rec.parameters["sectors"],
            }
        elif kind == "truncated-geom":
            p = truncated_geom(n)
            prof = size_profile(find_roots(p))
            checks = {
                "signature": f"({prof.s},{prof.t})",
                "square_size": f"{prof.abs_square_size:.{d}f}",
                "m": f"{prof.m:.{d}f}",
            }
        elif kind == "even-spread":
            p = even_spread(n)
            rec = check_kiy((n - 2) // 4)
            s, t = rec.parameters["signature"]
            checks = {
                "signature": f"({s},{t})",
                "square_size": f"{rec.observed:.{d}f}",
                "m": f"{rec.parameters['m_observed']:.{d}f}",
                "irreducibility": rec.parameters["irreducibility"],
            }
        else:
            p = root_power(n)
            rec = check_cubic2(n)
            checks = {
                "m": f"{rec.observed:.{d}f}",
                "closed_form_m": f"{rec.predicted:.{d}f}",
                "m_below_one": rec.verdict == "pass",
                "irreducibility": rec.parameters["irreducibility"],
            }
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        payload = {"kind": kind, "n": n, "polynomial": p.to_text(), "checks": checks}
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        _csv_report(
            "kind,n,polynomial," + ",".join(checks),
            [[kind, n, p.to_text(), *checks.values()]],
        )
        return
    lines = [f"kind        {kind}", f"n           {n}", f"polynomial  {p.to_text()}"]
    for key, value in checks.items():
        lines.append(f"{key:<18} {value}")
    click.echo("\n".join(lines))


@main.command()
@click.option(
    "--suite",
    type=click.Choice(["fast", "all"]),
    default="fast",
    show_default=True,
    help="which check suite to run",
)
@_FORMAT
def verify(suite: str, fmt: str) -> None:
    """Run the verification suite; exits nonzero unless every check passes."""
    try:
        records = run_suite(suite)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    failed = [r for r in records if r.verdict != "pass"]
    if fmt == "json":
        click.echo(json.dumps([_check_json(r) for r in records], indent=2, sort_keys=True))
    elif fmt == "csv":
        rows = [
            [r.check_id, json.dumps(r.parameters, sort_keys=True, default=str)]
            + [repr(x) for x in (r.observed, r.predicted, r.residual, r.scaled_residual)]
            + [r.verdict]
            for r in records
        ]
        _csv_report(
            "check_id,parameters,observed,predicted,residual,scaled_residual,verdict",
            rows,
        )
    else:
        lines: List[str] = []
        for r in records:
            params = json.dumps(r.parameters, sort_keys=True, default=str)
            lines.append(
                f"[{r.verdict:<4}] {r.check_id} {params} "
                f"observed={r.observed!r} predicted={r.predicted!r} "
                f"scaled_residual={r.scaled_residual!r}"
            )
        lines.append(
            f"{len(records)} checks: {len(records) - len(failed)} passed, "
            f"{len(failed)} not passed"
        )
        click.echo("\n".join(lines))
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
