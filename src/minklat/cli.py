"""Command-line surface.

Each subcommand binds one library module: analyze (roots and size measures of
one polynomial), search (full-degree enumeration), lattice (embedding and
shortest vector), family (named constructions with their location checks),
verify (the check suite).  Reports are assembled in memory and written once,
so an error path never leaves a partial report behind.

Exit codes: 2 for unusable arguments (click usage errors and polynomial parse
errors), 1 for computation errors and for any verify verdict that is not a
pass, 0 otherwise.
"""
import json
import re
from typing import List, Optional, Tuple

import click

from .constants import UNIVERSAL_M_FLOOR
from .intpoly import (
    IntPolynomial,
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
from .search import enumerate_m_lt_one
from .verify import check_cubic2, check_erdos_turan_suite, check_kiy, run_suite


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
        payload = prof.to_json_dict()
        payload["polynomial"] = p.to_text()
        payload["signature_lower_bound"] = bound
        payload["universal_floor"] = UNIVERSAL_M_FLOOR
        payload["clears_signature_bound"] = prof.m >= bound
        if rel is not None:
            payload["relative"] = rel
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    d = precision
    if fmt == "csv":
        if rel is None:
            click.echo("polynomial,s,t,m,lower_bound")
            click.echo(prof.csv_row())
        else:
            click.echo(
                "polynomial,s,t,m,lower_bound,ext_s,ext_t,"
                "relative_square_size,relative_m"
            )
            click.echo(
                f"{prof.csv_row()},{ext_sig[0]},{ext_sig[1]},"
                f"{rel['relative_square_size']:.{d}f},{rel['relative_m']:.{d}f}"
            )
            click.echo(f"# {LINEAR_DISJOINTNESS_CAVEAT}")
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
        f"discriminant    {prof.discriminant}",
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
@click.option("--no-prune", is_flag=True, help="raw coefficient box (degree <= 4)")
@click.option("--threads", type=click.IntRange(1, 64), default=1, show_default=True)
@_FORMAT
def search(
    degree: int,
    signature: Optional[str],
    no_prune: bool,
    threads: int,
    fmt: str,
) -> None:
    """Enumerate all monic integer polynomials of one degree with m < 1."""
    sig = _parse_signature(signature)
    try:
        report = enumerate_m_lt_one(
            degree, signature_filter=sig, prune=not no_prune, threads=threads
        )
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        payload = report.to_json_dict()
        # timing is diagnostics, not report content; keep reports byte-stable
        payload.pop("wall_time", None)
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    rows = report.csv_rows()
    if fmt == "csv":
        click.echo("signature,polynomial,m,lower_bound")
        for row in rows:
            click.echo(",".join(row))
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
            "shortest": sv.to_json_dict(),
            "caveat": ORDER_CAVEAT,
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    d = precision
    if fmt == "csv":
        click.echo("polynomial,dimension,s,t,d_squared,m,coordinates,minimizer_minpoly")
        coords = " ".join(str(c) for c in sv.coordinates)
        minpoly = sv.minimizer_minpoly.to_text() if sv.minimizer_minpoly else ""
        click.echo(
            f"{p.to_text()},{lat.dimension},{lat.signature[0]},{lat.signature[1]},"
            f"{sv.squared_length:.{d}f},{sv.m_value:.{d}f},{coords},{minpoly}"
        )
        click.echo(f"# {ORDER_CAVEAT}")
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
        click.echo("kind,n,polynomial," + ",".join(checks))
        click.echo(
            f"{kind},{n},{p.to_text()},"
            + ",".join(str(v) for v in checks.values())
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
        click.echo(json.dumps([r.to_json_dict() for r in records], indent=2, sort_keys=True))
    elif fmt == "csv":
        click.echo("check_id,parameters,observed,predicted,residual,scaled_residual,verdict")
        for r in records:
            params = json.dumps(r.parameters, sort_keys=True, default=str)
            click.echo(
                f'{r.check_id},"{params}",{r.observed!r},{r.predicted!r},'
                f"{r.residual!r},{r.scaled_residual!r},{r.verdict}"
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
