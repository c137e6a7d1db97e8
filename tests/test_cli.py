"""CLI surface tests.

Every invocation goes through click's test runner; expected numbers are the
same frozen oracle values the library tests pin, so these tests only exercise
parsing, formatting, exit codes, and determinism.
"""
import json

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from minklat.cli import _parse_polynomial, main
from minklat.intpoly import IntPolynomial
from minklat.lattice import ORDER_CAVEAT
from minklat.measures import LINEAR_DISJOINTNESS_CAVEAT


@pytest.fixture()
def runner():
    return CliRunner()


# -- analyze ------------------------------------------------------------------------


def test_analyze_text_sextic(runner):
    result = runner.invoke(main, ["analyze", "x^6+x^2-1"])
    assert result.exit_code == 0
    assert "signature       (2,2)" in result.output
    assert "m               0.946467799" in result.output
    assert "universal floor 0.942084693 (met)" in result.output


def test_analyze_json_shape(runner):
    result = runner.invoke(main, ["analyze", "x^6+x^2-1", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["polynomial"] == "x^6+x^2-1"
    assert payload["m"] == pytest.approx(0.946467799117, abs=1e-9)
    assert payload["clears_signature_bound"] is True
    assert payload["discriminant"] == 61504


def test_analyze_csv(runner):
    result = runner.invoke(main, ["analyze", "x^3+x-1", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "polynomial,s,t,m,lower_bound"
    assert lines[1] == "x^3+x-1,1,1,0.965571232,0.944940787"


def test_analyze_precision_flag(runner):
    result = runner.invoke(main, ["analyze", "x^6+x^2-1", "--precision", "3"])
    assert result.exit_code == 0
    assert "m               0.946\n" in result.output


def test_analyze_coefficient_list_forms(runner):
    expr = runner.invoke(main, ["analyze", "x^2-2", "--format", "json"])
    spaced = runner.invoke(main, ["analyze", "1 0 -2", "--format", "json"])
    commas = runner.invoke(main, ["analyze", "1,0,-2", "--format", "json"])
    assert expr.output == spaced.output == commas.output
    assert json.loads(expr.output)["m"] == pytest.approx(2.0, abs=1e-12)


def test_analyze_extension_report_prints_hypothesis(runner):
    # the documented failure mode: for sqrt(2) inside the quartic field the
    # formula gives 8 while the true embedded size is 6; the report must
    # carry the linear-disjointness caveat that owns that gap
    result = runner.invoke(main, ["analyze", "x^2-2", "--extension", "1,1"])
    assert result.exit_code == 0
    assert "relative size   8.000000000" in result.output
    assert LINEAR_DISJOINTNESS_CAVEAT in result.output
    assert "not applicable (m >= 1)" in result.output


def test_analyze_extension_json_and_csv(runner):
    as_json = runner.invoke(
        main, ["analyze", "x^6+x^2-1", "--extension", "2,0", "--format", "json"]
    )
    payload = json.loads(as_json.output)
    assert payload["relative"]["caveat"] == LINEAR_DISJOINTNESS_CAVEAT
    assert payload["relative"]["compositum_signature"] == [4, 4]
    assert payload["relative"]["relative_square_size"] == pytest.approx(
        2 * 3.785871196468, abs=1e-8
    )
    as_csv = runner.invoke(
        main, ["analyze", "x^6+x^2-1", "--extension", "2,0", "--format", "csv"]
    )
    assert as_csv.output.strip().splitlines()[-1] == f"# {LINEAR_DISJOINTNESS_CAVEAT}"


def test_analyze_parse_error_is_usage_error(runner):
    result = runner.invoke(main, ["analyze", "x^2++"])
    assert result.exit_code == 2
    assert "cannot parse polynomial" in result.output


@pytest.mark.parametrize(
    "text",
    ["1 2x", "x2", "x x", "x^1 0", "x^2-x^2+1", "0x^2+x-1", "x-x", "3,,4", ",3", "1 0,,2"],
)
def test_analyze_rejected_polynomials_exit_2(runner, text):
    result = runner.invoke(main, ["analyze", text])
    assert result.exit_code == 2


def test_parser_whitespace_rule():
    # one grammar with the library: whitespace between tokens, never inside
    # a number; lists without x stay leading-first
    assert _parse_polynomial("x ^ 2 - 2") == IntPolynomial((-2, 0, 1))
    assert _parse_polynomial("x^10 - 2 x^5 + 1") == IntPolynomial(
        (1, 0, 0, 0, 0, -2, 0, 0, 0, 0, 1)
    )
    assert _parse_polynomial("2*x**2 - 1") == IntPolynomial((-1, 0, 2))
    assert _parse_polynomial("1 0 -2") == IntPolynomial((-2, 0, 1))
    assert _parse_polynomial("2 3") == IntPolynomial((3, 2))
    assert _parse_polynomial("1, 0 ,-2") == IntPolynomial((-2, 0, 1))
    with pytest.raises(click.UsageError, match="cannot parse polynomial near"):
        _parse_polynomial("1 2x")


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=9).filter(lambda c: c[-1]))
def test_parser_reads_text_and_leading_first_list(coeffs):
    p = IntPolynomial(coeffs)
    assert _parse_polynomial(p.to_text()) == p
    assert _parse_polynomial(",".join(str(c) for c in reversed(coeffs))) == p


def test_analyze_bad_signature_is_usage_error(runner):
    result = runner.invoke(main, ["analyze", "x^2-2", "--extension", "abc"])
    assert result.exit_code == 2


def test_analyze_computation_errors_exit_1(runner):
    repeated = runner.invoke(main, ["analyze", "x^2+4x+4"])
    assert repeated.exit_code == 1
    assert "squarefree" in repeated.output
    nonmonic = runner.invoke(main, ["analyze", "2x^2-1"])
    assert nonmonic.exit_code == 1
    assert "monic" in nonmonic.output


# -- search -------------------------------------------------------------------------


def test_search_csv_degree_3(runner):
    result = runner.invoke(main, ["search", "3", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "signature,polynomial,m,lower_bound"
    assert lines[1] == "(1,1),x^3-x^2+1,0.947279124,0.944940787"
    assert len(lines) == 5


def test_search_text_degree_4(runner):
    result = runner.invoke(main, ["search", "4"])
    assert result.exit_code == 0
    assert "degree 4: 3 polynomials with m < 1" in result.output
    assert "signature (2,1): 3 found" in result.output
    assert "x^4+x^2-1" in result.output


def test_search_json_is_deterministic_without_timing(runner):
    first = runner.invoke(main, ["search", "4", "--format", "json"])
    second = runner.invoke(
        main, ["search", "4", "--format", "json", "--threads", "2"]
    )
    assert first.output == second.output
    payload = json.loads(first.output)
    assert "wall_time" not in payload
    assert set(payload["stats"]) == {
        "generated",
        "passed_prescreen",
        "passed_irreducibility",
        "passed_m",
    }
    assert payload["stats"]["generated"] == 299


def test_search_signature_filter(runner):
    result = runner.invoke(
        main, ["search", "4", "--signature", "2,1", "--format", "csv"]
    )
    assert len(result.output.strip().splitlines()) == 4
    empty = runner.invoke(
        main, ["search", "4", "--signature", "0,2", "--format", "csv"]
    )
    assert empty.exit_code == 1


def test_search_no_prune_cap(runner):
    result = runner.invoke(main, ["search", "5", "--no-prune"])
    assert result.exit_code == 1
    assert "through degree 4" in result.output


def test_search_degree_out_of_range(runner):
    result = runner.invoke(main, ["search", "9"])
    assert result.exit_code == 1


def test_search_bad_signature_text(runner):
    result = runner.invoke(main, ["search", "4", "--signature", "x"])
    assert result.exit_code == 2


# -- lattice ------------------------------------------------------------------------


def test_lattice_text_golden(runner):
    result = runner.invoke(main, ["lattice", "x^2-x-1"])
    assert result.exit_code == 0
    assert "d^2             2.000000000" in result.output
    assert "m               1.000000000" in result.output
    assert "minimizer poly  x-1" in result.output
    assert ORDER_CAVEAT in result.output


def test_lattice_json_sextic(runner):
    result = runner.invoke(main, ["lattice", "x^6+x^2-1", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["shortest"]["squared_length"] == pytest.approx(
        3.785871196468, abs=1e-9
    )
    assert payload["shortest"]["minimizer_minpoly"] == "x^6+x^2-1"
    assert payload["caveat"] == ORDER_CAVEAT


def test_lattice_csv_keeps_caveat(runner):
    result = runner.invoke(main, ["lattice", "x^3-x-1", "--format", "csv"])
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("polynomial,dimension,")
    assert lines[-1] == f"# {ORDER_CAVEAT}"
    assert lines[1].split(",")[4] == "1.894558248"


def test_lattice_repeated_root_exits_1(runner):
    result = runner.invoke(main, ["lattice", "x^2+4x+4"])
    assert result.exit_code == 1


# -- family -------------------------------------------------------------------------


def test_family_multinacci(runner):
    result = runner.invoke(main, ["family", "multinacci", "8"])
    assert result.exit_code == 0
    assert "x^8-x^7-x^6-x^5-x^4-x^3-x^2-x-1" in result.output
    for key in ("dominant_in_window", "second_real_ok", "annulus_ok", "pisot"):
        assert f"{key:<18} True" in result.output


def test_family_cofactor_json(runner):
    result = runner.invoke(main, ["family", "cofactor", "20", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["checks"]["sector_bound_holds"] is True
    assert payload["checks"]["sectors"] == 4
    assert payload["polynomial"] == "x^21-2x^20+1"


def test_family_even_spread_certified(runner):
    result = runner.invoke(main, ["family", "even-spread", "6", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["checks"]["signature"] == "(2,2)"
    assert payload["checks"]["irreducibility"] == "certified"


def test_family_root_power_assumed(runner):
    result = runner.invoke(main, ["family", "root-power", "5", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["checks"]["m_below_one"] is True
    assert payload["checks"]["irreducibility"] == "assumed"


# values as printed before the even-spread report came from check_kiy
EVEN_SPREAD_REPORTS = {
    6: ("x^6+x^4+x^2-1", "(2,2)", "3.799784157", "0.949946039", "certified"),
    10: ("x^10+x^8+x^6+x^4+x^2-1", "(2,4)", "5.756037943", "0.959339657", "certified"),
    14: (
        "x^14+x^12+x^10+x^8+x^6+x^4+x^2-1",
        "(2,6)",
        "7.737613762",
        "0.967201720",
        "assumed",
    ),
}


@pytest.mark.parametrize("n", sorted(EVEN_SPREAD_REPORTS))
def test_family_even_spread_reports(runner, n):
    poly, *values = EVEN_SPREAD_REPORTS[n]
    keys = ["signature", "square_size", "m", "irreducibility"]
    csv = runner.invoke(main, ["family", "even-spread", str(n), "--format", "csv"])
    assert csv.exit_code == 0
    assert csv.output.splitlines() == [
        "kind,n,polynomial," + ",".join(keys),
        ",".join(["even-spread", str(n), poly] + values),
    ]
    text = runner.invoke(main, ["family", "even-spread", str(n)])
    assert text.exit_code == 0
    assert text.output.splitlines() == [
        "kind        even-spread",
        f"n           {n}",
        f"polynomial  {poly}",
    ] + [f"{key:<18} {value}" for key, value in zip(keys, values)]
    as_json = runner.invoke(main, ["family", "even-spread", str(n), "--format", "json"])
    assert json.loads(as_json.output) == {
        "kind": "even-spread",
        "n": n,
        "polynomial": poly,
        "checks": dict(zip(keys, values)),
    }


def test_family_even_spread_needs_k_at_least_one(runner):
    # x^2-1 is reducible; it used to be reported with irreducibility "assumed"
    result = runner.invoke(main, ["family", "even-spread", "2"])
    assert result.exit_code == 1
    assert "need k >= 1" in result.output


def test_family_invalid_parameter_exits_1(runner):
    result = runner.invoke(main, ["family", "even-spread", "7"])
    assert result.exit_code == 1


def test_family_unknown_kind_exits_2(runner):
    result = runner.invoke(main, ["family", "fibonacci", "3"])
    assert result.exit_code == 2


# -- verify -------------------------------------------------------------------------


def test_verify_fast_text(runner):
    result = runner.invoke(main, ["verify", "--suite", "fast"])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[-1] == "23 checks: 23 passed, 0 not passed"


def test_verify_fast_json(runner):
    result = runner.invoke(main, ["verify", "--suite", "fast", "--format", "json"])
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert len(records) == 23
    assert all(r["verdict"] == "pass" for r in records)
    ids = [r["check_id"] for r in records]
    assert ids == sorted(ids)


def test_verify_csv_header(runner):
    result = runner.invoke(main, ["verify", "--suite", "fast", "--format", "csv"])
    assert result.exit_code == 0
    header = result.output.strip().splitlines()[0]
    assert header == (
        "check_id,parameters,observed,predicted,residual,scaled_residual,verdict"
    )


def test_verify_unknown_suite_exits_2(runner):
    result = runner.invoke(main, ["verify", "--suite", "everything"])
    assert result.exit_code == 2


# -- group --------------------------------------------------------------------------


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("analyze", "search", "lattice", "family", "verify"):
        assert name in result.output
