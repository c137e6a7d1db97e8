"""Tests of the benchmark itself: its checks reject corrupted outputs, tracing
leaves outputs unchanged, and the span arithmetic is right.

    python3 -m pytest -q bench/tests
"""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference
import run
import tracer
import workloads

SPEC = json.loads((Path(workloads.__file__).parents[1] / "BENCHMARK.json").read_text())
TABLES = {n: [workloads.parse_coeffs(t) for t in texts]
          for n, texts in workloads.M_LT_ONE_TABLES.items()}


@pytest.fixture(scope="module")
def runner():
    return workloads.Runner()


def run_ops(runner, ops, traced=False):
    """Outputs of the ops from a cold root cache, optionally traced."""
    runner.roots._find_roots_cached.cache_clear()
    prepared = runner.prepare(ops)
    tr = None
    if traced:
        tr = tracer.Tracer()
        tr.install([runner.intpoly, runner.roots, runner.search, runner.lattice,
                    runner.verify, sys.modules["minklat.measures"]])
    try:
        raws = [runner.call(op, poly) for op, poly in prepared]
    finally:
        if tr is not None:
            tr.uninstall()
    outs = [runner.describe(op, poly, raw) for (op, poly), raw in zip(prepared, raws)]
    return outs, tr


SEARCH_OP = {"op": "search", "n": 5, "signature": None}
FAMILY_OPS = [
    {"op": "kiy", "k": 2},
    {"op": "cubic2", "n": 3},
    {"op": "sum_asymptotic", "n": 20},
    {"op": "multinacci_location", "n": 10},
    {"op": "pisot", "n": 10},
] + [
    {"op": "erdos_turan", "n": 20, "k": 2, "j": j, "constant": c}
    for j in range(4) for c in ("classical", "default")
]
LATTICE_OPS = [
    {"op": "lattice", "family": "table", "n": 3, "shift": 0,
     "coeffs": workloads.parse_coeffs("x^3+x+1")},
    {"op": "lattice", "family": "table", "n": 6, "shift": 1,
     "coeffs": workloads.taylor_shift(workloads.parse_coeffs("x^6+x^2-1"), 1)},
    {"op": "lattice", "family": "truncated_geom", "n": 12},
    {"op": "lattice", "family": "multinacci", "n": 12},
    {"op": "lattice", "family": "root_power", "n": 3},
]


@pytest.fixture(scope="module")
def search_out(runner):
    return run_ops(runner, [SEARCH_OP])[0][0]


@pytest.fixture(scope="module")
def family_outs(runner):
    return run_ops(runner, FAMILY_OPS)[0]


@pytest.fixture(scope="module")
def lattice_outs(runner):
    return run_ops(runner, LATTICE_OPS)[0]


# -- the checks accept true outputs and reject corrupted ones -----------------------


def test_search_check_accepts_program_output(search_out):
    assert checks.check_search(SEARCH_OP, search_out, TABLES[5]) == []


def test_search_check_rejects_moved_m(search_out):
    bad = copy.deepcopy(search_out)
    entry = bad["groups"][1]["entries"][3]
    entry[1] += 1e-7
    assert checks.check_search(SEARCH_OP, bad, TABLES[5])


def test_search_check_rejects_dropped_mirror(search_out):
    bad = copy.deepcopy(search_out)
    entries = bad["groups"][1]["entries"]
    victim = next(e for e in entries if checks.mirror(e[0]) != tuple(e[0]))
    entries.remove(victim)
    problems = checks.check_search(SEARCH_OP, bad, None)
    assert any("mirror" in p for p in problems)


def test_search_check_rejects_wrong_degree6_minimum():
    op = {"op": "search", "n": 6, "signature": (2, 2)}
    out = {"groups": [{"signature": [2, 2], "lower_bound": checks.signature_bound(2, 2),
                       "entries": [[list(workloads.parse_coeffs("x^6+x^4-1")), 0.952920796]]}]}
    assert any("minimum" in p for p in checks.check_search(op, out, None))


def test_family_checks_accept_program_output(family_outs):
    assert not any(checks.check_families(FAMILY_OPS, family_outs).values())


def test_family_check_rejects_swapped_signature(family_outs):
    bad = copy.deepcopy(family_outs)
    rs = bad[0]["roots"]
    rs["s"], rs["t"] = rs["t"], rs["s"]
    assert checks.check_families(FAMILY_OPS, bad)[0]


def test_family_check_rejects_moved_root(family_outs):
    bad = copy.deepcopy(family_outs)
    bad[2]["roots"]["complex"][0][0] += 1e-6
    assert checks.check_families(FAMILY_OPS, bad)[2]


def test_family_check_rejects_lost_sector_root(family_outs):
    bad = copy.deepcopy(family_outs)
    et = [i for i, op in enumerate(FAMILY_OPS) if op["op"] == "erdos_turan"]
    bad[et[0]]["sector_roots"] -= 1
    assert checks.check_families(FAMILY_OPS, bad)[et[0]]


def test_lattice_checks_accept_program_output(lattice_outs):
    assert not any(checks.check_lattice(LATTICE_OPS, lattice_outs).values())


def test_lattice_check_rejects_moved_squared_length(lattice_outs):
    for i in range(len(LATTICE_OPS)):
        bad = copy.deepcopy(lattice_outs)
        bad[i]["squared_length"] *= 1 + 1e-8
        assert checks.check_lattice(LATTICE_OPS, bad)[i]


def test_lattice_pair_check_compares_the_two_generators(lattice_outs):
    bad = copy.deepcopy(lattice_outs)
    bad[2]["squared_length"] *= 1 + 1e-8  # truncated_geom(12)
    assert checks.check_lattice(LATTICE_OPS, bad)[3]  # multinacci(12)


# -- tracing ---------------------------------------------------------------------------


def test_traced_outputs_equal_untraced(runner):
    ops = [dict(SEARCH_OP, n=4)] + FAMILY_OPS + LATTICE_OPS
    plain, _ = run_ops(runner, ops)
    traced, tr = run_ops(runner, ops, traced=True)
    assert traced == plain
    called = {(s[tracer.LAYER], s[tracer.NAME]) for s in tr.spans}
    for key in [("search", "enumerate_m_lt_one"), ("roots", "find_roots"),
                ("intpoly", "sturm_real_count"), ("measures", "size_profile"),
                ("lattice", "lll_reduce"), ("verify", "check_kiy")]:
        assert key in called
    # uninstall restored the modules' own functions
    assert not hasattr(runner.roots.find_roots, "__wrapped__")
    assert not hasattr(runner.search.find_roots, "__wrapped__")


def test_span_arithmetic():
    #        layer      name   parent op start end
    spans = [
        ["search", "enumerate", -1, 0, 0.0, 10.0],
        ["roots", "find_roots", 0, 0, 1.0, 4.0],
        ["intpoly", "sturm", 1, 0, 2.0, 3.0],
        ["roots", "find_roots", 1, 0, 3.0, 3.5],  # nested call of itself
        ["lattice", "shortest_vector", -1, 1, 10.0, 12.0],
    ]
    assert tracer.self_time(spans, "search") == 7.0
    assert tracer.self_time(spans, "roots", "find_roots") == 1.5 + 0.5
    assert tracer.function_time(spans, "roots", "find_roots") == 3.0
    assert tracer.function_calls(spans, "roots", "find_roots") == 2
    assert tracer.function_time(spans, "verify", "check_kiy") == 0.0


# -- inputs -----------------------------------------------------------------------------


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_ops(w, 7) == workloads.make_ops(w, 7)
        assert len(workloads.make_ops(w, 7)) == len(workloads.make_ops(w, 0))


def test_known_failures_do_not_depend_on_seed():
    def multinacci(seed):
        return [op for op in workloads.make_ops("lattice", seed)
                if op["family"] == "multinacci"]
    assert multinacci(0) == multinacci(5)


def test_taylor_shift_and_parser():
    f = workloads.parse_coeffs("x^6-2x^4+3x^2-1")
    assert f == (-1, 0, 3, 0, -2, 0, 1)
    g = workloads.taylor_shift(f, 2)
    for x in range(-3, 4):
        assert sum(c * x**i for i, c in enumerate(g)) == sum(
            c * (x - 2) ** i for i, c in enumerate(f))


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(Path(workloads.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metrics_match_benchmark_json():
    produced = list(tracer.layer_metrics([], {})) + list(run.PASS_METRICS)
    assert produced == [m["name"] for m in SPEC["per_layer"]]
    assert [tracer.metric_unit(n) for n in produced] == [m["unit"] for m in SPEC["per_layer"]]


def test_run_prints_the_end_to_end_metrics():
    root = Path(workloads.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_scaling_to_the_nominal_speed():
    nominal = reference.NOMINAL_SLICE_S
    assert reference.scaled(2.0, nominal, nominal) == 2.0
    # the host at half speed: slices take twice as long, and so did the stretch
    assert reference.scaled(4.0, 2 * nominal, 2 * nominal) == 2.0
    assert reference.scaled(3.0, nominal, 2 * nominal) == 2.0
