"""Tests of the benchmark itself, on the tiny size.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, BENCH)
import run as bench_run  # noqa: E402


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(*args):
    code, out = bench("--size", "tiny", "--seconds", "0", *args)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


@pytest.fixture(scope="module")
def plain():
    return result("--seed", "3")


@pytest.fixture(scope="module")
def traced_pair():
    return result("--seed", "3", "--trace", "1"), result("--seed", "4", "--trace", "1")


def by_workload(res, workloads):
    out = {w: {} for w in workloads}
    for key, metric in res["metrics"].items():
        workload, name = key.split(".", 1)
        out[workload][name] = metric
    return out


def test_smoke_run_passes_its_checks(plain, declared):
    e2e, _, workloads = declared
    assert set(plain) == RESULT_KEYS
    assert plain["correct"] is True
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    for metrics in by_workload(plain, workloads).values():
        assert set(metrics) == e2e
        assert all(m["value"] > 0 for m in metrics.values())


def test_metric_names_and_units(plain, traced_pair, declared):
    e2e, layers, workloads = declared
    assert set(workloads) == set(bench_run.WORKLOADS)
    assert e2e == set(bench_run.E2E_UNITS)
    assert layers == set(bench_run.LAYER_UNITS)
    for res in (plain, *traced_pair):
        for key, metric in res["metrics"].items():
            assert NAME.fullmatch(key), key
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["unit"], str) and metric["unit"], key
    for metrics in by_workload(traced_pair[0], workloads).values():
        assert set(metrics) == layers


def test_counts_repeat_exactly(traced_pair):
    first, second = traced_pair
    counts = {k: m["value"] for k, m in first["metrics"].items()
              if m["unit"] == "count"}
    assert counts["fourier_ladder.charfn.node_steps"] > 0
    assert counts["fourier_quadrature.quadrature.calls"] > 0
    assert counts["mc_ladder.simulate.path_steps"] > 0
    assert counts == {k: second["metrics"][k]["value"] for k in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, out = bench("--workload", "mc_ladder", "--seed", "1", "--seconds", "1",
                      "--trace", "0", root=str(tmp_path))
    assert code != 0
    assert "correct" not in out


def test_tail_percentile_keeps_ten_samples_above():
    assert bench_run.tail(list(range(19))) is None
    assert bench_run.tail(list(range(20))) == (50, 9)
    assert bench_run.tail(list(range(100))) == (90, 89)


def test_missing_layer_is_recorded_as_absent(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    monkeypatch.setattr(tracing, "WRAP_POINTS", tracing.WRAP_POINTS + (
        ("powerswap.charfn", "no_such_function", "charfn", "span"),
        ("powerswap.no_such_module", "f", "charfn", "span")))
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        from powerswap import pricer
        assert pricer.solve_riccati.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracer.absent == ["powerswap.charfn.no_such_function",
                             "powerswap.no_such_module.f"]
    assert not hasattr(pricer.solve_riccati, "__wrapped__")


def test_decompose_without_callables_passes_through():
    import tracing

    def tabulate(vol, w, dp):
        return "arrays"

    tracer = tracing.Tracer("test")
    wrapped = tracer._wrap_decompose("averaging", tabulate)
    assert wrapped(None, None, None) == "arrays"
    assert wrapped(None, None, None) == "arrays"
    assert tracer.absent == [f"{__name__}.tabulate().big_s/xi"]
