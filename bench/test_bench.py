"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_errors(workload):
    lines = run_bench(workload, 0)
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workloads.WORKLOADS[workload].prefix
    assert "error_rate: 0.0" in lines
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]


def test_traced_run_reports_every_layer_metric_and_matching_digests():
    lines = run_bench("symbolic", 1)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    digests = {line.split(": ")[0]: line.split(": ")[1] for line in lines if line.startswith("digest")}
    assert digests["digest"] == digests["digest_traced"]
    assert result["metrics"]["profinite.parse_expr.calls"]["value"] > 0
    assert result["metrics"]["linalg.rref.calls"]["value"] == 0


def test_bench_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "symbolic", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_self_time_on_a_synthetic_nest():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and c
    # [8, 12], which reaches past the root; a has a child g [2, 3].
    names = ["root", "a", "b", "c", "g"]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    total, own = tracer.self_times(names, starts, ends, parents)
    assert total == {"root": 10.0, "a": 3.0, "b": 3.0, "c": 4.0, "g": 1.0}
    # children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds
    assert own == {"root": 3.0, "a": 2.0, "b": 3.0, "c": 4.0, "g": 1.0}


def test_self_time_sums_to_wall_time_of_the_roots():
    names = ["q", "x", "y", "x"]
    starts = [0.0, 0.5, 0.6, 2.0]
    ends = [3.0, 1.5, 1.0, 2.5]
    parents = [-1, 0, 1, 0]
    _, own = tracer.self_times(names, starts, ends, parents)
    assert own["q"] == pytest.approx(1.5) and own["x"] == pytest.approx(1.1) and own["y"] == pytest.approx(0.4)
    assert sum(own.values()) == pytest.approx(3.0)


def _snapshot():
    state = {}
    for name, module in sys.modules.items():
        if name == "cbsheaf" or name.startswith("cbsheaf."):
            for key, value in vars(module).items():
                state[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        state[(name, key, attr)] = member
    return state


def test_uninstall_restores_every_module_attribute():
    import cbsheaf.cli

    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert cbsheaf.cli.build_resolution is not before[("cbsheaf.cli", "build_resolution")]
        assert sys.modules["cbsheaf.godement"].build_resolution is cbsheaf.cli.build_resolution
        with contextlib.redirect_stdout(io.StringIO()):
            assert cbsheaf.cli.main(["rank", "P^2+D(3)"]) == 0
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = t.metrics(1)
    assert metrics["cli.main.calls"] == 1 and metrics["profinite.parse_expr.calls"] == 1
    assert metrics["profinite.cb_summary.calls"] >= 1


def test_checks_reject_a_wrong_answer(tmp_path):
    import cbsheaf.cli

    w = workloads.Symbolic(0, str(tmp_path), lib=None)
    q = w._expr_queries(random.Random(0))[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cbsheaf.cli.main(list(q.argv)) == 0
    good = json.loads(out.getvalue())
    assert q.check(json.dumps(good))
    good["summary"]["rank"] = "omega" if good["summary"]["rank"] != "omega" else 1
    assert not q.check(json.dumps(good))
