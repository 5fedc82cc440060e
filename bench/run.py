"""The cbsheaf benchmark: CLI queries against seeded inputs, one client, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catdim --seed 1 --seconds 30 --trace 0

With --trace 0 it imports the package from src/, generates and writes the
workload's inputs (timed as set-up, several times over), then sends queries
through cbsheaf.cli.main(argv) in this process, one after another, until
--seconds of query time have passed and at least the digest prefix has been
sent.  Every answer is checked.  With --trace 1 it replays the digest prefix
twice, untraced and then traced on a fresh import, and reports per-layer
metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat every figure by name with its
unit.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from array import array

from tracer import Tracer, metric_units
from workloads import WORKLOADS, Exhausted

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "cbsheaf")

# Set-ups timed per untraced run; their median is setup_s.
SETUP_REPEATS = 7
# A run stops sending queries after this much wall time, whatever --seconds
# says, so that it ends within its time limit; it then prints wall_limit_hit.
WALL_LIMIT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "share"),
    ("peak_rss_mb", "MB"),
)
INPUT_STATS = (
    ("inputs.points_mean", "count"),
    ("inputs.points_max", "count"),
    ("inputs.cb_rank_mean", "count"),
    ("inputs.max_stalk_mean", "count"),
    ("inputs.max_stalk_max", "count"),
    ("inputs.non_scattered_share", "share"),
)
PER_LAYER = tuple(metric_units()) + (("trace.overhead_ratio", "ratio"),) + INPUT_STATS


def import_package():
    """Import cbsheaf afresh from src/ and return the functions the generators use."""
    for name in [n for n in sys.modules if n == "cbsheaf" or n.startswith("cbsheaf.")]:
        del sys.modules[name]
    cli = importlib.import_module("cbsheaf.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != PACKAGE_DIR:
        raise ImportError(f"cbsheaf imported from {cli.__file__}, not from {PACKAGE_DIR}")
    spaces = sys.modules["cbsheaf.spaces"]
    sheaves = sys.modules["cbsheaf.sheaves"]
    profinite = sys.modules["cbsheaf.profinite"]
    godement = sys.modules["cbsheaf.godement"]
    return types.SimpleNamespace(
        cli=cli,
        FiniteSpace=spaces.FiniteSpace,
        space_to_json=spaces.space_to_json,
        star_space=spaces.star_space,
        discrete_space=spaces.discrete_space,
        product=spaces.product,
        disjoint_union=spaces.disjoint_union,
        random_sheaf=sheaves.random_sheaf,
        sheaf_to_json=sheaves.sheaf_to_json,
        finite_model=profinite.finite_model,
        parse_expr=profinite.parse_expr,
        projected_term_dims=godement.projected_term_dims,
    )


def set_up(cls, seed, workdir):
    """Import the package, generate and write the digest prefix's inputs, and
    import the package once more for the queries, so that nothing the
    generator computed can sit in a cache of the package when they run."""
    workload = cls(seed, workdir, import_package())
    queries = []
    while len(queries) < workload.prefix:
        queries.extend(workload.next_round())
    return import_package(), workload, queries


def send(lib, query):
    """One query through cli.main; returns (seconds, passed, output)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(query.argv))
    except Exception:  # a crash is a failed query, not the end of the run
        dt = time.perf_counter() - t0
        return dt, False, "crash:\n" + traceback.format_exc()
    dt = time.perf_counter() - t0
    text = out.getvalue()
    if rc != 0:
        return dt, False, f"exit {rc}: {err.getvalue()}{text}"
    try:
        passed = bool(query.check(text))
    except (LookupError, ValueError, TypeError, AttributeError) as exc:
        passed = False
        text += f"\ncheck raised {exc!r}"
    return dt, passed, text


class Digest:
    """sha256 over the outputs of the first `limit` queries, in order."""

    def __init__(self, limit):
        self.limit = limit
        self.count = 0
        self.sha = hashlib.sha256()

    def add(self, output):
        if self.count < self.limit:
            data = output.encode()
            self.sha.update(f"{self.count} {len(data)}\n".encode())
            self.sha.update(data)
            self.count += 1

    def hexdigest(self):
        return self.sha.hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_failure(query, output, shown):
    if shown < 5:
        print(f"FAILED {' '.join(query.argv)}\n{output[:2000]}", file=sys.stderr)


def run_untraced(cls, args, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        lib, workload, queries = set_up(cls, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    setup_rss = peak_rss_mb()
    digest = Digest(workload.prefix)
    # fixed-width arrays, so the benchmark's own memory barely grows with the
    # number of queries and peak_rss_mb shows what the program keeps
    latencies = array("d")
    by_kind = {}
    failed = 0
    busy = 0.0
    exhausted = wall_limit_hit = False
    started = time.perf_counter()
    i = 0
    while busy < args.seconds or len(latencies) < workload.prefix:
        if time.perf_counter() - started > WALL_LIMIT_S:
            wall_limit_hit = True
            break
        if i == len(queries):
            try:
                queries = workload.next_round()
            except Exhausted:
                exhausted = True
                break
            i = 0
        query = queries[i]
        i += 1
        dt, passed, output = send(lib, query)
        busy += dt
        latencies.append(dt)
        by_kind.setdefault(query.kind, array("d")).append(dt)
        digest.add(output)
        if not passed:
            report_failure(query, output, failed)
            failed += 1
    rss = peak_rss_mb()  # before the statistics below allocate anything
    attempted = len(latencies)
    cuts = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": (attempted - failed) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    notes = {
        "samples": attempted,
        "samples_beyond_p90": sum(1 for x in latencies if x > cuts[8]),
        "error_rate": failed / attempted,
        "query_seconds": busy,
        "inputs_exhausted": exhausted,
        "wall_limit_hit": wall_limit_hit,
        "peak_rss_after_setup_mb": setup_rss,
        "digest": digest.hexdigest() if digest.count == digest.limit else None,
        "digest_queries": digest.count,
        "caps": cap_summary(cls),
        "p50_ms_by_kind": {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())},
    }
    notes.update(workload.inputs.metrics())
    # A run cut by the wall limit before the digest prefix was sent has no
    # digest; that is a slowdown, not a wrong answer, and wall_limit_hit says so.
    correct = failed == 0
    return correct, attempted, failed, metrics, END_TO_END, notes


def run_traced(cls, args, workdir):
    lib, workload, queries = set_up(cls, args.seed, workdir)
    queries = queries[: workload.prefix]
    walls = []
    digests = []
    failed = 0
    tracer = Tracer()
    for traced in (False, True):
        digest = Digest(len(queries))
        wall = 0.0
        if traced:
            # a fresh import, so the traced pass finds no cache the first pass filled
            lib = import_package()
            tracer.install()
        try:
            for qid, query in enumerate(queries):
                tracer.query_id = qid
                dt, passed, output = send(lib, query)
                wall += dt
                digest.add(output)
                if not passed:
                    report_failure(query, output, failed)
                    failed += 1
        finally:
            tracer.uninstall()
        walls.append(wall)
        digests.append(digest.hexdigest())
    metrics = tracer.metrics(len(queries))
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    metrics.update(workload.inputs.metrics())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{cls.name}"))
    notes = {
        "spans": len(tracer.starts),
        "untraced_s": walls[0],
        "traced_s": walls[1],
        "digest": digests[0],
        "digest_traced": digests[1],
        "caps": cap_summary(cls),
    }
    correct = failed == 0 and digests[0] == digests[1]
    return correct, 2 * len(queries), failed, metrics, PER_LAYER, notes


def cap_summary(cls):
    """The workload's slot schedule and size caps: its upper-case class constants."""
    return {k: v for k, v in vars(cls).items() if k.isupper()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="cbsheaf CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no cbsheaf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(".bench_work", f"{cls.name}-{args.seed}")
    try:
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, values, units, notes = run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in notes.items():
        print(f"{key}: {value}")
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name}: {values[name]} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
