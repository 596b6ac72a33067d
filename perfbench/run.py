"""The PSD system benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-bulk --seed 1 --seconds 20 --trace 0

Workloads: ``serve-bulk``, ``release``, ``sweep`` (see
``perfbench/README.md`` for why each exists).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs an untraced pass and a traced pass of
the workload, half the time each, plus one short traced pass of each other
workload, and reports every per-layer metric plus the workload's tracing
overhead.  Every output check runs before a timing is accepted; the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The program always runs in child processes; this process
only generates inputs, sends load and checks answers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import procs  # noqa: E402
from stats import percentile, self_time, supported_percentile  # noqa: E402

WORKLOADS = ("serve-bulk", "release", "sweep")
PYTHON = sys.executable

with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as _handle:
    META = json.load(_handle)

#: Largest accepted gap between a served estimate and the in-process one,
#: relative to ``max(1, |estimate|)``; chunked evaluation never reorders a
#: query's own sums, so in practice they are equal.
ESTIMATE_RTOL = 1e-9
#: The dataset is one fixed TIGER-like sample, as the paper uses one TIGER
#: extract, and the releases' noise seed is fixed too (both in meta.json), so
#: every run times and scores the same releases.  --seed draws the query
#: workloads and their order in a request.
DATASET_SEED = META["seeds"]["dataset_seed"]
RELEASE_SEED = META["seeds"]["release_seed"]
#: Launches per run whose median is setup_s: start-up is CPU-bound and a single
#: launch varies by +-20% with the host, so one launch would be mostly noise.
SETUP_LAUNCHES = 7
#: Length of the short traced pass that a traced run gives each workload other
#: than its own (release and sweep run one operation whatever this is).
BRIEF_SECONDS = 2.0
SERVE_POINTS = 1_000_000
RELEASE_POINTS = 1_000_000
SWEEP_POINTS = 200_000
#: With 100 queries per shape the sweep's median relative error spread 0.2
#: across seeds; 300 brings the query sampling noise down.
SWEEP_QUERIES_PER_SHAPE = 300
SERVE_EPSILON = 0.5
ANALYST = "analyst-a"
#: Cap no request can exhaust: the ledger path is exercised, refusals never happen.
BUDGET_CAP = 1e12


class Run:
    """One invocation: seeds, the work directory, counts and check failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 brief: bool = False) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        #: A short traced pass only, with no untraced baseline: a traced run
        #: makes one for every workload other than its own.
        self.brief = brief
        #: setup_s is an end-to-end metric; traced runs launch the program once.
        self.launches = 1 if trace else SETUP_LAUNCHES
        streams = np.random.SeedSequence([seed, WORKLOADS.index(workload)]).spawn(3)
        self.ss_queries, self.ss_check, self.ss_load = streams
        self.workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    def problem(self, text: str) -> None:
        """Record one failed operation."""
        self.failed += 1
        self.problems.append(text)

    def write_inputs(self, points, workload=None, **params) -> None:
        np.save(os.path.join(self.workdir, "points.npy"), points)
        if workload is not None:
            np.save(os.path.join(self.workdir, "queries.npy"), workload.rows)
            np.save(os.path.join(self.workdir, "truth.npy"), workload.truth)
            np.save(os.path.join(self.workdir, "shapes.npy"), workload.shape_index)
        with open(os.path.join(self.workdir, "params.json"), "w", encoding="utf-8") as handle:
            json.dump(dict(params, release_seed=RELEASE_SEED), handle)


def make_inputs(run: Run, n_points: int, n_per_shape: int):
    from inputs import PointIndex, check_against_generate_workload, make_points, make_workload

    points = make_points(n_points, np.random.SeedSequence(DATASET_SEED))
    index = PointIndex(points)
    workload = make_workload(points, n_per_shape, run.ss_queries, index)
    mismatches = check_against_generate_workload(points, index, run.ss_check, n_sample=2)
    run.attempted += 1
    if mismatches:
        run.problem("; ".join(mismatches))
    return points, workload


def rel_error_pct(estimates, truth) -> float:
    from repro.queries.metrics import relative_errors

    return 100.0 * float(np.median(relative_errors(estimates, truth)))


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class Server:
    """A running ``repro serve`` child (plain, or traced through the launcher)."""

    def __init__(self, run: Run, engine_path: str, ledger_name: str, traced: bool) -> None:
        from loadgen import Client

        self.ledger = os.path.join(run.workdir, ledger_name)
        self.trace_path = os.path.join(run.workdir, ledger_name + ".trace.json")
        serve = ["serve", engine_path, "--ledger", self.ledger, "--budget-cap", repr(BUDGET_CAP)]
        if traced:
            argv = [PYTHON, os.path.join(HERE, "serve_launcher.py"), self.trace_path] + serve
        else:
            argv = [PYTHON, "-m", "repro.cli"] + serve
        self.started = time.perf_counter()
        self.proc = procs.launch(argv, ROOT, run.workdir, "serve.log")
        try:
            line = procs.LineReader(self.proc).line("serving ", timeout=90.0)
        except BaseException:
            procs.stop(self.proc)
            raise
        match = re.search(r"http://([0-9.]+):(\d+)", line)
        self.client = Client(match.group(1), int(match.group(2)))
        self.sampler = None

    def warm_up(self, body: bytes) -> float:
        status, payload = self.client.post(body)
        if status != 200:
            raise RuntimeError(f"warm-up request failed with {status}: {payload[:200]!r}")
        return time.perf_counter() - self.started

    def stats(self) -> dict:
        status, payload = self.client.request("GET", "/stats")
        return json.loads(payload) if status == 200 else {}

    def stop(self) -> None:
        procs.stop(self.proc)


def start_server(run: Run, engine_path: str, warm_body: bytes, traced: bool, tag: str):
    """Launch ``run.launches`` servers, time each to ready; keep the last one running."""
    setups = []
    server = None
    for k in range(run.launches):
        server = Server(run, engine_path, f"ledger-{tag}-{k}.wal", traced)
        try:
            setups.append(server.warm_up(warm_body))
        except BaseException:
            server.stop()
            raise
        run.attempted += 1
        if k < run.launches - 1:
            server.stop()
    server.sampler = procs.RssSampler(server.proc.pid)
    return server, statistics.median(setups)


def prepare_serve(run: Run):
    """Inputs, the served engine (built by the program) and the answers it must give.

    The paper's shapes are drawn one after another; in that order each
    1024-query chunk of a request held different shapes, and the pool worker
    that happened to take the heaviest one set peak_rss_mb (two modes, 240
    and 290 MB).  The request carries the queries in a random order, so
    every chunk is a like mix.
    """
    from repro.engine.batch import batch_query
    from repro.engine.io import load_engine

    points, workload = make_inputs(run, SERVE_POINTS, 600)
    run.write_inputs(points, epsilon=SERVE_EPSILON)
    build = procs.launch([PYTHON, os.path.join(HERE, "program.py"), "build", run.workdir],
                         ROOT, run.workdir, "build.log")
    try:
        procs.LineReader(build).protocol(timeout=120.0)
    finally:
        procs.stop(build, timeout=60.0)
    engine_path = os.path.join(run.workdir, "engine.flatpsd")
    order = np.random.default_rng(run.ss_load).permutation(workload.rows.shape[0])
    rows, truth = workload.rows[order], workload.truth[order]
    expected = batch_query(load_engine(engine_path, verify=True), rows)
    body = json.dumps({"analyst": ANALYST, "queries": rows.tolist()}).encode()
    return body, truth, engine_path, expected


def check_responses(run: Run, records, expected) -> None:
    """Every response must be a 200 whose answers equal the in-process ``batch_query``'s."""
    for status, payload in zip(records.status, records.responses):
        run.attempted += 1
        if status != 200:
            run.problem(f"HTTP {status}: {payload[:120]!r}")
            continue
        reply = json.loads(payload)
        got = np.asarray(reply.get("estimates", []), dtype=float)
        touched = np.asarray(reply.get("nodes_touched", []), dtype=np.int64)
        want = expected.estimates
        if got.shape != want.shape or not np.all(
                np.abs(got - want) <= ESTIMATE_RTOL * np.maximum(1.0, np.abs(want))):
            run.problem("served estimates differ from in-process batch_query")
        elif not np.array_equal(touched, expected.nodes_touched):
            run.problem("served nodes_touched differ from in-process batch_query")


def serve_layers(server: Server, records, stats: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced server run, joined to the client's records by request id."""
    with open(server.trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    by_request = {r["request"]: r for r in trace["requests"] if r["request"] is not None}
    self_ms, charge_ms, lock_ms, sharded_ms = [], [], [], []
    for status, payload, sent, done in zip(records.status, records.responses,
                                           records.sent, records.done):
        if status != 200:
            continue
        rec = by_request.get(json.loads(payload).get("request"))
        if rec is None:
            continue
        self_ms.append(1000.0 * self_time(done - sent, (rec["charge_s"], rec["evaluate_s"])))
        charge_ms.append(1000.0 * rec["charge_s"])
        lock_ms.append(1000.0 * (rec["evaluate_s"] - rec["sharded_s"]))
        sharded_ms.append(1000.0 * rec["sharded_s"])
    kernel_ms = np.asarray(trace["kernel_s"]) * 1000.0
    service = stats.get("service", {})
    pool = stats.get("supervisor", {}).get("server", {})
    served = max(1, service.get("served", 0))
    return {
        "http.self_ms": percentile(self_ms, 50),
        "ledger.charge_ms": percentile(charge_ms, 50),
        "ledger.wal_bytes_per_req": os.path.getsize(server.ledger) / max(1, service.get("admitted", 0)),
        "supervisor.lock_wait_ms": percentile(lock_ms, 99),
        "engine.batch.kernel_ms.p50": percentile(kernel_ms, 50),
        "engine.batch.kernel_ms.p99": percentile(kernel_ms, 99),
        "engine.batch.nodes_per_query": trace["kernel_nodes"] / max(1.0, trace["kernel_queries"]),
        "parallel.serve.fanout_ms": percentile(sharded_ms, 50),
        "parallel.serve.chunks_per_req": pool.get("chunks", 0) / served,
        "parallel.serve.pool_rebuilds": float(pool.get("pool_rebuilds", 0)),
        "parallel.serve.inproc_fallbacks": float(pool.get("inproc_fallbacks", 0)),
        "http.shed": float(service.get("shed", 0)),
        "http.timeouts": float(service.get("timeouts", 0)),
        "engine.io.load_s": trace["engine_load_s"][0] if trace["engine_load_s"] else float("nan"),
    }


def run_serve(run: Run) -> Dict[str, float]:
    """serve-bulk: one client sends the 2400-query request back to back."""
    from loadgen import closed_loop

    body, truth, engine_path, expected = prepare_serve(run)

    def serve_pass(seconds: float, traced: bool, tag: str):
        server, setup_s = start_server(run, engine_path, body, traced, tag)
        try:
            records = closed_loop(server.client, body, seconds, min_requests=5)
            stats = server.stats() if traced else {}
            peak = server.sampler.stop()
        finally:
            server.stop()
        check_responses(run, records, expected)
        return server, records, setup_s, peak, stats

    if not run.trace:
        _, records, setup_s, peak, _ = serve_pass(run.seconds, False, "main")
        lat_ms = records.latency() * 1000.0
        tail = supported_percentile(lat_ms.size)
        run.notes.append(f"{lat_ms.size} timed requests; highest percentile with >=10 samples "
                         f"beyond it: {tail}"
                         + (f" ({percentile(lat_ms, tail):.2f} ms)" if tail else ""))
        return {"setup_s": setup_s, "p50_ms": percentile(lat_ms, 50),
                "max_rps": records.throughput(),
                "rel_error_pct": rel_error_pct(expected.estimates, truth),
                "peak_rss_mb": peak}

    if run.brief:
        server, records, _, _, stats = serve_pass(BRIEF_SECONDS, True, "traced")
        return serve_layers(server, records, stats)
    half = run.seconds / 2.0
    _, base, _, _, _ = serve_pass(half, False, "plain")
    server, records, _, _, stats = serve_pass(half, True, "traced")
    layers = serve_layers(server, records, stats)
    layers["trace.overhead_pct"] = 100.0 * (percentile(records.latency(), 50)
                                            / percentile(base.latency(), 50) - 1.0)
    return layers


# ----------------------------------------------------------------------
# Release and sweep: the program runs as a child that repeats one operation
# ----------------------------------------------------------------------
def run_program(run: Run, mode: str, seconds: float, traced: bool):
    """Launch ``program.py MODE`` to ready ``run.launches`` times; run the last one."""
    argv = [PYTHON, os.path.join(HERE, "program.py"), mode, run.workdir] + (["--trace"] if traced else [])
    setups = []
    for k in range(run.launches):
        t0 = time.perf_counter()
        proc = procs.launch(argv, ROOT, run.workdir, f"{mode}.log", stdin=True)
        reader = procs.LineReader(proc)
        try:
            reader.protocol(timeout=90.0)
            setups.append(time.perf_counter() - t0)
            if k < run.launches - 1:
                proc.stdin.write(b"quit\n")
                proc.stdin.flush()
                proc.wait(timeout=30.0)
                continue
            sampler = procs.RssSampler(proc.pid)
            proc.stdin.write(f"run {seconds}\n".encode())
            proc.stdin.flush()
            result = reader.protocol(timeout=150.0)
            peak = sampler.stop()
        finally:
            procs.stop(proc)
    return result, statistics.median(setups), peak


def account(run: Run, result) -> None:
    """Count a program run's operations and the output checks it failed."""
    run.attempted += len(result["ops"])
    for text in [t for op in result["ops"] for t in op.get("problems", [])] + result.get("problems", []):
        run.problem(text)
    seconds = [op["seconds"] for op in result["ops"]]
    run.notes.append(f"{len(seconds)} operations of median {statistics.median(seconds):.3f} s")


def op_metrics(result, setup_s: float, peak: float) -> Dict[str, float]:
    ops = result["ops"]
    seconds = [op["seconds"] for op in ops]
    return {"setup_s": setup_s, "p50_ms": 1000.0 * statistics.median(seconds),
            "max_rps": len(seconds) / sum(seconds),
            "rel_error_pct": statistics.median(op["rel_error_pct"] for op in ops),
            "peak_rss_mb": peak}


def median_layers(ops) -> Dict[str, float]:
    keys = sorted({k for op in ops for k in op["layers"]})
    return {k: statistics.median(op["layers"][k] for op in ops if k in op["layers"]) for k in keys}


def run_batch(run: Run, mode: str, n_points: int, n_per_shape: int) -> Dict[str, float]:
    points, workload = make_inputs(run, n_points, n_per_shape)
    run.write_inputs(points, workload)
    if not run.trace:
        result, setup_s, peak = run_program(run, mode, run.seconds, traced=False)
        account(run, result)
        return op_metrics(result, setup_s, peak)
    if run.brief:
        traced, _, _ = run_program(run, mode, 0.0, traced=True)
        account(run, traced)
        return median_layers(traced["ops"])
    half = run.seconds / 2.0
    base, _, _ = run_program(run, mode, half, traced=False)
    traced, _, _ = run_program(run, mode, half, traced=True)
    account(run, base)
    account(run, traced)
    layers = median_layers(traced["ops"])
    base_s = statistics.median(op["seconds"] for op in base["ops"])
    traced_s = statistics.median(op["seconds"] for op in traced["ops"])
    layers["trace.overhead_pct"] = 100.0 * (traced_s / base_s - 1.0)
    return layers


def execute(run: Run) -> Dict[str, float]:
    """Run one workload in a fresh work directory, removed afterwards."""
    os.makedirs(run.workdir)
    try:
        return RUNNERS[run.workload](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.workdir))
        except OSError:
            pass


RUNNERS = {
    "serve-bulk": run_serve,
    "release": lambda run: run_batch(run, "release", RELEASE_POINTS, 600),
    "sweep": lambda run: run_batch(run, "sweep", SWEEP_POINTS, SWEEP_QUERIES_PER_SHAPE),
}


def declared_metrics(trace: bool) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    # SIGTERM unwinds like an error, so every child started so far is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = execute(run)
    if run.trace:
        # Every per-layer metric, from every workload, in each traced run.
        for other in WORKLOADS:
            if other == args.workload:
                continue
            brief = Run(other, args.seed, args.seconds, True, brief=True)
            values.update(execute(brief))
            run.attempted += brief.attempted
            run.failed += brief.failed
            run.problems += [f"{other}: {text}" for text in brief.problems]
            run.notes += [f"{other} (short traced pass): {note}" for note in brief.notes]

    units = declared_metrics(run.trace)
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is not None and np.isfinite(value):
            metrics[name] = {"value": float(value), "unit": unit}
        else:
            run.problem(f"metric {name} was not measured")
    for note in run.notes:
        print(f"# {note}")
    for text in run.problems:
        print(f"CHECK FAILED: {text}")
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
