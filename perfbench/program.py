"""The program side of the release, sweep and engine-build steps, run as a child process.

Usage::

    python3 perfbench/program.py build   WORKDIR
    python3 perfbench/program.py release WORKDIR [--trace]
    python3 perfbench/program.py sweep   WORKDIR [--trace]

``WORKDIR`` holds the generated inputs (``points.npy``, ``queries.npy``,
``truth.npy``, ``shapes.npy``, ``params.json``).  ``release`` and ``sweep``
start, import ``repro``, load the inputs and print a ready line; the parent
then sends ``run SECONDS`` (or ``quit``) on stdin.  ``run`` repeats the
workload's operation until SECONDS have passed, checks the outputs with the
clock stopped, and prints one result line.  Protocol lines start with ``@@``
and carry JSON; everything else the program prints goes to stderr.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: The release workload's variants: (label, builder kind, height, prune threshold).
RELEASE_VARIANTS = (
    ("quad-opt", "quad", 10, None),
    ("kd-hybrid", "kd", 8, 32.0),
    ("kd-cell", "kd", 6, 32.0),
    ("hilbert-r", "hilbert", 10, None),
)
RELEASE_EPSILON = 0.5
#: The engine serve-bulk serves (unpruned).
SERVE_VARIANT = "kd-hybrid"
SERVE_HEIGHT = 8
#: Largest accepted gap between an accountant's spend and the release's epsilon.
SPEND_TOLERANCE = 1e-9
#: Queries per batch when scoring a release's accuracy (outside the timed part).
SCORE_CHUNK = 100

SWEEP_QUAD_VARIANTS = ("quad-baseline", "quad-geo", "quad-post", "quad-opt")
SWEEP_KD_VARIANTS = ("kd-standard", "kd-hybrid", "kd-cell")
SWEEP_EPSILONS = (0.1, 0.5, 1.0)
SWEEP_QUAD_HEIGHT = 8
SWEEP_KD_HEIGHT = 6


def emit(payload) -> None:
    sys.stdout.write("@@ " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def build_release(points, kind: str, height: int, prune, epsilon: float, seed: int, variant: str):
    import numpy as np

    from repro.core import build_private_hilbert_rtree, build_private_kdtree, build_private_quadtree
    from repro.geometry.domain import TIGER_DOMAIN

    rng = np.random.default_rng(seed)
    if kind == "quad":
        return build_private_quadtree(points, TIGER_DOMAIN, height, epsilon, variant=variant,
                                      prune_threshold=prune, rng=rng)
    if kind == "kd":
        return build_private_kdtree(points, TIGER_DOMAIN, height, epsilon, variant=variant,
                                    prune_threshold=prune, rng=rng)
    return build_private_hilbert_rtree(points, TIGER_DOMAIN, height, epsilon,
                                       prune_threshold=prune, rng=rng)


def accountant_of(release):
    return getattr(release, "psd", release).accountant


def engines_equal(a, b) -> bool:
    """Bitwise equality of two compiled engines (every array, dtype and scalar)."""
    import numpy as np

    for f in dataclasses.fields(a):
        if f.name == "source_path":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.asarray(x), np.asarray(y)
            if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


def load_inputs(workdir: str):
    import numpy as np

    with open(os.path.join(workdir, "params.json"), encoding="utf-8") as handle:
        params = json.load(handle)
    arrays = {name: np.load(os.path.join(workdir, f"{name}.npy"))
              for name in ("points", "queries", "truth", "shapes")
              if os.path.exists(os.path.join(workdir, f"{name}.npy"))}
    return params, arrays


# ----------------------------------------------------------------------
# build: the engine a serve workload serves
# ----------------------------------------------------------------------
def cmd_build(workdir: str) -> int:
    from repro.engine.io import save_engine

    params, arrays = load_inputs(workdir)
    release = build_release(arrays["points"], "kd", SERVE_HEIGHT, None, params["epsilon"],
                            params["release_seed"], SERVE_VARIANT)
    engine = release.compile()
    save_engine(engine, os.path.join(workdir, "engine.flatpsd"), format="mmap")
    emit({"nodes": engine.n_nodes, "spent": accountant_of(release).path_epsilon})
    return 0


# ----------------------------------------------------------------------
# release: build, compile, save and reload four variants per round
# ----------------------------------------------------------------------
def release_round(points, workdir: str, seed: int, timer, queries, truth):
    import numpy as np

    from repro.engine.batch import batch_query
    from repro.engine.io import load_engine, save_engine
    from repro.queries.metrics import relative_errors
    from stats import self_time

    round_s = 0.0
    layers = {}
    problems = []
    errors = []
    for index, (variant, kind, height, prune) in enumerate(RELEASE_VARIANTS):
        if timer is not None:
            timer.variant = variant
        path = os.path.join(workdir, f"release-{variant}.flatpsd")
        t0 = time.perf_counter()
        release = build_release(points, kind, height, prune, RELEASE_EPSILON, seed + index, variant)
        t1 = time.perf_counter()
        engine = release.compile()
        t2 = time.perf_counter()
        save_engine(engine, path, format="mmap")
        t3 = time.perf_counter()
        reloaded = load_engine(path, verify=True)
        t4 = time.perf_counter()
        round_s += t4 - t0
        if timer is not None:
            child = timer.take()
            layers.update(child)
            layers[f"core.builder.self_s.{variant}"] = self_time(t1 - t0, child.values())
            layers[f"engine.flat.compile_s.{variant}"] = t2 - t1
            layers[f"engine.io.save_s.{variant}"] = t3 - t2
            layers[f"engine.io.bytes.{variant}"] = float(os.path.getsize(path))
            layers[f"release.nodes.{variant}"] = float(engine.n_nodes)
        # Output checks, clock stopped.
        spent = accountant_of(release).path_epsilon
        if abs(spent - RELEASE_EPSILON) > SPEND_TOLERANCE:
            problems.append(f"{variant}: accountant spent {spent!r}, release epsilon {RELEASE_EPSILON}")
        if not engines_equal(engine, reloaded):
            problems.append(f"{variant}: reloaded engine differs from the saved one")
        # Chunked, so scoring 2400 queries on the 1.4M-node quad-opt tree does
        # not set the program's peak memory.
        estimates = batch_query(reloaded, queries, chunk_queries=SCORE_CHUNK).estimates
        errors.append(relative_errors(estimates, truth))
        del reloaded, engine, release
    rel_error_pct = 100.0 * float(np.median(np.concatenate(errors)))
    return round_s, layers, problems, rel_error_pct


def cmd_release(workdir: str, trace: bool) -> int:
    params, arrays = load_inputs(workdir)
    timer = None
    if trace:
        from layers import ReleaseLayerTimer

        timer = ReleaseLayerTimer()
        timer.install()
    emit({"ready": True})
    seconds = wait_for_run()
    if seconds is None:
        return 0
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_s, layers, problems, rel = release_round(
            arrays["points"], workdir, params["release_seed"], timer,
            arrays["queries"], arrays["truth"])
        rounds.append({"seconds": round_s, "layers": layers, "problems": problems,
                       "rel_error_pct": rel})
    emit({"ops": rounds})
    return 0


# ----------------------------------------------------------------------
# sweep: run_sweep over the Fig. 3 quad and Fig. 5 kd variants
# ----------------------------------------------------------------------
def sweep_cases(points, kd_variants=SWEEP_KD_VARIANTS, quad_variants=SWEEP_QUAD_VARIANTS,
                epsilons=SWEEP_EPSILONS):
    from repro.core.flatbuild import build_flat_structure
    from repro.core.splits import QuadSplit
    from repro.experiments.common import SweepCase
    from repro.experiments.fig3 import quadtree_sweep_case
    from repro.experiments.fig5 import PAPER_PRUNE_THRESHOLD, KDTreeSweepBuild
    from repro.geometry.domain import TIGER_DOMAIN

    structure = build_flat_structure(points, TIGER_DOMAIN, SWEEP_QUAD_HEIGHT, QuadSplit(), 0.0)
    cases = [quadtree_sweep_case(points, TIGER_DOMAIN, SWEEP_QUAD_HEIGHT, epsilons, 1, v, structure)
             for v in quad_variants]
    for v in kd_variants:
        build = KDTreeSweepBuild(points=points, domain=TIGER_DOMAIN, height=SWEEP_KD_HEIGHT,
                                 epsilons=tuple(epsilons), repetitions=1, variant=v,
                                 prune_threshold=PAPER_PRUNE_THRESHOLD)
        cases.append(SweepCase(label=v, keys=tuple({"epsilon": e, "variant": v} for e in epsilons),
                               build=build))
    return cases


def sweep_workloads(queries, truth, shapes):
    import numpy as np

    from repro.geometry.rect import Rect
    from repro.queries.workload import PAPER_QUERY_SHAPES, QueryWorkload

    out = {}
    for s, shape in enumerate(PAPER_QUERY_SHAPES):
        mask = shapes == s
        rects = [Rect((float(r[0]), float(r[1])), (float(r[2]), float(r[3]))) for r in queries[mask]]
        out[shape.label] = QueryWorkload(shape=shape, queries=rects,
                                         true_answers=np.asarray(truth[mask], dtype=float))
    return out


def rows_key(rows):
    return json.dumps([[(k, v.hex() if isinstance(v, float) else v) for k, v in sorted(r.items())]
                       for r in rows])


def cmd_sweep(workdir: str, trace: bool) -> int:
    import numpy as np

    from repro.experiments.common import run_sweep

    params, arrays = load_inputs(workdir)
    points = arrays["points"]
    workloads = sweep_workloads(arrays["queries"], arrays["truth"], arrays["shapes"])
    registry = tracer = None
    if trace:
        from layers import install_sweep_wrappers

        from repro.obs import enable_metrics, enable_tracing

        install_sweep_wrappers()
        registry = enable_metrics()
        tracer = enable_tracing()
    emit({"ready": True})
    seconds = wait_for_run()
    if seconds is None:
        return 0
    workers = os.cpu_count() or 1
    ops = []
    reference = None
    problems = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        cases = sweep_cases(points)
        if tracer is not None:
            tracer.drain_events()
            registry.clear()
        t0 = time.perf_counter()
        rows = run_sweep(cases, workloads, rng=params["release_seed"], workers=workers)
        elapsed = time.perf_counter() - t0
        op = {"seconds": elapsed,
              "rel_error_pct": float(np.median([r["median_rel_error_pct"] for r in rows]))}
        key = rows_key(rows)
        if reference is None:
            reference = key
        elif key != reference:
            problems.append("repeated run_sweep with one seed gave different rows")
        if tracer is not None:
            op["layers"] = sweep_layers(tracer.drain_events(), registry, elapsed, workers)
        ops.append(op)
    # workers=N must equal workers=1 bitwise; checked on a reduced grid, clock stopped.
    small = dict(kd_variants=("kd-hybrid",), quad_variants=("quad-baseline", "quad-opt"),
                 epsilons=(0.5,))
    seq = run_sweep(sweep_cases(points, **small), workloads, rng=params["release_seed"], workers=1)
    par = run_sweep(sweep_cases(points, **small), workloads, rng=params["release_seed"],
                    workers=workers)
    if rows_key(seq) != rows_key(par):
        problems.append(f"run_sweep rows at workers={workers} differ from workers=1")
    emit({"ops": ops, "problems": problems, "workers": workers})
    return 0


def sweep_layers(events, registry, sweep_s: float, workers: int):
    build = sum(e["wall_s"] for e in events if e["span"] == "sweep.build_case")
    evaluate = sum(e["wall_s"] for e in events if e["span"] == "sweep.evaluate_case")
    cases = [e["wall_s"] for e in events if e["span"] == "bench.case"]
    return {
        "experiments.common.build_s": build,
        "experiments.common.evaluate_s": evaluate,
        "engine.batch.compile_matrix_s": registry.counter_total("bench.compile_matrix_s"),
        "engine.batch.matrices_compiled": registry.counter_total("bench.matrices_compiled"),
        "parallel.sweep.max_case_s": max(cases) if cases else 0.0,
        "parallel.sweep.efficiency": sum(cases) / (workers * sweep_s),
        "parallel.sweep.pool_rebuilds": registry.counter_total("sweep.pool_rebuilds"),
    }


def wait_for_run():
    line = sys.stdin.readline().split()
    if not line or line[0] != "run":
        return None
    return float(line[1])


def main(argv) -> int:
    cmd, workdir = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    if cmd == "build":
        return cmd_build(workdir)
    if cmd == "release":
        return cmd_release(workdir, trace)
    if cmd == "sweep":
        return cmd_sweep(workdir, trace)
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
