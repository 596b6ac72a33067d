"""Per-layer timing wrappers, installed only in traced child programs.

The benchmark times layers from outside the program: each wrapper replaces a
public entry point's module attribute with a timed call to the original.
Only call sites that look the name up at call time see a wrapper; every site
wrapped here does (``build_psd`` imports ``build_flat_structure`` inside the
function, ``PrivateSpatialDecomposition.postprocess`` and ``.prune`` import
``apply_ols`` and ``prune_low_count_subtrees`` inside the method, and the
sweep and serving pools fork after the wrappers are in place).

Times measured inside pool workers travel back through the program's own
``repro.obs`` channel: the wrappers add to registry counters and open
``trace_span`` events, which each worker drains into its task result and the
parent merges.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List

#: Release layers: name used in metric keys -> (module, attribute).
RELEASE_LAYERS = {
    "core.flatbuild.split_s": ("repro.core.flatbuild", "build_flat_structure"),
    "core.builder.noise_s": ("repro.core.builder", "populate_noisy_counts"),
    "core.postprocess.ols_s": ("repro.core.postprocess", "apply_ols"),
    "core.pruning.prune_s": ("repro.core.pruning", "prune_low_count_subtrees"),
}


def _patch(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    import importlib

    module = importlib.import_module(module_name)
    setattr(module, attr, make(getattr(module, attr)))


class ReleaseLayerTimer:
    """Wall seconds per release layer for the variant currently being built."""

    def __init__(self) -> None:
        self.variant = ""
        self.seconds: Dict[str, float] = {}

    def install(self) -> None:
        for layer, (module_name, attr) in RELEASE_LAYERS.items():
            _patch(module_name, attr, lambda fn, layer=layer: self._timed(layer, fn))

    def _timed(self, layer: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = f"{layer}.{self.variant}"
                self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - t0
        return wrapper

    def take(self) -> Dict[str, float]:
        out, self.seconds = self.seconds, {}
        return out


def install_sweep_wrappers() -> None:
    """Time every sweep case and every query-matrix compile through ``repro.obs``."""
    from repro.obs import counter_add, trace_span

    def wrap_case(fn):
        def case_rows(case, *args, **kwargs):
            with trace_span("bench.case", case=case.label):
                return fn(case, *args, **kwargs)
        return case_rows

    def wrap_compile(fn):
        def compile_query_matrix(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter_add("bench.compile_matrix_s", time.perf_counter() - t0)
                counter_add("bench.matrices_compiled")
        return compile_query_matrix

    _patch("repro.experiments.common", "case_rows", wrap_case)
    _patch("repro.engine.batch", "compile_query_matrix", wrap_compile)


class ServeLayerRecorder:
    """Per-request ledger, supervisor and sharded-server times inside ``repro serve``.

    A request's blocking work runs on one executor thread: the ledger charge
    (which carries the request id) and then the supervisor evaluation, which
    takes the engine state's evaluation lock and calls the sharded server.
    A thread-local carries the request id from the charge to the evaluation.
    Kernel calls (``batch_query``, in process or in a pool worker) are
    recorded as ``bench.kernel`` spans plus a node counter, so worker-side
    calls come back through the program's obs merge.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.requests: List[Dict[str, float]] = []

    def install(self) -> None:
        from repro.obs import counter_add, trace_span
        from repro.parallel.serve import ShardedQueryServer
        from repro.serve.ledger import BudgetLedger
        from repro.serve.supervisor import EngineSupervisor

        recorder = self
        charge = BudgetLedger.charge
        evaluate = EngineSupervisor.evaluate
        sharded = ShardedQueryServer.batch_query

        def timed_charge(ledger, analyst, epsilon, request_id=None):
            t0 = time.perf_counter()
            try:
                return charge(ledger, analyst, epsilon, request_id=request_id)
            finally:
                recorder._local.request = request_id
                recorder._local.charge_s = time.perf_counter() - t0

        def timed_evaluate(supervisor, queries, *args, **kwargs):
            recorder._local.sharded_s = 0.0
            t0 = time.perf_counter()
            try:
                return evaluate(supervisor, queries, *args, **kwargs)
            finally:
                record = {
                    "request": getattr(recorder._local, "request", None),
                    "charge_s": getattr(recorder._local, "charge_s", 0.0),
                    "evaluate_s": time.perf_counter() - t0,
                    "sharded_s": recorder._local.sharded_s,
                }
                recorder._local.request = None
                recorder._local.charge_s = 0.0
                with recorder._lock:
                    recorder.requests.append(record)

        def timed_sharded(server, queries, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return sharded(server, queries, *args, **kwargs)
            finally:
                recorder._local.sharded_s = time.perf_counter() - t0

        def wrap_kernel(fn):
            def batch_query(engine, queries, *args, **kwargs):
                with trace_span("bench.kernel"):
                    result = fn(engine, queries, *args, **kwargs)
                counter_add("bench.kernel_queries", len(result.nodes_touched))
                counter_add("bench.kernel_nodes", float(result.nodes_touched.sum()))
                return result
            return batch_query

        BudgetLedger.charge = timed_charge
        EngineSupervisor.evaluate = timed_evaluate
        ShardedQueryServer.batch_query = timed_sharded
        _patch("repro.parallel.serve", "batch_query", wrap_kernel)
