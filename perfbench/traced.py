"""Traced in-process run of one `corex` operation.

Usage: python3 perfbench/traced.py JOB_JSON

JOB_JSON names the CLI arguments of the operation (`argv`), two output
directories (`untraced_out`, `traced_out`) and a result path (`result`).
The run

1. imports `corex.cli` and times it (`cli.import`);
2. runs the operation once untraced, timing its wall and CPU time;
3. wraps the public functions in SPANS wherever corex binds them, runs
   the operation again under a root span `op`, and records a span per
   call: name, start, end and parent, plus the `tracemalloc` peak of the
   calls named in PEAKS;
4. times `SparseGraph(n, adjacency)` validation on the last graph the
   operation loaded or sampled (`graph.validate`), outside `op`.

Spans stay in memory until the end, when they are written to `spans`
in the result file together with the eigenvalues of the last
`truncated_eigs` call.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import tracemalloc

SPANS = {
    "graph": ["load_edge_list", "sample_adjacency"],
    "spectral": ["truncated_eigs", "er_scores", "config_scores", "write_scores_csv",
                 "diagnostics"],
    "coreid": ["select_rank_ecv", "kmeans_split", "write_partition_csv"],
    "synth": ["generate_instance"],
    "baselines": ["degree_scores", "pagerank_scores", "eigenvector_scores",
                  "local_cc_scores", "coreness_scores"],
    "evaluate": ["roc", "kcore_points", "eigengap_profile"],
}
PEAKS = {"spectral.diagnostics", "coreid.select_rank_ecv", "synth.generate_instance",
         "evaluate.eigengap_profile"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.origin = time.perf_counter()

    def run(self, name, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span)
        peak = name in PEAKS and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        span["start"] = time.perf_counter() - self.origin
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter() - self.origin
            if peak:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return traced


def instrument(tracer: Tracer, observed: dict) -> None:
    """Rebind every public function in SPANS, in each corex module that
    imported it, to a span-recording wrapper."""
    import corex.cli
    from corex import baselines, coreid, evaluate, graph, spectral, synth

    modules = [graph, spectral, coreid, synth, baselines, evaluate, corex.cli]
    layer_modules = {"graph": graph, "spectral": spectral, "coreid": coreid,
                     "synth": synth, "baselines": baselines, "evaluate": evaluate}

    def keep(key, fn):
        @functools.wraps(fn)
        def observe(*args, **kwargs):
            observed[key] = out = fn(*args, **kwargs)
            return out
        return observe

    for layer, names in SPANS.items():
        for fname in names:
            original = getattr(layer_modules[layer], fname)
            inner = original
            if fname in ("load_edge_list", "sample_adjacency"):
                inner = keep("graph", original)
            elif fname == "truncated_eigs":
                inner = keep("decomposition", original)
            wrapped = tracer.wrap(f"{layer}.{fname}", inner)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapped)
    graph.SparseGraph.to_csr = tracer.wrap("graph.to_csr", graph.SparseGraph.to_csr)


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    import corex.cli
    import_s = time.perf_counter() - t0

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = corex.cli.main(job["argv"] + ["--out-dir", job["untraced_out"]])
    untraced_s = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    if code != 0:
        return code

    tracer = Tracer()
    tracer.spans.append({"id": 0, "name": "cli.import", "parent": None,
                         "start": -import_s, "end": 0.0})
    observed = {}
    instrument(tracer, observed)
    code = tracer.run("op", corex.cli.main, job["argv"] + ["--out-dir", job["traced_out"]])
    if code != 0:
        return code
    if "graph" in observed:
        from corex.graph import SparseGraph
        g = observed["graph"]
        tracer.run("graph.validate", SparseGraph, g.n, g.adjacency)

    dec = observed.get("decomposition")
    result = {
        "untraced_s": untraced_s,
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        "eigenvalues": None if dec is None else [float(v) for v in dec.eigenvalues],
        "spans": tracer.spans,
    }
    with open(job["result"], "wt", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
