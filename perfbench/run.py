"""Benchmark of the `corex` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh `python3 -m corex.cli ...` process with
PYTHONPATH=src, issued one at a time (a closed loop with one client).
The benchmark builds the workload's inputs from --seed, then, with
--trace 0, runs whole rounds of the workload's operations until the next
round would end after --seconds, checks every operation's outputs
against its own oracles (checks.py), and reports the end-to-end metrics
of BENCHMARK.json. With --trace 1 it runs the first operation in process
through traced.py and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)  # numpy's BLAS threads: at most nproc

import numpy as np  # noqa: E402  (after the thread settings)

import checks  # noqa: E402
import inputs  # noqa: E402
from traced import PEAKS, SPANS  # noqa: E402

ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, inherited by child processes
SETUP_MIN_REPEATS = 3  # set-up repeats at least this often and for at least
SETUP_MIN_S = 1.0  # this many seconds; setup_s is the median
OP_TIMEOUT_S = 170.0


def fix_address_layout() -> None:
    """Turn off address-space randomization for the processes this one
    starts. With it on, the same operation's peak RSS varies by about 10%
    from run to run with where its allocations land."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        print("warning: address-space randomization stays on", file=sys.stderr)


def cli_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(blas_threads) for var in BLAS_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, log_path, blas_threads: int = NPROC):
    """Run one process to its end with numpy's BLAS limited to
    blas_threads. Returns (wall seconds, peak RSS in MiB, exit code); its
    output goes to log_path."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=cli_env(blas_threads), cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def corex(args, log_path, blas_threads: int = NPROC):
    return run_process([sys.executable, "-m", "corex.cli", *args], log_path, blas_threads)


def log_tail(path, lines=5) -> str:
    with open(path, "rt", encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


class IdentifyWorkload:
    """`corex identify --select kmeans` on a planted-core edge file."""

    blas_threads = 1  # a second thread spins in the solver's thin QRs

    def __init__(self, design: inputs.Design, model: str, auto_rank: bool, auc_bar: float):
        self.design, self.model, self.auto_rank, self.auc_bar = design, model, auto_rank, auc_bar

    def setup(self, work: Path, seed: int) -> dict:
        edges, truth = inputs.generate(self.design, seed)
        inputs.write_edge_file(work / "edges.tsv", self.design.n, edges)
        inputs.write_labels(work / "truth.csv", truth)
        return {"edges": edges, "truth": truth}

    def reference(self, state: dict, seed: int) -> dict:
        noiseless = inputs.noiseless_eigenvalues(self.design, seed)
        rank = int(np.sum(np.abs(noiseless) > 1e-9 * abs(noiseless[0])))
        a = checks.adjacency(self.design.n, state["edges"])
        vals, vecs = checks.top_eigenpairs(a, rank, seed)
        return {"n": self.design.n, "truth": state["truth"], "rank": rank,
                "eigenvalues": vals, "auc_bar": self.auc_bar,
                "scores": checks.reference_scores(a, vals, vecs, self.model),
                "size": (self.design.n, len(state["edges"]))}

    def operations(self, work: Path, ref: dict, seed: int) -> list:
        rank = "auto" if self.auto_rank else str(ref["rank"])
        return [(["identify", "--input", str(work / "edges.tsv"), "--model", self.model,
                  "--rank", rank, "--select", "kmeans", "--seed", str(seed)], ref)]

    def check(self, out: Path, ref: dict) -> list:
        return checks.check_identify(out, ref)


def replicate_seed(master: int) -> int:
    """The seed `corex bench` gives the first replicate of master seed
    `master` (it reports it in summary.json under replicate_seeds)."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=(0,))
    return int(seq.generate_state(1)[0])


class BenchWorkload:
    """One `corex bench` replicate of a configuration-type graphon-1 design,
    all seven methods, on each of `graphs` replicate graphs in turn. How
    long the solver takes depends on the graph, so one graph per run
    would make wall_s a property of the seed. Set-up generates the same
    replicate graphs with `corex generate` so the checks can score them
    independently."""

    blas_threads = 1  # as for identify: the time is in the sparse solver

    def __init__(self, ratio: float, rank: int, density: float, graphs: int):
        self.ratio, self.rank, self.graphs = ratio, rank, graphs
        self.design = ["--graphon", "1", "--periphery", "config", "--preset-sizes",
                       "balanced", "--density", f"{density:g}"]

    def master_seeds(self, seed: int) -> list:
        """The `corex bench --seed` of each graph, derived from seed."""
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(0xBE,))
        return [int(w) for w in seq.generate_state(self.graphs)]

    def setup(self, work: Path, seed: int) -> list:
        states = []
        for k, master in enumerate(self.master_seeds(seed)):
            rep = replicate_seed(master)
            out = work / f"replicate{k}"
            _, _, code = corex(["generate", *self.design, "--ratio", f"{self.ratio:g}",
                                "--seed", str(rep), "--out-dir", str(out)],
                               work / "generate.log", self.blas_threads)
            if code != 0:
                raise RuntimeError("corex generate failed in set-up: "
                                   + log_tail(work / "generate.log"))
            states.append({"master_seed": master, "replicate_seed": rep, "dir": out})
        return states

    def reference(self, states: list, seed: int) -> list:
        return [self.graph_reference(state, state["master_seed"]) for state in states]

    def graph_reference(self, state: dict, seed: int) -> dict:
        edges = np.loadtxt(state["dir"] / "edges.tsv", dtype=np.int64, skiprows=1, ndmin=2)
        truth = np.loadtxt(state["dir"] / "truth.csv", dtype=np.int64, delimiter=",",
                           skiprows=1, ndmin=2)
        n = truth.shape[0]
        a = checks.adjacency(n, edges)
        vals, vecs = checks.top_eigenpairs(a, self.rank, seed)
        scores = {"degree": np.asarray(a.sum(axis=1)).ravel(),
                  "proposed_er": checks.reference_scores(a, vals, vecs, "er"),
                  "proposed_config": checks.reference_scores(a, vals, vecs, "config")}
        return {"master_seed": state["master_seed"],
                "replicate_seed": state["replicate_seed"], "truth": truth[:, 1] == 1,
                "ratio_tag": f"{self.ratio:g}".replace(".", "p"), "eigenvalues": vals,
                "methods": ["proposed_er", "proposed_config", "degree", "pagerank",
                            "eigenvector", "local_cc", "kcore"],
                "method_scores": scores,
                "auc_atol": {"degree": checks.AUC_ATOL, "proposed_er": 1e-5,
                             "proposed_config": 1e-5},
                "size": (n, len(edges))}

    def operations(self, work: Path, refs: list, seed: int) -> list:
        return [(["bench", *self.design, "--ratios", f"{self.ratio:g}", "--replicates", "1",
                  "--rank", str(self.rank), "--seed", str(ref["master_seed"])], ref)
                for ref in refs]

    def check(self, out: Path, ref: dict) -> list:
        return checks.check_bench(out, ref)


class DiagnoseWorkload:
    """`corex diagnose --truth-p meta.json --sweep ...` on an instance that
    set-up makes with `corex generate` (graphon 1, ER-type periphery)."""

    blas_threads = NPROC  # dense eigvalsh gains from every core

    def __init__(self, n_core: int, n_periphery: int, density: float, ratio: float,
                 sweep: tuple, periphery_level: float = 0.02):
        self.n_core, self.n_periphery = n_core, n_periphery
        self.density, self.ratio = density, ratio
        self.sweep, self.periphery_level = sweep, periphery_level

    def setup(self, work: Path, seed: int) -> dict:
        out = work / "instance"
        _, _, code = corex(["generate", "--graphon", "1", "--n-core", str(self.n_core),
                            "--n-periphery", str(self.n_periphery), "--periphery", "er",
                            "--density", f"{self.density:g}", "--ratio", f"{self.ratio:g}",
                            "--seed", str(seed), "--out-dir", str(out)], work / "generate.log",
                           self.blas_threads)
        if code != 0:
            raise RuntimeError("corex generate failed in set-up: " + log_tail(work / "generate.log"))
        with open(out / "meta.json", encoding="utf-8") as fh:
            return {"meta_path": out / "meta.json", "meta": json.load(fh)}

    def reference(self, state: dict, seed: int) -> dict:
        meta = state["meta"]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=meta["latents_seed"],
                                                           spawn_key=(0xA0,)))
        core = checks.graphon1(rng.random(self.n_core))
        c_core, c_peri, level = meta["c_core"], meta["c_periphery"], meta["er_level"]
        n, nc, npr = self.n_core + self.n_periphery, self.n_core, self.n_periphery
        touch = c_peri * level  # every pair touching the periphery
        frob2 = c_core ** 2 * float((core * core).sum()) + touch ** 2 * ((n * n - n) - (nc * nc - nc))
        # the scale constants must reach the requested density and degree ratio
        density = (c_core * core.sum() + touch * ((n * n - n) - (nc * nc - nc))) / (n * n - n)
        core_deg = (c_core * core.sum() + touch * nc * npr) / nc
        peri_deg = touch * (n - 1)
        if meta["rescale_clip_count"] != 0 or \
                abs(density / self.density - 1) > 1e-9 or \
                abs(core_deg / peri_deg / self.ratio - 1) > 1e-9:
            raise RuntimeError("generated instance misses its density or degree ratio")
        return {"core": core, "sweep": self.sweep, "periphery_level": self.periphery_level,
                "instance_spectrum": checks.er_assembly_spectrum(c_core * core, npr, touch),
                "frobenius2": frob2, "p_star": max(c_core * core.max(), touch),
                "size": (n, meta["sampled_edges"])}

    def operations(self, work: Path, ref: dict, seed: int) -> list:
        return [(["diagnose", "--truth-p", str(work / "instance" / "meta.json"),
                  "--sweep", ",".join(str(s) for s in self.sweep),
                  "--periphery-level", f"{self.periphery_level:g}", "--seed", str(seed)], ref)]

    def check(self, out: Path, ref: dict) -> list:
        return checks.check_diagnose(out, ref)


WORKLOADS = {
    "identify-large": IdentifyWorkload(
        inputs.Design(n=20000, n_core=2000, communities=3, p_in=0.04, p_out=0.002,
                      periphery="er", q=1e-3),
        model="er", auto_rank=False, auc_bar=0.99),
    "identify-auto": IdentifyWorkload(
        inputs.Design(n=2000, n_core=400, communities=3, p_in=0.35, p_out=0.05,
                      periphery="config", q=0.01, sigma=0.5),
        model="config", auto_rank=True, auc_bar=0.99),
    "bench-replicate": BenchWorkload(ratio=3.0, rank=5, density=0.02, graphs=4),
    "diagnose-sweep": DiagnoseWorkload(n_core=1000, n_periphery=2000, density=0.02,
                                       ratio=3.0, sweep=(0, 1000, 2000, 4000)),
}


def layer_metric_names() -> list:
    """Every per-layer metric the traced run can produce."""
    names = ["cli.import_s", "graph.validate_s", "graph.to_csr_s", "graph.nodes",
             "graph.edges", "op.cpu_s", "op.self_s", "trace.overhead_s"]
    names += [f"{layer}.{fn}_s" for layer, fns in SPANS.items() for fn in fns]
    names += [f"{name}.peak_mib" for name in sorted(PEAKS)]
    return names


def layer_metrics(result: dict, nodes: int, edges: int) -> dict:
    spans = result["spans"]
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    values = {name: 0.0 for name in layer_metric_names()}
    for s in spans:
        self_s = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        key = "op.self_s" if s["name"] == "op" else f"{s['name']}_s"
        values[key] += self_s
        if "peak_bytes" in s:
            key = f"{s['name']}.peak_mib"
            values[key] = max(values[key], s["peak_bytes"] / 2.0 ** 20)
    op = next(s for s in spans if s["name"] == "op")
    values["trace.overhead_s"] = (op["end"] - op["start"]) - result["untraced_s"]
    values["op.cpu_s"] = result["cpu_s"]
    values["graph.nodes"], values["graph.edges"] = nodes, edges
    return values


def measure(workload, work: Path, seed: int, seconds: float):
    _, _, code = run_process([sys.executable, "-c", "import corex.cli"], work / "warmup.log")
    if code != 0:
        raise RuntimeError("cannot import corex: " + log_tail(work / "warmup.log"))
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S:
        t0 = time.perf_counter()
        state = workload.setup(work, seed)
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    ref = workload.reference(state, seed)
    print(f"set-up x{len(setups)}: median {statistics.median(setups):.3f} s, "
          f"reference {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    operations = workload.operations(work, ref, seed)
    walls, rss = [], []
    attempted = failed = rounds = 0
    correct = True
    start = time.perf_counter()
    while True:  # whole rounds: every operation once per round
        for argv, op_ref in operations:
            out = work / "out"
            shutil.rmtree(out, ignore_errors=True)
            wall, peak, code = corex([*argv, "--out-dir", str(out)], work / "op.log",
                                      workload.blas_threads)
            attempted += 1
            walls.append(wall)
            rss.append(peak)
            print(f"operation {attempted}: {wall:.3f} s, {peak:.1f} MiB", file=sys.stderr)
            problems = [f"exit code {code}: {log_tail(work / 'op.log')}"] if code else \
                workload.check(out, op_ref)
            if problems:
                failed += 1
                correct = correct and code != 0
                print(f"operation {attempted} failed: {problems}", file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    metrics = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
               "peak_rss_mib": max(rss)}
    return correct, attempted, failed, metrics


def measure_traced(workload, work: Path, seed: int):
    state = workload.setup(work, seed)
    argv, ref = workload.operations(work, workload.reference(state, seed), seed)[0]
    job = {"argv": argv, "untraced_out": str(work / "untraced"),
           "traced_out": str(work / "traced"), "result": str(work / "trace.json")}
    with open(work / "job.json", "wt", encoding="utf-8") as fh:
        json.dump(job, fh)
    _, _, code = run_process([sys.executable, str(HERE / "traced.py"), str(work / "job.json")],
                             work / "traced.log", workload.blas_threads)
    if code != 0:
        raise RuntimeError(f"traced run exited {code}: " + log_tail(work / "traced.log"))
    with open(work / "trace.json", encoding="utf-8") as fh:
        result = json.load(fh)
    failed = 0
    for out in ("untraced", "traced"):
        problems = workload.check(work / out, ref)
        if out == "traced" and "eigenvalues" in ref:
            problems += checks.check_eigenvalues(result["eigenvalues"], ref["eigenvalues"])
        if problems:
            failed += 1
            print(f"{out} operation failed: {problems}", file=sys.stderr)
    return failed == 0, 2, failed, layer_metrics(result, *ref["size"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corex" / "cli.py").is_file():
        print(f"error: corex sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    fix_address_layout()
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, values = measure_traced(workload, work, args.seed)
    else:
        correct, attempted, failed, values = measure(workload, work, args.seed, args.seconds)

    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"error: metrics {sorted(set(values) - names)} are not in BENCHMARK.json, "
              f"and {sorted(names - set(values))} were not measured", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
