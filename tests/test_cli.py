import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corex import cli, synth
from corex.cli import main
from corex.coreid import rank_candidates, select_rank_ecv
from corex.evaluate import _replicate_seed
from corex.spectral import eigengap_profile
from corex.synth import DESIGN_FIELDS, SynthConfig, generate_instance, graphon_core


def run(args):
    return main(args)


def read_truth(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)[:, 1].astype(bool)


def read_bytes_map(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


GEN_FLAGS = ["generate", "--graphon", "1", "--n-core", "30", "--n-periphery", "30",
             "--periphery", "er", "--density", "0.05", "--ratio", "2", "--seed", "3"]


class TestGenerate:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "gen"
        assert run(GEN_FLAGS + ["--out-dir", str(out)]) == 0
        for name in ("run.json", "edges.tsv", "truth.csv", "meta.json"):
            assert (out / name).exists()
        truth = read_truth(out / "truth.csv")
        assert truth.sum() == 30 and truth.size == 60
        meta = json.loads((out / "meta.json").read_text())
        assert meta["graphon"] == "table1_g1"
        assert abs(meta["realized_density"] - 0.05) < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(GEN_FLAGS + ["--out-dir", str(a)])
        run(GEN_FLAGS + ["--out-dir", str(b)])
        files_a, files_b = read_bytes_map(a), read_bytes_map(b)
        assert set(files_a) == set(files_b)
        for name in files_a:
            if name == "run.json":
                continue  # echoes the differing --out-dir flag
            assert files_a[name] == files_b[name], name

    def test_thread_flag_is_usage_error(self, tmp_path):
        out = tmp_path / "t"
        with pytest.raises(SystemExit) as exc:
            main(GEN_FLAGS + ["--out-dir", str(out), "--threads", "4"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_run_record_has_no_threads_key(self, tmp_path):
        run(GEN_FLAGS + ["--out-dir", str(tmp_path)])
        params = json.loads((tmp_path / "run.json").read_text())["parameters"]
        assert "threads" not in params

    def test_pure_core_network(self, tmp_path):
        out = tmp_path / "pure"
        code = run(["generate", "--graphon", "2", "--n-core", "25",
                    "--n-periphery", "0", "--density", "0.1", "--seed", "1",
                    "--out-dir", str(out)])
        assert code == 0
        assert read_truth(out / "truth.csv").all()

    def test_no_sizes_means_balanced(self, tmp_path):
        assert run(["generate", "--graphon", "1", "--density", "0.005",
                    "--out-dir", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert (meta["n_core"], meta["n_periphery"]) == (1000, 1000)

    @pytest.mark.parametrize("command", ["generate", "bench"])
    @pytest.mark.parametrize("sizes", [["--n-core", "20"], ["--n-periphery", "20"],
                                       ["--preset-sizes", "small-core", "--n-core", "20",
                                        "--n-periphery", "20"]],
                             ids=["core-only", "periphery-only", "preset-and-both"])
    def test_mixed_size_flags_are_data_error(self, tmp_path, command, sizes):
        out = tmp_path / "mixed"
        assert run([command, "--graphon", "1", *sizes, "--out-dir", str(out)]) == 3
        assert not out.exists()


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "data"
    run(GEN_FLAGS + ["--out-dir", str(out)])
    return out


IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    out, steps = Path(sys.argv[1]), sys.argv[2]
    loaded = {}

    def record(step):
        loaded[step] = {top: sorted(k for k in sys.modules if k.split(".")[0] == top)
                        for top in ("scipy", "corex")}

    import corex
    record("import corex")
    from corex.cli import main
    record("import")
    if steps == "identify":
        assert main(["identify", "--input", str(out / "er" / "edges.tsv"), "--rank", "3",
                     "--select", "threshold", "--out-dir", str(out / "id")]) == 0
        record("identify")
    if steps in ("er", "config"):
        data = out / steps
        assert main(["generate", "--graphon", "1", "--n-core", "30", "--n-periphery", "30",
                     "--periphery", steps, "--density", "0.05", "--seed", "3",
                     "--out-dir", str(data)]) == 0
        record("generate")
        assert main(["diagnose", "--truth-p", str(data / "meta.json"), "--rank", "3",
                     "--sweep", "0,20", "--out-dir", str(data / "diag")]) == 0
        record("diagnose")
    print(json.dumps(loaded))
""")


def run_import_probe(out, steps):
    """The scipy and corex modules loaded after each step of IMPORT_PROBE,
    run in a fresh interpreter, because this one has them loaded already."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(out), steps], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_for_sparse_solves(tmp_path):
    """`import corex`, `generate` and `diagnose --truth-p` never import
    scipy; `identify` loads `scipy.sparse` on its first CSR matrix.
    `generate` and `diagnose --truth-p --sweep` load only the modules they
    run, the same ones for either periphery type, and `identify` neither
    the benchmark harness nor the baselines; each in a fresh interpreter."""
    for periphery in ("er", "config"):
        loaded = run_import_probe(tmp_path, periphery)
        for step in ("import", "generate", "diagnose"):
            assert loaded[step]["scipy"] == [], (periphery, step, loaded[step]["scipy"][:5])
        assert loaded["import corex"]["corex"] == ["corex"]
        assert loaded["generate"]["corex"] == ["corex", "corex.cli", "corex.errors",
                                               "corex.graph", "corex.synth"], periphery
        assert loaded["diagnose"]["corex"] == ["corex", "corex.cli", "corex.errors",
                                               "corex.graph", "corex.spectral",
                                               "corex.synth"], periphery
    loaded = run_import_probe(tmp_path, "identify")
    assert "scipy.sparse" in loaded["identify"]["scipy"]
    assert not {"corex.evaluate", "corex.baselines"} & set(loaded["identify"]["corex"])


def test_benchmark_traced_names_resolve():
    """Every function perfbench/traced.py wraps by name is still where it
    looks, so a move that strands a traced name fails here: each
    `corex.<layer>.<name>` of its SPANS, `SparseGraph.to_csr`, and the
    `SparseGraph(g.n, g.adjacency)` rebuild it times as `graph.validate`.
    The sweep has one home, re-exported where the harness names it."""
    import importlib.util

    import corex
    from corex import evaluate, spectral
    from corex.graph import SparseGraph, sample_adjacency

    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for layer, names in traced.SPANS.items():
        module = importlib.import_module(f"corex.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"corex.{layer}.{name}"
    assert traced.PEAKS <= {f"{layer}.{name}" for layer, names in traced.SPANS.items()
                            for name in names}
    assert evaluate.eigengap_profile is spectral.eigengap_profile is corex.eigengap_profile
    g = sample_adjacency(np.full((6, 6), 0.5) - np.eye(6) * 0.5, 1)
    assert g.m > 0 and g.to_csr().nnz == 2 * g.m
    rebuilt = SparseGraph(g.n, g.adjacency)
    assert np.array_equal(rebuilt.indptr, g.indptr)
    assert np.array_equal(rebuilt.indices, g.indices)


class TestIdentify:
    def test_topk_outputs(self, generated, tmp_path):
        out = tmp_path / "id"
        code = run(["identify", "--input", str(generated / "edges.tsv"),
                    "--model", "er", "--rank", "3", "--select", "topk:30",
                    "--seed", "0", "--out-dir", str(out)])
        assert code == 0
        scores = (out / "scores.csv").read_text().strip().splitlines()
        assert scores[0] == "node_id,score" and len(scores) == 61
        partition = (out / "partition.csv").read_text().strip().splitlines()
        assert partition[0] == "node_id,is_core,score"
        n_core = sum(int(line.split(",")[1]) for line in partition[1:])
        assert n_core == 30
        info = json.loads((out / "identify.json").read_text())
        assert info["rank_used"] == 3 and info["cutoff"] is None

    def test_threshold_and_kmeans(self, generated, tmp_path):
        for select in ("threshold", "kmeans"):
            out = tmp_path / select
            code = run(["identify", "--input", str(generated / "edges.tsv"),
                        "--model", "er", "--rank", "3", "--select", select,
                        "--out-dir", str(out)])
            assert code == 0
            info = json.loads((out / "identify.json").read_text())
            assert info["cutoff"] is not None

    def test_config_model(self, generated, tmp_path):
        out = tmp_path / "cfg"
        code = run(["identify", "--input", str(generated / "edges.tsv"),
                    "--model", "config", "--rank", "3", "--select", "kmeans",
                    "--out-dir", str(out)])
        assert code == 0
        info = json.loads((out / "identify.json").read_text())
        assert "excluded_nodes" in info

    def test_rank_auto_records_selection(self, generated, tmp_path):
        out = tmp_path / "auto"
        code = run(["identify", "--input", str(generated / "edges.tsv"),
                    "--model", "er", "--rank", "auto", "--select", "kmeans",
                    "--out-dir", str(out)])
        assert code == 0
        info = json.loads((out / "identify.json").read_text())
        assert info["rank_selection"]["chosen_r"] == info["rank_used"]

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(["identify", "--input", str(tmp_path / "nope.tsv"),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 3

    def test_reruns_byte_identical(self, generated, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        flags = ["identify", "--input", str(generated / "edges.tsv"),
                 "--model", "er", "--rank", "4", "--select", "threshold"]
        run(flags + ["--out-dir", str(a)])
        run(flags + ["--out-dir", str(b)])
        assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()
        assert (a / "partition.csv").read_bytes() == (b / "partition.csv").read_bytes()


class TestBench:
    def test_methods_help_names_every_method(self):
        # the parser is built without importing evaluate, which defines the names
        from corex.evaluate import ALL_METHODS
        bench = cli.build_parser()._subparsers._group_actions[0].choices["bench"]
        methods = next(a for a in bench._actions if a.dest == "methods")
        assert methods.help == f"comma list from {','.join(ALL_METHODS)}"

    def test_small_explicit_bench(self, tmp_path):
        out = tmp_path / "bench"
        code = run(["bench", "--graphon", "1", "--periphery", "er",
                    "--n-core", "30", "--n-periphery", "30", "--ratios", "2",
                    "--methods", "proposed_er,degree", "--replicates", "2",
                    "--rank", "3", "--density", "0.08", "--seed", "5",
                    "--out-dir", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["settings"]) == 1
        aucs = summary["settings"][0]["auc"]
        assert set(aucs) == {"proposed_er", "degree"}
        assert (out / "roc_ratio2_proposed_er.csv").exists()
        assert (out / "roc_ratio2_degree.csv").exists()

    def test_honours_explicit_sizes(self, tmp_path):
        assert run(["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
                    "--ratios", "1", "--replicates", "1", "--methods", "degree",
                    "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        config = summary["settings"][0]["config"]
        assert (config["n_core"], config["n_periphery"]) == (20, 20)
        params = json.loads((tmp_path / "run.json").read_text())["parameters"]
        assert (params["n_core"], params["n_periphery"]) == (20, 20)
        assert "preset" not in params

    @pytest.mark.parametrize("preset", ["fig2-g1", "balanced"])
    def test_preset_flag_is_usage_error(self, tmp_path, preset):
        # "balanced" would pass as --preset-sizes if flags matched by prefix
        out = tmp_path / "preset"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--graphon", "1", "--preset", preset, "--ratios", "1",
                  "--replicates", "1", "--methods", "degree", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("n_core, n_periphery, density", [(30, 30, 0.08), (4, 4, 0.4)],
                             ids=["30-30", "n-8"])
    def test_rank_auto_uses_the_identify_candidates(self, tmp_path, n_core, n_periphery,
                                                    density):
        # n = 8 has fewer candidate ranks than ten: the rule caps them below n
        assert run(["bench", "--graphon", "1", "--n-core", str(n_core),
                    "--n-periphery", str(n_periphery), "--ratios", "2",
                    "--density", str(density), "--methods", "proposed_er",
                    "--replicates", "1", "--rank", "auto", "--seed", "4",
                    "--out-dir", str(tmp_path)]) == 0
        setting = json.loads((tmp_path / "summary.json").read_text())["settings"][0]
        assert setting["config"]["rank"] == "auto" and "rank_mode" not in setting["config"]
        rep_seed, = setting["replicate_seeds"]
        cfg = SynthConfig(graphon=synth.graphon_by_number(1), n_core=n_core,
                          n_periphery=n_periphery, periphery="er", degree_ratio=2.0,
                          target_density=density, seed=rep_seed)
        g = generate_instance(cfg).sample()
        expected = select_rank_ecv(g, rank_candidates(g.n), seed=rep_seed).chosen_r
        assert setting["chosen_ranks"] == [expected]

    # graphon 1 at 3 + 2 nodes and ratio 1: the first replicate of seed 0 samples no edge
    NO_EDGE_DESIGN = ["bench", "--graphon", "1", "--n-core", "3", "--n-periphery", "2",
                      "--ratios", "1", "--replicates", "1"]

    @pytest.mark.parametrize("rank", ["4", "auto"])
    def test_replicate_without_edges_is_data_error(self, tmp_path, capsys, rank):
        rep_seed = _replicate_seed(0, 0)
        cfg = SynthConfig(graphon=synth.graphon_by_number(1), n_core=3, n_periphery=2,
                          periphery="er", degree_ratio=1.0, seed=rep_seed)
        assert generate_instance(cfg).sample().m == 0
        assert run(self.NO_EDGE_DESIGN + ["--rank", rank, "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"error: replicate 0 (seed {rep_seed}) "
                                           f"sampled no edges to score\n")

    def test_baselines_score_a_replicate_without_edges(self, tmp_path):
        # at the default rank 6, which no baseline uses, on 5 nodes
        assert run(self.NO_EDGE_DESIGN + ["--methods", "degree,pagerank,local_cc,kcore",
                                          "--out-dir", str(tmp_path)]) == 0

    def test_rank_is_checked_only_for_a_proposed_method(self, tmp_path, capsys):
        out = tmp_path / "proposed"
        assert run(self.NO_EDGE_DESIGN + ["--methods", "degree,proposed_er",
                                          "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: --rank 6 must be below n = 5\n"
        assert not out.exists()
        assert run(["bench", "--graphon", "1", "--n-core", "3", "--n-periphery", "2",
                    "--replicates", "1", "--methods", "degree,kcore",
                    "--out-dir", str(tmp_path / "baselines")]) == 0

    def test_eigenvector_on_a_replicate_without_edges_is_data_error(self, tmp_path, capsys):
        # the same replicate-level error as the proposed methods, not the
        # scorer's own "needs at least one edge"
        rep_seed = _replicate_seed(0, 0)
        assert run(self.NO_EDGE_DESIGN + ["--methods", "degree,eigenvector",
                                          "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"error: replicate 0 (seed {rep_seed}) "
                                           f"sampled no edges to score\n")

    def test_rank_mode_flag_is_usage_error(self, tmp_path):
        out = tmp_path / "ecv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
                  "--rank-mode", "ecv", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_rerun_identical_summary(self, tmp_path):
        flags = ["bench", "--graphon", "2", "--periphery", "config",
                 "--n-core", "25", "--n-periphery", "25", "--ratios", "1.5",
                 "--methods", "degree,kcore", "--replicates", "2",
                 "--density", "0.1", "--seed", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        run(flags + ["--out-dir", str(a)])
        run(flags + ["--out-dir", str(b)])
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


class TestDiagnose:
    def test_truth_mode(self, generated, tmp_path):
        out = tmp_path / "diag"
        code = run(["diagnose", "--truth-p", str(generated / "meta.json"),
                    "--rank", "3", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert set(report) == {"p_star", "h_n", "h_prime_n", "eigenvalues", "gap_r"}
        assert report["h_n"] is not None
        assert len(report["eigenvalues"]) == 60

    def test_empirical_mode(self, generated, tmp_path):
        out = tmp_path / "emp"
        code = run(["diagnose", "--input", str(generated / "edges.tsv"),
                    "--rank", "4", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["p_star"] is None and report["h_n"] is None
        assert report["p_hat"] > 0

    def test_eigengap_sweep(self, generated, tmp_path):
        out = tmp_path / "sweep"
        code = run(["diagnose", "--truth-p", str(generated / "meta.json"),
                    "--rank", "3", "--sweep", "0,20,40",
                    "--periphery-level", "0.05", "--out-dir", str(out)])
        assert code == 0
        meta = json.loads((generated / "meta.json").read_text())
        core = generate_instance(synth.read_design(meta)).assembly.core
        expected = "n_periphery,lambda_1,gap_3_4,normalized_gap\n" + "".join(
            f"{rec['n_periphery']},{rec['lambda_1']!r},{rec['gap_3_4']!r},"
            f"{rec['normalized_gap']!r}\n" for rec in eigengap_profile(core, [0, 20, 40], 0.05))
        assert (out / "eigengap_sweep.csv").read_bytes() == expected.encode()

    def test_truth_mode_reads_the_design_only(self, generated, tmp_path):
        # meta.json's er_level is a record of the run: a rewritten one changes nothing
        meta = json.loads((generated / "meta.json").read_text())
        outputs = []
        for name, level in [("kept", None), ("small", 0.001), ("text", "x")]:
            path = generated / "meta.json"
            if level is not None:
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps({**meta, "er_level": level}))
            out = tmp_path / name
            assert run(["diagnose", "--truth-p", str(path), "--rank", "3", "--sweep", "0,20",
                        "--out-dir", str(out)]) == 0
            outputs.append([(out / f).read_bytes()
                            for f in ("diagnostics.json", "eigengap_sweep.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("flags", [["--sweep=-5"], ["--sweep", "abc"],
                                       ["--sweep", "0,,20"],
                                       ["--sweep", "0,20", "--periphery-level", "1.5"]])
    def test_bad_sweep_is_data_error(self, generated, tmp_path, flags):
        out = tmp_path / "bad_sweep"
        code = run(["diagnose", "--truth-p", str(generated / "meta.json"),
                    "--rank", "3", "--out-dir", str(out)] + flags)
        assert code == 3
        assert not out.exists()

    def test_malformed_path_no_partial_files(self, tmp_path):
        out = tmp_path / "nothing"
        code = run(["diagnose", "--truth-p", str(tmp_path / "missing.json"),
                    "--out-dir", str(out)])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--truth-p", "--input"])
    def test_rank_below_one_is_data_error(self, generated, tmp_path, source):
        path = generated / ("meta.json" if source == "--truth-p" else "edges.tsv")
        out = tmp_path / "rank0"
        code = run(["diagnose", source, str(path), "--rank", "0", "--out-dir", str(out)])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("n_core", "abc"), ("n_core", 30.5), ("n_periphery", None), ("seed", 1.5),
        ("degree_ratio", "3"), ("degree_ratio", float("nan")), ("target_density", "0.05"),
        ("periphery", "dense"), ("graphon", ["table1_g1"]),
    ])
    def test_meta_type_fault_is_data_error(self, generated, tmp_path, capsys, field, value):
        meta = json.loads((generated / "meta.json").read_text())
        meta[field] = value
        bad = tmp_path / "meta.json"
        bad.write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert run(["diagnose", "--truth-p", str(bad), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_core_built_once(self, generated, tmp_path, monkeypatch):
        # the sweep reuses the instance's unscaled core instead of sampling it again
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return graphon_core(*args, **kwargs)

        monkeypatch.setattr(synth, "graphon_core", counted)
        monkeypatch.setattr(cli, "graphon_core", counted, raising=False)
        assert run(["diagnose", "--truth-p", str(generated / "meta.json"), "--rank", "3",
                    "--sweep", "0,20", "--out-dir", str(tmp_path / "once")]) == 0
        assert len(calls) == 1

    def test_mutually_exclusive_inputs(self, generated, tmp_path):
        code = run(["diagnose", "--truth-p", str(generated / "meta.json"),
                    "--input", str(generated / "edges.tsv"),
                    "--out-dir", str(tmp_path / "x")])
        assert code == 3


@pytest.fixture(scope="module")
def valid_meta(tmp_path_factory):
    out = tmp_path_factory.mktemp("meta")
    assert run(GEN_FLAGS + ["--out-dir", str(out)]) == 0
    return json.loads((out / "meta.json").read_text())


JSON_KINDS = {"null": st.none(), "bool": st.booleans(), "int": st.integers(),
              "float": st.floats(allow_nan=False, allow_infinity=False),
              "str": st.text(max_size=8), "list": st.lists(st.integers(), max_size=2),
              "dict": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)}
# the JSON kinds each meta.json field holds in a valid record; int and float
# are both JSON numbers, so a number field keeps its kind when given either
FIELD_KINDS = {"graphon": {"str"}, "periphery": {"str"}, "n_core": {"int"},
               "n_periphery": {"int"}, "seed": {"int"}, "target_density": {"int", "float"},
               "degree_ratio": {"int", "float"}}


@settings(max_examples=60)
@given(data=st.data(), field=st.sampled_from(sorted(FIELD_KINDS)))
def test_retyped_meta_field_exits_0_or_3(valid_meta, data, field):
    assert set(FIELD_KINDS) == set(DESIGN_FIELDS)
    kind = data.draw(st.sampled_from(sorted(set(JSON_KINDS) - FIELD_KINDS[field])))
    meta = {**valid_meta, field: data.draw(JSON_KINDS[kind])}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "meta.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        assert run(["diagnose", "--truth-p", path, "--rank", "3",
                    "--out-dir", os.path.join(tmp, "out")]) in (0, 3)


# one small run of every subcommand, for the run.json guard below
RUN_RECORD_FLAGS = {
    "generate": GEN_FLAGS[1:],
    "identify": ["--input", "{edges}", "--rank", "3"],
    "bench": ["--graphon", "1", "--n-core", "20", "--n-periphery", "20", "--ratios", "1",
              "--replicates", "1", "--methods", "degree"],
    "diagnose": ["--input", "{edges}", "--rank", "3"],
}


def test_run_record_names_every_flag(generated, tmp_path):
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(RUN_RECORD_FLAGS)
    edges = str(generated / "edges.tsv")
    for name, sub in subparsers.items():
        out = tmp_path / name
        flags = [f.format(edges=edges) for f in RUN_RECORD_FLAGS[name]]
        assert run([name, *flags, "--out-dir", str(out)]) == 0
        record = json.loads((out / "run.json").read_text())
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert record["subcommand"] == name
        assert set(record["parameters"]) == dests - {"func", "subcommand"}


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])  # missing required --graphon
        assert exc.value.code == 2

    def test_data_error_on_self_loop(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1 1\n")
        code = run(["identify", "--input", str(bad),
                    "--out-dir", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("flags, bad_args", [
        (["bench", "--graphon", "1", "--ratios", "1,,2"], True),
        (["bench", "--graphon", "1", "--replicates", "0"], True),
        (["diagnose", "--truth-p", "{not_json}"], True),
        (["diagnose", "--truth-p", "{not_object}"], True),
        (["identify", "--input", "{not_utf8}"], True),
        (["identify", "--input", "{directory}"], True),
        (["diagnose", "--input", "{directory}"], True),
        (["generate", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--ratio", "nan"], True),
        (["generate", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--ratio", "inf"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--ratios", "nan"], True),
        (["generate", "--graphon", "1", "--n-core", "1", "--n-periphery", "20"], True),
        (["identify", "--input", "{edges}", "--rank", "0"], True),
        (["identify", "--input", "{edges}", "--rank", "-3"], True),
        (["identify", "--input", "{edges}", "--select", "threshold", "--eps", "2"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--rank", "0"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--rank", "x"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--eps", "0"], True),
        (["identify", "--input", "{edges}", "--rank", "1", "--select", "topk:-1"], True),
        (["identify", "--input", "{edges}", "--rank", "1", "--select", "topk:x"], True),
        (["bench", "--graphon", "1", "--n-core", "3", "--n-periphery", "3",
          "--density", "0.4", "--rank", "6"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--methods", "degree,degree"], True),
        (["diagnose", "--truth-p", "{meta}", "--rank", "40"], True),
        (["diagnose", "--truth-p", "{meta}", "--rank", "3", "--sweep", "0,20",
          "--periphery-level", "1"], True),
        (["diagnose", "--truth-p", "{small_meta}", "--rank", "3", "--sweep", "0,20"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--ratios", "2,2.0000001"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--ratios", "2,2"], True),
        (["diagnose", "--truth-p", "{meta}", "--rank", "3", "--sweep", ""], True),
        (["diagnose", "--input", "{edges}", "--rank", "1", "--sweep", ""], True),
        (["bench", "--graphon", "3", "--n-core", "30", "--n-periphery", "0",
          "--replicates", "1", "--ratios", "1", "--rank", "2"], True),
        (["identify", "--input", "{n_1e20}", "--rank", "1"], True),
        (["identify", "--input", "{n_int64_max}", "--rank", "1"], True),
        (["diagnose", "--truth-p", "", "--input", "{edges}", "--rank", "1"], True),
        (["diagnose", "--input", "", "--truth-p", "{meta}", "--rank", "1"], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--ratios", ""], True),
        (["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
          "--methods", ""], True),
        (["identify", "--input", "{edges}", "--rank", "3"], True),
        (["identify", "--input", "{no_edges}", "--rank", "1"], True),
        (["diagnose", "--input", "{one_node}", "--rank", "1"], True),
        (["diagnose", "--input", "{edges}", "--rank", "3"], True),
        (["identify", "--input", "{edges}", "--rank", "1", "--select", "topk:4"], True),
    ], ids=["ratios", "replicates", "meta-not-json", "meta-not-object", "input-not-utf8",
            "identify-dir", "diagnose-dir", "ratio-nan", "ratio-inf", "ratios-nan",
            "one-core-node", "identify-rank-0", "identify-rank-negative", "identify-eps",
            "bench-rank-0", "bench-rank-word", "bench-eps", "identify-topk-negative",
            "identify-topk-word", "bench-rank-at-n", "bench-methods-twice",
            "diagnose-rank-at-n", "sweep-level", "sweep-small-core", "ratios-same-tag",
            "ratios-twice", "sweep-empty", "input-sweep-empty", "bench-no-periphery",
            "n-beyond-int64", "n-int64-max", "truth-p-empty", "input-empty",
            "ratios-empty", "methods-empty", "identify-rank-at-n", "identify-no-edges",
            "diagnose-one-node", "diagnose-input-rank-at-n", "identify-topk-above-n"])
    def test_bad_outside_input_is_data_error(self, tmp_path, capsys, flags, bad_args):
        files = {"not_json": tmp_path / "meta.json", "not_object": tmp_path / "list.json",
                 "not_utf8": tmp_path / "edges.tsv", "directory": tmp_path / "dir",
                 "edges": tmp_path / "triangle.tsv", "meta": tmp_path / "design.json",
                 "small_meta": tmp_path / "small_design.json",
                 "n_1e20": tmp_path / "n_1e20.tsv", "n_int64_max": tmp_path / "n_int64_max.tsv",
                 "no_edges": tmp_path / "no_edges.tsv", "one_node": tmp_path / "one_node.tsv"}
        design = {"graphon": "table1_g1", "n_core": 20, "n_periphery": 20, "periphery": "er",
                  "target_density": 0.1, "degree_ratio": 2.0, "seed": 0}
        files["meta"].write_text(json.dumps(design))
        files["small_meta"].write_text(json.dumps({**design, "n_core": 3}))
        files["edges"].write_text("0 1\n1 2\n0 2\n")
        # node counts whose pair keys overflow int64: refused before any allocation
        files["n_1e20"].write_text("n 99999999999999999999\n0 1\n")
        files["n_int64_max"].write_text(f"n {2**63 - 1}\n0 1\n")
        files["no_edges"].write_text("n 5\n")
        files["one_node"].write_text("n 1\n")
        files["not_json"].write_text("n 3\n0 1\n")
        files["not_object"].write_text("3\n")
        files["not_utf8"].write_bytes(b"0 1\n1 \xff2\n")
        files["directory"].mkdir()
        out = tmp_path / "out"
        code = run([f.format(**files) for f in flags] + ["--out-dir", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        if bad_args:  # rejected before any output is written
            assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["generate", "--graphon", "1", "--n-core", "20", "--n-periphery", "20"],
        ["identify", "--input", "{edges}", "--rank", "3"],
        ["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
         "--ratios", "1", "--replicates", "1", "--methods", "degree"],
        ["diagnose", "--input", "{edges}", "--rank", "3"],
    ], ids=["generate", "identify", "bench", "diagnose"])
    def test_negative_seed_is_data_error(self, generated, tmp_path, capsys, flags):
        out = tmp_path / "out"
        edges = str(generated / "edges.tsv")
        code = run([f.format(edges=edges) for f in flags]
                   + ["--seed", "-1", "--out-dir", str(out)])
        assert code == 3
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_eigenvector_no_convergence_is_solver_error(self, tmp_path, monkeypatch, capsys):
        from scipy.sparse import linalg

        from corex.baselines import eigenvector_scores
        from corex.errors import ConvergenceError
        from corex.graph import SparseGraph

        def no_convergence(*args, **kwargs):
            raise linalg.ArpackNoConvergence("ARPACK error -1: no convergence",
                                             np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        with pytest.raises(ConvergenceError):
            eigenvector_scores(SparseGraph.from_pairs(3, [(0, 1), (1, 2)]))
        code = run(["bench", "--graphon", "1", "--n-core", "20", "--n-periphery", "20",
                    "--ratios", "1", "--replicates", "1", "--methods", "eigenvector",
                    "--out-dir", str(tmp_path / "o")])
        assert code == 4
        assert "eigenvector centrality did not converge" in capsys.readouterr().err

    def test_out_of_memory_is_solver_error(self, tmp_path, monkeypatch, capsys):
        # a real allocation this large could get the process killed under
        # overcommit, so the loader only reports the failure
        def out_of_memory(source):
            raise MemoryError("Unable to allocate 7.28 TiB")

        edges = tmp_path / "edges.tsv"
        edges.write_text("n 999999999999\n0 1\n")
        monkeypatch.setattr(cli, "load_edge_list", out_of_memory)
        code = run(["identify", "--input", str(edges), "--out-dir", str(tmp_path / "o")])
        assert code == 4
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.28 TiB\n"

    def test_infeasible_is_solver_error(self, tmp_path):
        code = run(["generate", "--graphon", "1", "--n-core", "20",
                    "--n-periphery", "20", "--ratio", "0.01",
                    "--density", "0.02", "--out-dir", str(tmp_path / "o")])
        assert code == 4
