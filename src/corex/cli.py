"""Command-line front end: generate / identify / bench / diagnose.

Every subcommand checks its flags, and reads and checks the edge list or
meta.json it is given, before it makes the output directory, so a fault in
them exits with no output written.  It then writes a run.json echoing all
of its flags, resolved values in place of raw ones, before any heavy
computation starts.  All randomness flows from --seed (default 0, never
wall-clock), so reruns with identical flags are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data error, 4 convergence or
infeasibility error, or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (ConvergenceError, CorexError, DomainError, InfeasibleError,
                     ParseError, ValidationError)
from .graph import (_write_rows, average_density, degrees, load_edge_list, write_edge_list,
                    write_truth_labels)
from .synth import (PRESET_SIZES, SynthConfig, generate_instance, graphon_by_number,
                    read_design)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_SOLVER = 4

DEFAULT_RATIOS = (1.0, 2.0, 3.0)
RANK_HELP = "approximating rank, or 'auto' for edge cross-validation"


def _write_json(path, payload) -> None:
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run_record(args, **resolved) -> str:
    """Make --out-dir and its run.json: every flag, `resolved` values replacing raw ones."""
    os.makedirs(out_dir := args.out_dir, exist_ok=True)
    params = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    _write_json(os.path.join(out_dir, "run.json"),
                {"subcommand": args.subcommand, "version": __version__,
                 "parameters": {**params, **resolved}})
    return out_dir


def _design(args, ratios) -> list[SynthConfig]:
    """One design point per degree ratio, from the flags add_design declares;
    sizes are --preset-sizes or both --n-core and --n-periphery (neither: balanced)."""
    sizes = (args.n_core, args.n_periphery)
    if sizes == (None, None):
        sizes = PRESET_SIZES[args.preset_sizes or "balanced"]
    elif args.preset_sizes or None in sizes:
        raise DomainError("give --preset-sizes, or both --n-core and --n-periphery")
    return [SynthConfig(graphon=graphon_by_number(args.graphon), n_core=sizes[0],
                        n_periphery=sizes[1], periphery=args.periphery, degree_ratio=ratio,
                        target_density=args.density, seed=args.seed)
            for ratio in ratios]


def cmd_generate(args) -> int:
    cfg, = _design(args, [args.ratio])
    out_dir = _write_run_record(args, n_core=cfg.n_core, n_periphery=cfg.n_periphery)
    instance = generate_instance(cfg)
    g = instance.sample()
    write_edge_list(g, os.path.join(out_dir, "edges.tsv"))
    write_truth_labels(os.path.join(out_dir, "truth.csv"), instance.truth)
    meta = dict(instance.meta)
    meta["sampled_edges"] = g.m
    meta["sampled_density"] = average_density(g)
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    print(f"wrote edges.tsv ({g.m} edges), truth.csv, meta.json to {out_dir}")
    return EXIT_OK


def _parse_select(spec: str):
    if spec == "threshold" or spec == "kmeans":
        return spec, None
    if spec.startswith("topk:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            count = -1  # reported below, with the negative counts
        if count < 0:
            raise DomainError(f"top-k count must be a nonnegative integer, got {spec!r}")
        return "topk", count
    raise DomainError("--select must be topk:<N>, threshold, or kmeans")


def _parse_rank(spec: str):
    """--rank: a positive integer, or "auto" for edge cross-validation."""
    if spec == "auto":
        return spec
    try:
        rank = int(spec)
    except ValueError:
        rank = 0  # reported below, with the values that are not positive
    if rank < 1:
        raise DomainError(f"--rank must be a positive integer or 'auto', got {spec!r}")
    return rank


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise DomainError(f"--eps must lie in (0, 1), got {eps}")


def cmd_identify(args) -> int:
    from .coreid import (identify_top_k, kmeans_split, rank_candidates, select_rank_ecv,
                         threshold, write_partition_csv)
    from .spectral import config_scores, er_scores, truncated_eigs, write_scores_csv
    if not os.path.isfile(args.input):
        raise ValidationError(f"input file not found: {args.input}")
    select_method, topk = _parse_select(args.select)
    rank = _parse_rank(args.rank)
    _check_eps(args.eps)
    g = load_edge_list(args.input)
    if g.m == 0:
        raise ValidationError("input graph has no edges; nothing to identify")
    if rank != "auto" and rank >= g.n:
        raise DomainError(f"--rank {rank} must be below n = {g.n}")
    if select_method == "topk" and topk > g.n:
        raise DomainError(f"--select topk:{topk} must not exceed n = {g.n}")
    out_dir = _write_run_record(args, rank=rank)
    info = {"model": args.model, "rank_requested": args.rank}
    if rank == "auto":
        selection = select_rank_ecv(g, rank_candidates(g.n), seed=args.seed)
        rank = selection.chosen_r
        info["rank_selection"] = selection.to_json_dict()
    info["rank_used"] = rank
    dec = truncated_eigs(g, rank, seed=args.seed)
    if args.model == "er":
        scores = er_scores(dec)
    else:
        scores = config_scores(dec, degrees(g))
        if scores.excluded:
            print(f"warning: {len(scores.excluded)} zero-degree nodes "
                  f"pre-classified as periphery", file=sys.stderr)
        info["excluded_nodes"] = list(scores.excluded)
    p_hat = average_density(g)
    info["p_hat"] = p_hat
    if select_method == "topk":
        partition = identify_top_k(scores, topk)
    elif select_method == "threshold":
        partition = threshold(scores, p_hat, eps=args.eps)
    else:
        partition = kmeans_split(scores)
    info["cutoff"] = partition.cutoff
    info["n_core"] = partition.n_core
    write_scores_csv(os.path.join(out_dir, "scores.csv"), scores)
    write_partition_csv(os.path.join(out_dir, "partition.csv"), partition, scores)
    _write_json(os.path.join(out_dir, "identify.json"), info)
    print(f"identified {partition.n_core} core nodes out of {g.n}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .evaluate import (ALL_METHODS, PROPOSED_METHODS, check_plan, roc, run_experiment,
                           write_roc_csv)
    try:
        ratios = (tuple(map(float, args.ratios.split(","))) if args.ratios is not None
                  else DEFAULT_RATIOS)
    except ValueError:
        raise DomainError(f"--ratios must be a comma list of numbers: {args.ratios!r}") from None
    # ROC file tags; perfbench/run.py builds the same tag to find a file
    ratio_tags = [f"{ratio:g}".replace(".", "p") for ratio in ratios]
    if len(set(ratio_tags)) < len(ratio_tags):
        raise DomainError(f"--ratios must differ in their first 6 significant digits: "
                          f"{args.ratios!r}")
    cfgs = _design(args, ratios)
    if cfgs[0].n_periphery < 1:  # the ROC curves need both classes
        raise DomainError("bench needs --n-periphery >= 1")
    rank = _parse_rank(args.rank)
    _check_eps(args.eps)
    methods = check_plan(args.methods.split(",") if args.methods is not None else ALL_METHODS,
                         args.replicates)
    if rank != "auto" and rank >= cfgs[0].n and set(methods) & set(PROPOSED_METHODS):
        raise DomainError(f"--rank {rank} must be below n = {cfgs[0].n}")
    out_dir = _write_run_record(args, n_core=cfgs[0].n_core, n_periphery=cfgs[0].n_periphery,
                                ratios=list(ratios), methods=list(methods), rank=rank)
    summary = {"settings": [], "methods": list(methods)}
    for ratio, ratio_tag, cfg in zip(ratios, ratio_tags, cfgs):
        result = run_experiment(cfg, methods=methods, replicates=args.replicates, rank=rank,
                                eps=args.eps)
        pooled_truth = np.concatenate(result.truth_vectors)
        for method in methods:
            pooled = np.concatenate(result.score_vectors[method])
            write_roc_csv(os.path.join(out_dir, f"roc_ratio{ratio_tag}_{method}.csv"),
                          roc(pooled, pooled_truth), method)
        summary["settings"].append({**result.summary_dict(), "degree_ratio": ratio})
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"benchmarked {len(methods)} methods at {len(ratios)} ratios "
          f"({args.replicates} replicates each)")
    return EXIT_OK


def _read_meta(meta_path):
    try:
        with open(meta_path, "rt", encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"meta.json is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValidationError("meta.json must hold a JSON object")
    return read_design(meta)


def _parse_sweep(spec: str, periphery_level: float) -> list[int]:
    sizes = spec.split(",")
    if not all(s.strip().isdecimal() for s in sizes):
        raise DomainError(f"--sweep must be a comma list of nonnegative integers, "
                          f"got {spec!r}")
    if not 0.0 < periphery_level < 1.0:
        raise DomainError(f"--periphery-level must lie in (0, 1), got {periphery_level}")
    return [int(s) for s in sizes]


def cmd_diagnose(args) -> int:
    from .spectral import diagnostics, eigengap_profile, truncated_eigs
    truth = args.truth_p is not None  # "" counts as given, and then fails as no file
    if truth == (args.input is not None):
        raise DomainError("give exactly one of --truth-p or --input")
    if not truth and args.sweep is not None:
        raise DomainError("the eigengap sweep needs --truth-p (a known core model)")
    if args.rank < 1:
        raise DomainError(f"--rank must be >= 1, got {args.rank}")
    sizes = _parse_sweep(args.sweep, args.periphery_level) if args.sweep is not None else None
    source = args.truth_p if truth else args.input
    if not os.path.isfile(source):
        raise ValidationError(f"input file not found: {source}")
    if truth:
        cfg = _read_meta(args.truth_p)
        if args.rank >= cfg.n:
            raise DomainError(f"--rank {args.rank} must be below n = {cfg.n}")
        if sizes and cfg.n_core < 4:
            raise DomainError(f"the eigengap sweep needs n_core >= 4, got {cfg.n_core}")
    else:
        g = load_edge_list(args.input)
        if g.n < 2:
            raise ValidationError("graph too small to diagnose")
        if args.rank >= g.n:
            raise DomainError(f"--rank {args.rank} must be below n = {g.n}")
    out_dir = _write_run_record(args)
    if truth:
        instance = generate_instance(cfg)
        report = diagnostics(instance.assembly, args.rank)
        _write_json(os.path.join(out_dir, "diagnostics.json"), report.to_json_dict())
        if sizes is not None:
            records = eigengap_profile(instance.assembly.core, sizes, args.periphery_level)
            _write_rows(os.path.join(out_dir, "eigengap_sweep.csv"),
                        "n_periphery,lambda_1,gap_3_4,normalized_gap\n",
                        [f"{rec['n_periphery']},{rec['lambda_1']!r},{rec['gap_3_4']!r},"
                         f"{rec['normalized_gap']!r}\n" for rec in records])
    else:
        r = args.rank
        dec = truncated_eigs(g, r + 1 if r + 1 < g.n else r, seed=args.seed)
        eigenvalues = [float(v) for v in dec.eigenvalues]
        gap_r = (abs(eigenvalues[r - 1]) - abs(eigenvalues[r])
                 if len(eigenvalues) > r else None)
        _write_json(os.path.join(out_dir, "diagnostics.json"), {
            "p_star": None, "h_n": None, "h_prime_n": None,
            "p_hat": average_density(g),
            "eigenvalues": eigenvalues, "gap_r": gap_r,
        })
    print(f"wrote diagnostics.json to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corex",
        description="Identify the informative core of a network whose "
                    "periphery follows an uninformative connection pattern.",
    )
    # no prefix matching, so a removed flag (--preset) cannot stand for another
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    def add_common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="master random seed (default 0; never wall-clock)")
        p.add_argument("--out-dir", default=".", help="output directory")

    def add_design(p):
        p.add_argument("--graphon", type=int, choices=(1, 2, 3), required=True)
        p.add_argument("--n-core", type=int)
        p.add_argument("--n-periphery", type=int)
        p.add_argument("--preset-sizes", choices=sorted(PRESET_SIZES),
                       help="instead of --n-core and --n-periphery (default balanced)")
        p.add_argument("--periphery", choices=("er", "config"), default="er")
        p.add_argument("--density", type=float, default=0.02)

    p_gen = sub.add_parser("generate", help="emit a synthetic benchmark network")
    add_design(p_gen)
    p_gen.add_argument("--ratio", type=float, default=3.0,
                       help="core/periphery mean expected-degree ratio")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_id = sub.add_parser("identify", help="score a graph and extract its core")
    p_id.add_argument("--input", required=True, help="edge-list file")
    p_id.add_argument("--model", choices=("er", "config"), default="er")
    p_id.add_argument("--rank", default="auto", help=RANK_HELP)
    p_id.add_argument("--select", default="kmeans",
                      help="topk:<N> | threshold | kmeans")
    p_id.add_argument("--eps", type=float, default=0.01,
                      help="threshold exponent slack")
    add_common(p_id)
    p_id.set_defaults(func=cmd_identify)

    p_bench = sub.add_parser("bench", help="run the simulation benchmark")
    add_design(p_bench)
    p_bench.add_argument("--ratios", help="comma list, default 1,2,3")
    p_bench.add_argument("--methods", help="comma list from proposed_er,proposed_config,"
                         "degree,pagerank,eigenvector,local_cc,kcore")
    p_bench.add_argument("--replicates", type=int, default=20)
    p_bench.add_argument("--rank", default="6", help=RANK_HELP)
    p_bench.add_argument("--eps", type=float, default=0.01,
                         help="threshold exponent slack")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_diag = sub.add_parser("diagnose", help="signal-strength diagnostics")
    p_diag.add_argument("--truth-p", help="meta.json of a generated instance")
    p_diag.add_argument("--input", help="edge-list file for empirical spectra")
    p_diag.add_argument("--rank", type=int, default=6)
    p_diag.add_argument("--sweep",
                        help="comma list of periphery sizes for the eigengap sweep")
    p_diag.add_argument("--periphery-level", type=float, default=0.02)
    add_common(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand's randomness flows from --seed
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except CorexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER if isinstance(exc, (ConvergenceError, InfeasibleError)) else EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
