"""Command-line interface.

Subcommands:
  summarize   write one summary file per (cluster, measure, alpha, r, ard)
  evaluate    run the sweep and write report.csv / best.csv / correlations.csv
  dump-graph  export a cluster's edge list as CSV

A flat ``key = value`` config file (--config) can hold any long option of
the subcommand, and nothing else; explicit command-line flags win over
config values.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import centrality, evaluate, graph, summarize
from .centrality import WEIGHTED_MEASURES, WalkParams
from .corpus import load_corpus, parse_budget, parse_manifest
from .errors import NetsummError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CORPUS = 2
EXIT_NO_REFERENCES = 3


def _comma_list(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _number(key: str, text, kind=float):
    """text as an int or float; anything else is an error naming key."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise NetsummError(f"{key} must be {what}, got {text!r}") from None


def _float_list(key: str, text: str) -> tuple:
    return tuple(_number(key, part) for part in _comma_list(text))


def _add_common(sub):
    sub.add_argument("--corpus", help="corpus directory")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--lang", help="override cluster language (en|pt)")
    sub.add_argument("--alpha", help="comma list of alpha values")
    sub.add_argument("--r", help="comma list of edge-removal fractions")
    sub.add_argument("--measure", help="comma list of measure ids")
    sub.add_argument("--ard", help="comma list of none|AR1|AR2")
    sub.add_argument("--h", help="walk length / level depth (default 2)")
    sub.add_argument("--jobs",
                     help="parallel cluster workers (default: CPU count, "
                          "at most one per cluster)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsumm",
        description="multilayer-network extractive multi-document summarizer")
    subs = parser.add_subparsers(dest="command", required=True)

    p_sum = subs.add_parser("summarize", help="write summary files")
    _add_common(p_sum)
    p_sum.add_argument("--budget", help="override budget, e.g. words:100")
    p_sum.add_argument("--dump-sim", action="store_true",
                       help="also write per-cluster similarity matrices")
    p_sum.add_argument("--dump-graph", action="store_true",
                       help="also write per-cluster edge lists")
    p_sum.add_argument("--dump-scores", action="store_true",
                       help="also write per-ranking score tables")

    p_eval = subs.add_parser("evaluate", help="run the sweep, write CSVs")
    _add_common(p_eval)
    p_eval.add_argument("--aggregate", choices=("mean", "max"),
                        help="multi-reference aggregation (default mean)")

    p_dump = subs.add_parser("dump-graph", help="export edge lists")
    p_dump.add_argument("--corpus")
    p_dump.add_argument("--out")
    p_dump.add_argument("--config")
    p_dump.add_argument("--cluster", help="only this cluster id")
    p_dump.add_argument("--alpha", help="single alpha (default 1.0)")
    p_dump.add_argument("--r", help="optional removal fraction")
    return parser


_BOOLEAN_KEYS = ("dump-sim", "dump-graph", "dump-scores")
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _merge_config(args: argparse.Namespace) -> dict:
    """Start from config-file values, overwrite with explicit flags."""
    merged = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise NetsummError(f"config file {cfg_path} not found")
        merged.update(parse_manifest(
            cfg_path.read_text(encoding="utf-8"), str(cfg_path)))
        options = {key.replace("_", "-") for key in vars(args)} \
            - {"command", "config"}
        for key in merged:
            if key not in options:
                raise NetsummError(
                    f"{cfg_path}: unknown key {key!r}; {args.command} takes "
                    f"{', '.join(sorted(options))}")
        for key in _BOOLEAN_KEYS:
            if key in merged:
                value = _BOOLEANS.get(merged[key].lower())
                if value is None:
                    raise NetsummError(
                        f"{cfg_path}: {key} must be true, false, 1 or 0, "
                        f"got {merged[key]!r}")
                merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and value is not False:
            merged[key.replace("_", "-")] = value
    return merged


def _grid_from(merged: dict) -> evaluate.SweepGrid:
    kwargs = {}
    if "alpha" in merged:
        kwargs["alphas"] = _float_list("alpha", str(merged["alpha"]))
    if "r" in merged:
        kwargs["rs"] = _float_list("r", str(merged["r"]))
    if "measure" in merged:
        kwargs["measures"] = tuple(_comma_list(str(merged["measure"])))
    if "ard" in merged:
        kwargs["ards"] = tuple(_comma_list(str(merged["ard"])))
    return evaluate.SweepGrid(**kwargs)


def _walk_params(merged: dict) -> WalkParams:
    if "h" in merged:
        return WalkParams(h=_number("h", merged["h"], int))
    return WalkParams()


def _load(merged: dict) -> list:
    corpus_path = merged.get("corpus")
    if not corpus_path or not Path(corpus_path).is_dir():
        print(f"error: corpus path {corpus_path!r} does not exist",
              file=sys.stderr)
        raise SystemExit(EXIT_BAD_CORPUS)
    clusters = load_corpus(corpus_path)
    lang = merged.get("lang")
    if lang:
        clusters = [replace(c, language=lang) for c in clusters]
    budget = merged.get("budget")
    if budget:
        parsed = parse_budget(str(budget))
        clusters = [replace(c, budget=parsed) for c in clusters]
    return clusters


def _out_dir(merged: dict) -> Path:
    out = merged.get("out")
    if not out:
        print("error: --out directory is required", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_summarize(merged: dict) -> int:
    clusters = _load(merged)
    out = _out_dir(merged)
    grid = _grid_from({**{"alpha": "1.0", "r": "0.2",
                          "measure": "dg", "ard": "none"}, **merged})
    params = _walk_params(merged)
    for cluster in clusters:
        prepared = evaluate.prepare_cluster(cluster)
        sym = None  # alpha-invariant: computed once per cluster
        if merged.get("dump-sim"):
            _write_sim(out / f"{cluster.id}__sim.csv", prepared)
        for alpha in grid.alphas:
            g_alpha = graph.apply_alpha(prepared.base, alpha)
            if merged.get("dump-graph"):
                _write_edges(out / f"{cluster.id}__a{alpha:g}__edges.csv",
                             g_alpha)
            for measure in grid.measures:
                variants = [(None, g_alpha)] if measure in WEIGHTED_MEASURES \
                    else [(r, graph.remove_weakest(g_alpha, r))
                          for r in grid.rs]
                for r, g_var in variants:
                    if measure in ("sym", "sym_low"):
                        if sym is None:
                            sym = centrality.compute("sym", prepared.base,
                                                     params)
                        ranking = sym if measure == "sym" \
                            else centrality.sym_low_from(sym)
                    else:
                        ranking = centrality.compute(measure, g_var, params)
                    stem = (f"{cluster.id}__{measure}__a{alpha:g}"
                            f"__r{evaluate.fmt_r(r)}")
                    if merged.get("dump-scores"):
                        _write_scores(out / f"{stem}__scores.csv", ranking)
                    for ard in grid.ards:
                        summ = summarize.select(
                            prepared.records, ranking, cluster.budget,
                            summarize.RedundancyConfig(method=ard),
                            vectors=prepared.state, cluster_id=cluster.id)
                        path = out / f"{stem}__{ard}.txt"
                        path.write_text(summ.text + "\n", "utf-8")
                        print(f"wrote {path} "
                              f"({summ.budget_used} {cluster.budget.kind})")
    return EXIT_OK


def cmd_evaluate(merged: dict) -> int:
    clusters = _load(merged)
    missing = [c.id for c in clusters if not c.references]
    if missing:
        print(f"error: clusters without references: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_NO_REFERENCES
    out = _out_dir(merged)
    grid = _grid_from(merged)
    params = _walk_params(merged)
    jobs = _number("jobs", merged.get("jobs", 0), int) \
        or (os.cpu_count() or 1)
    report = evaluate.run_sweep(clusters, grid, params,
                                aggregate=merged.get("aggregate", "mean"),
                                jobs=jobs)
    evaluate.write_report_csv(report, out / "report.csv")
    evaluate.write_best_csv(report, out / "best.csv")
    evaluate.write_correlations_csv(report, out / "correlations.csv")
    evaluate.write_curves(report, out)
    print(f"evaluated {len(report.rows)} cells over "
          f"{len(report.cluster_ids)} clusters -> {out}")
    return EXIT_OK


def cmd_dump_graph(merged: dict) -> int:
    clusters = _load(merged)
    out = _out_dir(merged)
    only = merged.get("cluster")
    alpha = _number("alpha", merged.get("alpha", 1.0))
    r = merged.get("r")
    if r is not None:
        r = _number("r", r)
    for cluster in clusters:
        if only and cluster.id != only:
            continue
        g = graph.apply_alpha(evaluate.prepare_cluster(cluster).base, alpha)
        suffix = f"__a{alpha:g}"
        if r is not None:
            g = graph.remove_weakest(g, r)
            suffix += f"__r{r:g}"
        path = out / f"{cluster.id}{suffix}__edges.csv"
        print(f"wrote {path} ({_write_edges(path, g)} edges)")
    return EXIT_OK


def _write_edges(path: Path, g) -> int:
    """Write g's edge list; returns the number of edges."""
    lines = ["i,j,weight,kind"]
    lines += [f"{e.u},{e.v},{e.weight:.10g},{e.kind}" for e in g.edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def _write_sim(path: Path, prepared: evaluate.PreparedCluster) -> None:
    sims = prepared.base.W.copy()
    # a sentence's cosine with itself: 1, or 0 for the zero vector
    np.fill_diagonal(sims, [1.0 if v.norm else 0.0 for v in prepared.vectors])
    lines = [",".join(f"{x:.6f}" for x in row) for row in sims.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_scores(path: Path, ranking) -> None:
    lines = ["node,score"]
    lines += [f"{node},{ranking.scores[node]:.10g}"
              for node in sorted(ranking.scores)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        if args.command == "summarize":
            return cmd_summarize(merged)
        if args.command == "evaluate":
            return cmd_evaluate(merged)
        return cmd_dump_graph(merged)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_ERROR
    except NetsummError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
