"""Command-line interface.

Subcommands:
  summarize   write one summary file per (cluster, measure, alpha, r, ard)
  evaluate    run the sweep and write report.csv / best.csv / correlations.csv

A flat ``key = value`` config file (--config) can hold any long option of
the subcommand, and nothing else; explicit command-line flags win over
config values.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluate, summarize
from .corpus import (SUPPORTED_LANGUAGES, load_corpus, parse_budget,
                     parse_manifest, read_text)
from .errors import NetsummError, attempt

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main call; parse_args keeps no state between calls, and callers must
    not change the parser."""
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
                       help="also write the edge list of every alpha-scaled "
                            "and every thresholded graph")
    p_sum.add_argument("--dump-scores", action="store_true",
                       help="also write per-ranking score tables")

    p_eval = subs.add_parser("evaluate", help="run the sweep, write CSVs")
    _add_common(p_eval)
    p_eval.add_argument("--aggregate", choices=evaluate.AGGREGATES,
                        help="multi-reference aggregation (default mean)")
    p_eval.add_argument("--jobs",
                        help="parallel cluster workers (default: CPU count, "
                             "at most one per cluster)")
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
        merged.update(parse_manifest(read_text(cfg_path), str(cfg_path)))
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
    if "h" in merged:
        kwargs["h"] = _number("h", merged["h"], int)
    return evaluate.SweepGrid(**kwargs)


def _load(merged: dict) -> list:
    corpus_path = merged.get("corpus")
    if not corpus_path or not Path(corpus_path).is_dir():
        print(f"error: corpus path {corpus_path!r} does not exist",
              file=sys.stderr)
        raise SystemExit(EXIT_BAD_CORPUS)
    lang = merged.get("lang")
    if lang and lang not in SUPPORTED_LANGUAGES:
        raise NetsummError(f"unsupported language {lang!r}; expected one "
                           f"of {', '.join(SUPPORTED_LANGUAGES)}")
    clusters = load_corpus(corpus_path)
    if lang:
        clusters = [replace(c, language=lang) for c in clusters]
    budget = merged.get("budget")
    if budget:
        parsed = parse_budget(str(budget))
        clusters = [replace(c, budget=parsed) for c in clusters]
    return clusters


def _out_dir(merged: dict) -> Path:
    """The --out path, not yet created; exits 1 when there is none."""
    out = merged.get("out")
    if not out:
        print("error: --out directory is required", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    return Path(out)


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise NetsummError(
            f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def cmd_summarize(merged: dict) -> int:
    """Write each cluster's summaries; a failing cluster, ranking or
    summary is reported on stderr, the run goes on and exits 1. --out is
    created on the first write, so a run that writes nothing leaves none."""
    clusters = _load(merged)
    grid = _grid_from({**{"alpha": "1.0", "r": "0.2",
                          "measure": "dg", "ard": "none"}, **merged})
    out = _out_dir(merged)
    failed = False

    def target(name: str) -> Path:
        return _make_dir(out) / name

    def fail(where: str, exc: NetsummError) -> None:
        nonlocal failed
        failed = True
        print(f"error: {where}: {exc}", file=sys.stderr)

    for cluster in clusters:
        prepared = attempt(summarize.prepare_cluster, cluster)
        if isinstance(prepared, NetsummError):
            fail(cluster.id, prepared)
            continue
        # the kind the budget counts: a compression rate counts words
        kind, _ = prepared.budget_limit(cluster.budget)
        if merged.get("dump-sim"):
            _write_sim(target(f"{cluster.id}__sim.csv"), prepared)
        for alpha, r, g, cells in evaluate.grid_summaries(
                prepared, grid, cluster.budget):
            if merged.get("dump-graph") and g is not None:
                suffix = "" if r is None else f"__r{r:g}"
                _write_edges(
                    target(f"{cluster.id}__a{alpha:g}{suffix}__edges.csv"), g)
            for measure, cell in cells.items():
                stem = (f"{cluster.id}__{measure}__a{alpha:g}"
                        f"__r{evaluate.fmt_r(r)}")
                if isinstance(cell, NetsummError):
                    fail(stem, cell)
                    continue
                ranking, outcomes = cell
                if merged.get("dump-scores"):
                    _write_scores(target(f"{stem}__scores.csv"), ranking)
                for ard, summ in outcomes:
                    if isinstance(summ, NetsummError):
                        fail(f"{stem}__{ard}", summ)
                        continue
                    path = target(f"{stem}__{ard}.txt")
                    evaluate.write_lines(path, [summ.text])
                    print(f"wrote {path} ({summ.budget_used} {kind})")
    return EXIT_ERROR if failed else EXIT_OK


def cmd_evaluate(merged: dict) -> int:
    clusters = _load(merged)
    missing = [c.id for c in clusters if not c.references]
    if missing:
        print(f"error: clusters without references: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_NO_REFERENCES
    grid = _grid_from(merged)
    aggregate = merged.get("aggregate", "mean")
    jobs = _number("jobs", merged["jobs"], int) if "jobs" in merged \
        else os.cpu_count() or 1
    evaluate.check_sweep_options(aggregate, jobs)
    out = _make_dir(_out_dir(merged))
    report = evaluate.run_sweep(clusters, grid, aggregate, jobs)
    evaluate.write_report_csv(report, out / "report.csv")
    evaluate.write_best_csv(report, out / "best.csv")
    evaluate.write_correlations_csv(report, out / "correlations.csv")
    evaluate.write_curves(report, out)
    print(f"evaluated {len(report.rows)} cells over "
          f"{len(report.cluster_ids)} clusters -> {out}")
    notes = [note for row in report.rows for _, score, note in row.per_cluster
             if score is None]
    if notes:
        reasons = Counter(note.removeprefix("skip:") for note in notes)
        print(f"{len(notes)} cells skipped: " + ", ".join(
            f"{reason}×{count}" for reason, count in reasons.most_common()))
    if not report.best:
        print("error: no cell of any cluster has a score", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _write_edges(path: Path, g) -> None:
    lines = ["i,j,weight,kind"]
    lines += [f"{u},{v},{w:.10g},{kind}" for u, v, w, kind in g.edge_rows()]
    evaluate.write_lines(path, lines)


def _write_sim(path: Path, prepared: summarize.PreparedCluster) -> None:
    sims = prepared.base.W.copy()
    # a sentence's cosine with itself: 1, or 0 when it has no tokens
    np.fill_diagonal(sims, [1.0 if rec.tokens else 0.0
                            for rec in prepared.records])
    lines = [",".join(f"{x:.6f}" for x in row) for row in sims.tolist()]
    evaluate.write_lines(path, lines)


def _write_scores(path: Path, ranking) -> None:
    evaluate.write_lines(path, ["node,score"] + [
        f"{node},{x:.10g}" for node, x in enumerate(ranking.scores.tolist())])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        if args.command == "summarize":
            return cmd_summarize(merged)
        return cmd_evaluate(merged)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_ERROR
    except NetsummError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
