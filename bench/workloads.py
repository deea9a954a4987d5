"""The benchmark's workloads: their corpora, the netsumm calls that make one
pass over them, and the checks on what those calls write.

Every netsumm call goes through `netsumm.cli.main`, in this process, with
`--jobs 1`. The checks need no golden file: they test properties any
correct output has, and count each failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from netsumm import WEIGHTED_MEASURES, cli

import corpus_gen
from tracing import ROOT

# The grids are the benchmark's own, equal to netsumm's defaults today, so
# a later change of those defaults does not change the work measured.
ALPHAS = (0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9)
RS = (0.1, 0.2, 0.3, 0.4, 0.5)
ARDS = ("none", "AR1", "AR2")
ALL_MEASURES = ("stg", "pr_w", "sp_w", "sym", "sym_low",
                "dg", "pr", "sp", "access", "gAccess", "absT")
# The one setting every per-cluster `summarize` call uses.
SUMMARIZE_FLAGS = ("--measure", "dg", "--alpha", "1.0", "--r", "0.2",
                   "--ard", "AR1")
SUMMARY_NAME = "{cid}__dg__a1__r0.2__AR1.txt"


@dataclass(frozen=True)
class Grid:
    alphas: tuple = ALPHAS
    rs: tuple = RS
    measures: tuple = ALL_MEASURES
    ards: tuple = ARDS

    def flags(self) -> list:
        def join(values):
            return ",".join(f"{v:g}" if isinstance(v, float) else v
                            for v in values)
        return ["--alpha", join(self.alphas), "--r", join(self.rs),
                "--measure", join(self.measures), "--ard", join(self.ards)]

    def cell_count(self) -> int:
        return sum(len(self.alphas) * len(self.ards)
                   * (1 if m in WEIGHTED_MEASURES else len(self.rs))
                   for m in self.measures)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: corpus_gen.Shape
    clusters: int
    grid: Grid | None        # None: the workload only summarizes
    latency_calls: int       # summarize calls timed after each sweep


WORKLOADS = {w.name: w for w in (
    Workload("sweep-cst", corpus_gen.CST, clusters=1, grid=Grid(),
             latency_calls=20),
    Workload("sweep-duc", corpus_gen.DUC, clusters=1,
             grid=Grid(alphas=(1.0,),
                       measures=("dg", "stg", "pr", "pr_w", "sp", "sp_w",
                                 "gAccess", "absT")),
             latency_calls=10),
    Workload("summarize-duc", corpus_gen.DUC, clusters=16, grid=None,
             latency_calls=0),
)}


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure kind."""

    attempted: int = 0
    failed: int = 0
    problems: dict = field(default_factory=dict)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.problems[what] = self.problems.get(what, 0) + n


class Bench:
    """A generated corpus in a work directory, and the passes over it."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.tally = Tally()
        self.hashes = set()
        self.generated = [
            corpus_gen.make_cluster(workload.shape, seed, f"c{k:03d}")
            for k in range(workload.clusters)]
        # each cluster is a corpus of its own, so one call summarizes one
        self.corpora = [c.write(work / "corpus" / c.id).parent
                        for c in self.generated]
        self.summaries = work / "summaries"

    def _cli(self, argv: list, tracer=None) -> tuple:
        """(exit code, seconds) of one in-process `netsumm` call. A crash
        is reported and returned as a failed call, so the run goes on.

        The heap is collected before the clock starts: a `netsumm` command
        normally runs in a process of its own, so one call's garbage is not
        left for the next call's collector to walk."""
        span = contextlib.nullcontext() if tracer is None \
            else tracer.span(ROOT)
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                with span:
                    code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = "crash"
            return code, perf_counter() - start

    def summarize(self, k: int, tracer=None) -> float:
        """Summarize cluster k; return the call's latency in seconds."""
        code, seconds = self._cli(
            ["summarize", "--corpus", str(self.corpora[k]),
             "--out", str(self.summaries), *SUMMARIZE_FLAGS], tracer)
        self.check_summary(k, code)
        return seconds

    def summarize_pass(self, tracer=None) -> tuple:
        """Summarize every cluster once: (pass seconds, latencies)."""
        shutil.rmtree(self.summaries, ignore_errors=True)
        latencies = [self.summarize(k, tracer)
                     for k in range(len(self.generated))]
        digest = hashlib.sha256()
        for c in self.generated:
            path = self.summaries / SUMMARY_NAME.format(cid=c.id)
            digest.update(path.read_bytes() if path.is_file() else b"")
        self.hashes.add(digest.hexdigest())
        return sum(latencies), latencies

    def sweep_pass(self, tracer=None) -> float:
        """One `evaluate` run over the corpus; return its seconds."""
        out = self.work / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        code, seconds = self._cli(
            ["evaluate", "--corpus", str(self.corpora[0]), "--out", str(out),
             "--jobs", "1", *self.workload.grid.flags()], tracer)
        self.check_sweep(out, code)
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        self.hashes.add(digest.hexdigest())
        return seconds

    def one_pass(self, tracer=None) -> tuple:
        """(pass seconds, summarize latencies) of the workload's pass."""
        if self.workload.grid is None:
            return self.summarize_pass(tracer)
        return self.sweep_pass(tracer), []

    # -- checks -----------------------------------------------------------

    def check_summary(self, k: int, code: int) -> None:
        """One operation: cluster k's summary exists, is non-empty and
        keeps to its budget."""
        cluster = self.generated[k]
        self.tally.attempted += 1
        path = self.summaries / SUMMARY_NAME.format(cid=cluster.id)
        if code != 0 or not path.is_file():
            self.tally.fail(f"summarize exit {code} or no summary file")
            return
        words = len(path.read_text("utf-8").split())
        if words == 0:
            self.tally.fail("empty summary")
        elif words > word_limit(cluster):
            self.tally.fail("summary over budget")

    def check_sweep(self, out: Path, code: int) -> None:
        """One operation per cluster x cell: each report.csv score is a
        number in [0, 1], the row count is the grid's cell count, and each
        best.csv row is its measure's maximum in report.csv."""
        grid = self.workload.grid
        expected = grid.cell_count() * len(self.generated)
        self.tally.attempted += expected
        if code != 0:
            self.tally.fail(f"evaluate exit {code}", expected)
            return
        try:
            report = _read_csv(out / "report.csv")
            best = _read_csv(out / "best.csv")
        except OSError:
            self.tally.fail("missing report.csv or best.csv", expected)
            return
        rows = report[1:]
        if len(rows) != grid.cell_count():
            self.tally.fail("report.csv row count != grid cell count",
                            abs(grid.cell_count() - len(rows)))
        means = {}
        for row in rows:
            if len(row) != 5 + len(self.generated):
                self.tally.fail("report.csv row has the wrong column count")
                continue
            for cell in row[5:]:
                if not _unit_score(cell):
                    self.tally.fail("score missing or outside [0, 1]")
            if _unit_score(row[4]):
                means[tuple(row[:4])] = float(row[4])
        best_of = {}
        for key, mean in means.items():
            if mean > best_of.get(key[0], -1.0):
                best_of[key[0]] = mean
        seen = set()
        for row in best[1:]:
            measure = row[0]
            value = float(row[4]) if len(row) == 5 and _unit_score(row[4]) \
                else math.nan
            seen.add(measure)
            # best.csv rounds to 4 places what report.csv rounds to 6
            if (measure not in best_of or math.isnan(value)
                    or abs(value - best_of[measure]) > 5.1e-5
                    or abs(means.get(tuple(row[:4]), -1.0) - value) > 5.1e-5):
                self.tally.fail("best.csv row is not its measure's maximum")
        if seen != set(best_of):
            self.tally.fail("best.csv measures differ from report.csv",
                            len(seen ^ set(best_of)))

    def check_deterministic(self) -> None:
        """Every pass wrote the same bytes; a difference is one failure."""
        if len(self.hashes) > 1:
            self.tally.fail("outputs differ between passes")


def word_limit(cluster: corpus_gen.GeneratedCluster) -> int:
    kind, _, value = cluster.budget.partition(":")
    if kind == "words":
        return int(value)
    return max(1, math.ceil((1.0 - float(value)) * cluster.total_words()))


def _read_csv(path: Path) -> list:
    return [line.split(",") for line in
            path.read_text("utf-8").splitlines()]


def _unit_score(cell: str) -> bool:
    try:
        return 0.0 <= float(cell) <= 1.0
    except ValueError:
        return False
