"""netsumm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-cst --seed 1 --seconds 60 --trace 0

Run from anywhere; the program is the netsumm package under src/ of the
same checkout. The run generates its corpus from --seed, measures for
--seconds, checks every output, and prints one metric per line, a context
line, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 they are per-layer self times and counts from a traced run. See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, in this process and in the
# set-up interpreters it starts.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
TAIL_BEYOND = 10
# What `setup_s` times in a fresh interpreter: import the CLI, load the
# corpus, load the language resources the corpus needs.
SETUP_SCRIPT = """\
import sys
from netsumm import cli, corpus, preprocess
clusters = [c for d in sys.argv[1:] for c in corpus.load_corpus(d)]
for language in sorted({c.language for c in clusters}):
    preprocess.load_resources(language)
"""


def _import_netsumm():
    """Import netsumm from this checkout's src/, or exit non-zero without
    printing a result."""
    if not (SRC / "netsumm" / "__init__.py").is_file():
        sys.exit(f"error: no netsumm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import netsumm
    if Path(netsumm.__file__).resolve().parent != SRC / "netsumm":
        sys.exit(f"error: imported netsumm from {netsumm.__file__}")


def measure_setup(corpora: list) -> list:
    """Wall seconds of SETUP_RUNS fresh interpreters, after one warm-up run
    that fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-c", SETUP_SCRIPT, *map(str, corpora)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - start)
    return times[1:]


def tail(samples: list) -> tuple:
    """(value, percentile): the highest sample with TAIL_BEYOND above it."""
    n = len(samples)
    return (sorted(samples)[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n)


def run_untraced(bench, seconds: float) -> dict:
    """Set-up timings, then rounds of one pass plus the workload's latency
    calls while another median round still fits in `seconds`; then enough
    calls for a tail."""
    start = perf_counter()
    setup = measure_setup(bench.corpora)
    passes, latencies, rounds = [], [], []
    while True:
        round_start = perf_counter()
        pass_s, lat = bench.one_pass()
        passes.append(pass_s)
        latencies += lat
        latencies += [bench.summarize(0)
                      for _ in range(bench.workload.latency_calls)]
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            break
    while len(latencies) < TAIL_BEYOND + 1:
        latencies.append(bench.summarize(0))
    tail_s, pct = tail(latencies)
    return {"passes": passes, "latencies": len(latencies),
            "summarize_ms_min": min(latencies) * 1e3,
            "summarize_ms_tail": tail_s * 1e3, "tail_percentile": pct,
            "setup_runs_s": setup,
            "metrics": {
                "sweep_s": (statistics.median(passes), "s"),
                "summarize_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
                "setup_s": (statistics.median(setup), "s")}}


def run_traced(bench, seconds: float) -> dict:
    """Rounds of one untraced and one traced pass, while another median
    round still fits in `seconds`."""
    from tracing import Tracer, layer_metrics

    start = perf_counter()
    tracers, traced, untraced, rounds = [], [], [], []
    while True:
        round_start = perf_counter()
        untraced.append(bench.one_pass()[0])
        tracer = Tracer()
        with tracer.installed():
            traced.append(bench.one_pass(tracer)[0])
        tracers.append(tracer)
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            break
    metrics = layer_metrics(tracers)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    return {"passes": traced, "untraced_passes": untraced, "metrics": metrics}


def context(args, load_at_start: tuple) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": platform.node(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pin": {var: os.environ[var] for var in BLAS_PINS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()
    _import_netsumm()
    import corpus_gen
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        info = context(args, load_at_start)
        info["corpus"] = [corpus_gen.describe(d / c.id) for d, c in
                          zip(bench.corpora, bench.generated)]
        if args.trace:
            result = run_traced(bench, args.seconds)
        else:
            result = run_untraced(bench, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"]["peak_rss_mb"] = (peak_kb / 1024, "MB")
        bench.check_deterministic()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work.parent.rmdir()

    tally = bench.tally
    metrics = result.pop("metrics")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted})")
    info.update(result, outputs_sha256=sorted(bench.hashes),
                problems=tally.problems)
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
