"""Quick self-check of the benchmark harness, in well under a minute.

    python3 bench/selfcheck.py

Every workload runs once at minimal size, untraced and traced, and must
report no failure; the traced self times must add up to the traced time.
Then outputs are corrupted one way at a time, and the checks must count
each corruption as a failure. Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
from dataclasses import replace

import run


def minimal(workload):
    """The same workload at the smallest size that still makes every call."""
    return replace(workload,
                   shape=replace(workload.shape, docs=2, sentences=6),
                   clusters=min(workload.clusters, 2),
                   latency_calls=min(workload.latency_calls, 1))


def _rewrite(path, edit):
    lines = path.read_text("utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", "utf-8")


def _set_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return lines


def _shifted(lines):
    """best.csv with its first row's score moved off the maximum."""
    value = float(lines[1].split(",")[4])
    value += 0.01 if value < 0.5 else -0.01
    return _set_cell(lines, 1, 4, f"{value:.4f}")


SWEEP_CORRUPTIONS = {
    "score above 1": ("report.csv", lambda ls: _set_cell(ls, 1, 5, "1.5")),
    "skipped cell": ("report.csv",
                     lambda ls: _set_cell(ls, 1, 5, "skip:EmptySummary")),
    "missing row": ("report.csv", lambda ls: ls[:-1]),
    "best not the maximum": ("best.csv", _shifted),
}
SUMMARY_CORRUPTIONS = {
    "summary over budget": lambda text: text + " word" * 1000,
    "empty summary": lambda text: "",
}


def check_workload(workload, work) -> list:
    """(label, passed) for one workload."""
    from tracing import Tracer
    from workloads import SUMMARY_NAME, Bench, Tally

    results = []
    bench = Bench(workload, 1, work)
    bench.summarize(0)
    bench.one_pass()
    tracer = Tracer()
    with tracer.installed():
        bench.one_pass(tracer)
    bench.check_deterministic()
    results.append(("clean run has no failure",
                    bench.tally.attempted > 0 and bench.tally.failed == 0))
    times = sum(tracer.self_times().values())
    results.append(("traced self times add up",
                    abs(times - tracer.root_time()) < 1e-9 * max(1.0, times)))

    if workload.grid is not None:
        out = work / "sweep"
        saved = {p.name: p.read_bytes() for p in out.iterdir()}
        for label, (name, edit) in SWEEP_CORRUPTIONS.items():
            for file_name, data in saved.items():
                (out / file_name).write_bytes(data)
            _rewrite(out / name, edit)
            bench.tally = Tally()
            bench.check_sweep(out, 0)
            results.append((label, bench.tally.failed > 0))

    bench.summarize(0)
    path = bench.summaries / SUMMARY_NAME.format(cid=bench.generated[0].id)
    text = path.read_text("utf-8")
    for label, edit in SUMMARY_CORRUPTIONS.items():
        path.write_text(edit(text), "utf-8")
        bench.tally = Tally()
        bench.check_summary(0, 0)
        results.append((label, bench.tally.failed > 0))
    path.unlink()
    bench.tally = Tally()
    bench.check_summary(0, 0)
    results.append(("missing summary", bench.tally.failed > 0))
    return results


def main() -> int:
    run._import_netsumm()
    from workloads import WORKLOADS

    work = run.ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    ok = True
    try:
        for name, workload in WORKLOADS.items():
            checks = check_workload(minimal(workload), work / name)
            for label, passed in checks:
                print(f"{name}: {label}: {'PASS' if passed else 'FAIL'}")
                ok = ok and passed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work.parent.rmdir()
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
