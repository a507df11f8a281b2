"""Benchmark of the zsr command-line tool, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of scan-all, scan-log, lemma-grids, point-queries (see
workloads.py for what each runs and why), or ``all`` to run the four in turn.
The benchmark drives ``zsr`` from the checkout's ``src`` in child processes,
strictly one at a time, and checks every output against known-good values.

A run first starts one untimed ``zsr --help`` so that bytecode caches exist.
It then repeats iterations of the workload, at least one, and starts another
only while it is expected to end less than half an iteration past S seconds.
Each untraced iteration begins by timing ``zsr --help`` SETUP_CALLS times
(interpreter start, ``import zsr.cli`` and parser build, which every call
pays).

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics below, measured with tracing off.  Its times are in
reference units: each command's wall time divided by the harmonic mean time of a
fixed computation that the benchmark runs, on the same CPU, in short pauses
of the command (see spawner.py), so that the drift of a shared host's speed
cancels out.  ``wall_ref`` is the workload's commands in those units,
``work_per_ref`` the pairs, instances or calls per unit.  ``setup_s`` is the
median ``zsr --help`` in those units times REF_NOMINAL_S: seconds on a host
where the reference takes REF_NOMINAL_S.  The wall-clock ``wall_s``,
``work_per_s`` and ``setup_wall_s`` are printed above the JSON, with the
reference's median time ``ref_s``.  With ``--trace 1`` one
untraced iteration is followed by iterations under ``zsrtrace.py``, and the
metrics are the per-layer counts and self times of the traced iterations plus
``trace.overhead_s`` (traced minus untraced wall time).  Lines above the JSON
give every metric by name and unit, including workload-specific ones.  Each
run also writes ``.perfbench/results/<workload>-seed<N>-trace<T>.json`` with
the samples and the commit, Python version, CPU count and ``src/zsr`` line
count.  The exit code is 0 when every output was correct, 1 when one was
not, and 2 when there is no zsr source to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import zsrtrace
from children import Runner
from workloads import FULL, WORKLOADS, Op, Sizes

ROOT = Path(__file__).resolve().parent.parent
SETUP_CALLS = 3  # timed `zsr --help` calls per iteration
# Median time of spawner.reference_s on the 2-vCPU Xeon host the benchmark
# was written on; it converts setup_s from reference units to seconds.
REF_NOMINAL_S = 0.020
# Step of the workloads' ``spread`` from one iteration to the next: 1 / golden
# ratio, which leaves the values evenly spread over [0, 1) after any number of steps.
SPREAD_STEP = (5 ** 0.5 - 1) / 2

# End-to-end metrics, reported on every workload; BENCHMARK.json lists the same.
# A "ref" is the time of spawner.reference_s while a command ran; setup_s is
# in seconds at REF_NOMINAL_S per ref.
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "work_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: (traced function, statistics).
LAYER_STATS = (
    ("exactmath.divisors", ("calls", "self_s")),
    ("exactmath.factorize", ("calls", "self_s")),
    ("exactmath.binomial", ("calls", "self_s")),
    ("counting.count_formula", ("calls", "self_s")),
    ("groups.order_spectrum", ("calls", "self_s")),
    ("groups.enumerate_abelian", ("calls", "self_s")),
    ("groups.parse_group", ("calls", "self_s")),
    ("reciprocity.family_descriptors", ("total_s",)),
    ("reciprocity.iter_pair_reports", ("self_s",)),
    ("reciprocity.to_record", ("calls", "self_s")),
    ("reciprocity.report_from_record", ("calls", "self_s")),
    ("lemmas.check_lemma21", ("calls", "self_s")),
    ("lemmas.check_lemma22", ("calls", "self_s")),
    ("lemmas.structure_grid", ("self_s",)),
    ("cli.main", ("self_s", "total_s")),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
DERIVED_UNITS = {
    "counting.count_formula.calls_per_pair": "ratio",
    "reciprocity.recomputed_ratio": "ratio",
    "cli.log.bytes_written": "bytes",
    "cli.log.bytes_read": "bytes",
    "trace.overhead_s": "s",
}
# Private pair evaluator whose calls count the pairs a scan computed itself.
PAIR_EVALUATOR = "reciprocity._cached_check"


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYER_STATS for stat in stats}
    units.update(DERIVED_UNITS)
    return units


def provenance(root: Path) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((root / "src" / "zsr").glob("*.py")))
    return {"commit": git_commit(root), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "src_zsr_lines": lines}


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_latency(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples above it."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    return 100 * (len(ordered) - 10) / len(ordered), ordered[-11]


def median_wall_and_rate(iterations: list[list[Op]], time: str) -> tuple[float, float]:
    """Medians over iterations of the commands' summed ``time`` ("wall_s" or "wall_ref") and of
    work per unit of it."""
    walls, rates = [], []
    for it in iterations:
        walls.append(sum(getattr(op.call, time) for op in it))
        rated = [op for op in it if op.items]
        rates.append(sum(op.items for op in rated) / sum(getattr(op.call, time) for op in rated))
    return statistics.median(walls), statistics.median(rates)


def end_to_end(iterations: list[list[Op]], setup: list[Op]) -> dict[str, float]:
    ops = [op for it in iterations for op in it]
    wall, rate = median_wall_and_rate(iterations, "wall_ref")
    return {
        "wall_ref": wall,
        "setup_s": statistics.median(op.call.wall_ref for op in setup) * REF_NOMINAL_S,
        "work_per_ref": rate,
        "peak_rss_mb": max(op.call.rss_mb for op in ops if op.role != "resume"),
    }


def workload_report(iterations: list[list[Op]], setup: list[Op]) -> list[tuple[str, float, str]]:
    """The wall-clock metrics, work_per_s also under its workload's name, resume and call latency."""
    ops = [op for it in iterations for op in it]
    roles = {op.role for op in ops}
    wall, rate = median_wall_and_rate(iterations, "wall_s")
    out = [("wall_s", wall, "s"), ("work_per_s", rate, "1/s"),
           ("setup_wall_s", statistics.median(op.call.wall_s for op in setup), "s"),
           ("ref_s", statistics.median(ref for op in setup + ops for ref in op.call.refs), "s")]
    if roles & {"scan", "write"}:
        out.append(("pairs_per_s", rate, "1/s"))
    if "lemma" in roles:
        out.append(("instances_per_s", rate, "1/s"))
    resumes = [op for op in ops if op.role == "resume"]
    if resumes:
        out.append(("resume_s", statistics.median(op.call.wall_s for op in resumes), "s"))
        out.append(("resume_peak_rss_mb", max(op.call.rss_mb for op in resumes), "MB"))
    walls = [op.call.wall_s for op in ops]
    tail = tail_latency(walls)
    if tail is not None:
        out.append(("call_p50_ms", 1000 * statistics.median(walls), "ms"))
        out.append((f"call_tail_ms (p{tail[0]:.1f} of {len(ops)} calls)", 1000 * tail[1], "ms"))
    return out


def layer_metrics(ops: list[Op]) -> tuple[dict[str, float], set[str], str | None]:
    """Per-layer metrics of one traced iteration, the names absent from zsr, and a trace error."""
    totals: dict[str, dict] = {}
    counters: dict[str, int] = {}
    present: set[str] = set()
    root_ns = 0
    for op in ops:
        if op.call.spans is None or not op.call.spans.is_file():
            return {}, set(), f"no span file from {' '.join(op.call.args)}"
        try:
            found, counts, names, root = zsrtrace.layer_totals(str(op.call.spans))
        except (OSError, ValueError) as exc:
            return {}, set(), f"unreadable span file from {' '.join(op.call.args)}: {exc}"
        op.call.spans.unlink()
        present.update(names)
        present.update(counts)
        root_ns += root
        for name, stats in found.items():
            merged = totals.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for key, value in stats.items():
                merged[key] += value
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value
    zero = {"calls": 0, "self_ns": 0, "total_ns": 0}
    main = totals.get("cli.main", zero)
    self_sum = sum(stats["self_ns"] for stats in totals.values())
    error = None
    if main["calls"] != len(ops) or main["total_ns"] != root_ns or self_sum != root_ns:
        error = (f"spans do not nest under one cli.main per child: {main['calls']} cli.main spans "
                 f"for {len(ops)} children, self times sum to {self_sum} ns, roots {root_ns} ns")
    metrics = {}
    for name, stats in LAYER_STATS:
        found = totals.get(name, zero)
        for stat in stats:
            metrics[f"{name}.{stat}"] = (found["calls"] if stat == "calls"
                                         else found[stat.replace("_s", "_ns")] / 1e9)
    pairs = sum(op.pairs for op in ops)
    calls = totals.get("counting.count_formula", zero)["calls"]
    metrics["counting.count_formula.calls_per_pair"] = calls / pairs if pairs else 0.0
    metrics["reciprocity.recomputed_ratio"] = counters.get(PAIR_EVALUATOR, 0) / pairs if pairs else 0.0
    for key in ("bytes_written", "bytes_read"):
        metrics[f"cli.log.{key}"] = sum(op.log.get(key, 0) for op in ops)
    absent = {name for name, _ in LAYER_STATS if name not in present}
    if PAIR_EVALUATOR not in present:
        absent.add(PAIR_EVALUATOR)
    return metrics, absent, error


def _check_help(call) -> str | None:
    if call.timed_out or call.exit_code != 0 or not call.stdout.startswith("usage: zsr"):
        return f"zsr --help: exit {call.exit_code}, output {call.stdout[:80]!r}"
    return None


@dataclass
class Measurement:
    """Every checked call of one run, grouped by what it measures."""

    setup: list[Op] = field(default_factory=list)  # warm-up and `zsr --help` calls
    baseline: list[Op] = field(default_factory=list)  # the untraced iteration of a traced run
    iterations: list[list[Op]] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)  # per traced iteration
    absent: set[str] = field(default_factory=set)

    def ops(self) -> list[Op]:
        return self.setup + self.baseline + [op for it in self.iterations for op in it]


def measure(runner: Runner, name: str, sizes: Sizes, seed: int, seconds: float, trace: bool) -> Measurement:
    m = Measurement()
    for traced in (False, True) if trace else (False,):
        warm = Op("warmup", runner.zsr(["--help"], trace=traced), None)
        warm.failure = _check_help(warm.call) or (layer_metrics([warm])[2] if traced else None)
        m.setup.append(warm)
    first_spread = random.Random(f"{name}:{seed}").random()
    start = perf_counter()
    done = 0
    while not m.iterations or (elapsed := perf_counter() - start) + elapsed / done / 2 < seconds:
        done += 1
        for _ in range(0 if trace else SETUP_CALLS):
            call = runner.zsr(["--help"])
            m.setup.append(Op("setup", call, _check_help(call)))
        # A traced run repeats the inputs of its untraced iteration.
        index = 0 if trace else len(m.iterations)
        rng = random.Random(f"{name}:{seed}:{index}")
        traced = trace and bool(m.baseline)
        ops = WORKLOADS[name](runner, sizes, rng, traced, (first_spread + index * SPREAD_STEP) % 1)
        if trace and not traced:
            m.baseline = ops
            continue
        m.iterations.append(ops)
        if traced:
            metrics, missing, error = layer_metrics(ops)
            m.absent |= missing
            if error and ops[0].failure is None:
                ops[0].failure = error
            if metrics:
                m.layers.append(metrics)
    return m


def run_workload(name: str, root: Path, sizes: Sizes, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the contract result plus the report lines' data."""
    workdir = root / ".perfbench" / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Runner(root, workdir) as runner:
            m = measure(runner, name, sizes, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = m.ops()
    failures = [f"{op.role} `zsr {' '.join(op.call.args)}`: {op.failure}"
                for op in all_ops if op.failure is not None]
    if trace:
        units = per_layer_units()
        values = {key: statistics.median(layer[key] for layer in m.layers) if m.layers else 0.0
                  for key in units if key != "trace.overhead_s"}
        traced_wall = statistics.median(sum(op.call.wall_s for op in it) for it in m.iterations)
        values["trace.overhead_s"] = traced_wall - sum(op.call.wall_s for op in m.baseline)
        report = []
    else:
        units = dict(END_TO_END)
        setup = [op for op in m.setup if op.role == "setup"]
        values = end_to_end(m.iterations, setup)
        report = workload_report(m.iterations, setup)
    report.append(("failed_frac", len(failures) / len(all_ops), f"of {len(all_ops)} calls"))
    return {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "report": report,
        "absent": sorted(m.absent),
        "failures": failures,
        "samples": [[{"role": op.role, "args": op.call.args, "wall_s": op.call.wall_s, "refs": op.call.refs,
                      "rss_mb": op.call.rss_mb, "exit": op.call.exit_code} for op in it]
                    for it in ([m.baseline] if m.baseline else []) + m.iterations],
    }


def print_result(name: str, result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    for key, value, unit in result["report"]:
        print(f"{name}  {key} = {value:.6g} {unit}")
    if result["absent"]:
        print(f"{name}  absent from zsr (reported as 0): {', '.join(result['absent'])}")
    for failure in result["failures"][:20]:
        print(f"{name}  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zsr" / "cli.py").is_file():
        print(f"perfbench: no zsr source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so that the reference
    # computation runs where the children do.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = provenance(ROOT)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        result = run_workload(name, ROOT, FULL, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print_result(name, result)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **info, **result}
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": metric for name, result in results.items()
                   for key, metric in result["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
