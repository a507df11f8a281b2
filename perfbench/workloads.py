"""The four benchmark workloads and the known-good outputs they are checked against.

A workload iteration runs a fixed set of zsr commands, one child at a time,
and returns one ``Op`` per timed command.  It takes the run's ``Runner``, the
``Sizes``, a seeded ``random.Random``, whether to trace, and ``spread``: a
number in [0, 1) that steps evenly through that range over a run's
iterations (scan-log places its cut by it).  An op's ``failure`` is ``None``
when the exit code and the output match the expected values exactly.

- scan-all: the full four-family scan at order 192 with no log.  Time goes
  to spectra, the count table, big-integer binomials and pair evaluation.
- scan-log: a fresh logged scan at order 96, then a seeded cut inside a
  record in the log's back half and a resume of the same command.  Record
  encoding, log writing and log parsing carry a large share of the time.
- lemma-grids: the 2.1i, 2.1ii, 2.2i and struct grids; binomial blocks and
  Fraction comparisons, no pair engine.
- point-queries: single count, spectrum, check and catalan calls, each in a
  fresh process, checked against ``oracle``.  Interpreter start-up, import
  and parser build dominate, so scan-engine work should not move it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from hashlib import sha256
from math import gcd, isqrt

import oracle
from children import Call, Runner


@dataclass(frozen=True)
class Sizes:
    """Workload sizes and the outputs the current code must reproduce at them."""

    scan_order: int
    scan_pairs: int
    log_order: int
    log_pairs: int
    log_sha256: str
    grids: tuple[tuple[str, int, int], ...]  # (lemma id, bound, instances checked)
    query_order: int  # largest group order in point queries
    query_mix: tuple[tuple[str, int], ...]  # (query kind, calls per iteration)


FULL = Sizes(
    scan_order=192, scan_pairs=420903,
    log_order=96, log_pairs=71253,
    log_sha256="33821e91f464ce09460d16e8f5f2569999685342a830bb5641c50dbcb1804eba",
    grids=(("2.1i", 400, 82896), ("2.1ii", 400, 70973), ("2.2i", 360, 5685), ("struct", 128, 28759)),
    query_order=2000,
    query_mix=(("count", 5), ("count-dp", 1), ("count-molien", 1), ("spectrum", 5),
               ("check", 5), ("catalan", 3)),
)

TINY = Sizes(
    scan_order=12, scan_pairs=276,
    log_order=12, log_pairs=276,
    log_sha256="6b76b0851a65dd8c34c5e2d5ed7b66e2c0fc376c2ef03a558f5df736bad0fd40",
    grids=(("2.1i", 20, 103), ("2.1ii", 20, 89), ("2.2i", 20, 3), ("struct", 20, 339)),
    query_order=60,
    query_mix=(("count", 2), ("count-dp", 2), ("count-molien", 2), ("spectrum", 2),
               ("check", 2), ("catalan", 2)),
)

# Largest group order and length of each `count --method`: the budgets of
# zsr.counting's oracle routes; the formula takes the point-query bound.
COUNT_BUDGETS = {"formula": None, "dp": (36, 36), "molien": (64, 128)}


@dataclass
class Op:
    """One timed command: its child process, its verdict and what it counts for."""

    role: str
    call: Call
    failure: str | None
    items: int = 0  # pairs, instances or calls credited to work_per_s
    pairs: int = 0  # pairs the command's scan yielded
    log: dict[str, int] = field(default_factory=dict)  # bytes_read / bytes_written


def _json_output(call: Call, expected_exit: int = 0) -> tuple[dict | None, str | None]:
    if call.timed_out:
        return None, "timed out"
    if call.exit_code != expected_exit:
        tail = call.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit {call.exit_code}, expected {expected_exit}: {tail[0][:200]}"
    try:
        return json.loads(call.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, f"unparseable output {call.stdout[:200]!r}"


def _expect(call: Call, expected: dict, expected_exit: int = 0) -> str | None:
    out, failure = _json_output(call, expected_exit)
    if failure is None and out != expected:
        failure = f"output {json.dumps(out)[:300]}, expected {json.dumps(expected)[:300]}"
    return failure


def _scan_op(role: str, call: Call, max_order: int, pairs: int) -> Op:
    out, failure = _json_output(call)
    if failure is None:
        got = tuple(out.get(k) for k in ("pairs_checked", "violations", "max_order"))
        if got != (pairs, 0, max_order):
            failure = f"pairs/violations/max_order {got}, expected {(pairs, 0, max_order)}"
    return Op(role, call, failure, items=0 if role == "resume" else pairs, pairs=pairs)


def scan_all(runner: Runner, sizes: Sizes, rng: random.Random, trace: bool, spread: float) -> list[Op]:
    call = runner.zsr(["scan-conjecture", "--max-order", str(sizes.scan_order), "--format", "json"], trace)
    return [_scan_op("scan", call, sizes.scan_order, sizes.scan_pairs)]


def cut_log(path, data: bytes, position: float, rng: random.Random) -> tuple[int, int]:
    """Truncate the log at an offset strictly inside a record of its back half.

    ``position`` in [0, 1) picks the record, from the middle one to the last;
    ``rng`` picks the byte.  Resuming takes longer the later the cut, so a
    run spreads its cuts evenly rather than at random.  Returns (cut offset,
    bytes of complete records kept before it).
    """
    lengths = [len(line) for line in data.splitlines(keepends=True)]
    half = len(lengths) // 2
    index = half + int(position * (len(lengths) - half))
    start = sum(lengths[:index])
    cut = rng.randrange(start + 1, start + lengths[index] - 1)
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return cut, start


def scan_log(runner: Runner, sizes: Sizes, rng: random.Random, trace: bool, spread: float) -> list[Op]:
    log = runner.workdir / f"scan{runner.calls}.jsonl"
    args = ["scan-conjecture", "--max-order", str(sizes.log_order), "--format", "json", "--out", str(log)]
    write = _scan_op("write", runner.zsr(args, trace), sizes.log_order, sizes.log_pairs)
    fresh = log.read_bytes() if log.exists() else b""
    write.log = {"bytes_written": len(fresh)}
    digest = sha256(fresh).hexdigest()
    if write.failure is None and digest != sizes.log_sha256:
        write.failure = f"fresh log sha256 {digest}, expected {sizes.log_sha256}"
    if not fresh:
        return [write]
    cut, kept = cut_log(log, fresh, spread, rng)
    resume = _scan_op("resume", runner.zsr(args, trace), sizes.log_order, sizes.log_pairs)
    resumed = log.read_bytes() if log.exists() else b""
    resume.log = {"bytes_read": cut, "bytes_written": len(resumed) - kept}
    if resume.failure is None and resumed != fresh:
        diverge = next((i for i, (a, b) in enumerate(zip(resumed, fresh)) if a != b),
                       min(len(resumed), len(fresh)))
        resume.failure = (f"resumed log ({len(resumed)} bytes) differs from the fresh log "
                          f"({len(fresh)} bytes) from byte {diverge}")
    log.unlink(missing_ok=True)
    return [write, resume]


def lemma_grids(runner: Runner, sizes: Sizes, rng: random.Random, trace: bool, spread: float) -> list[Op]:
    ops = []
    for lemma_id, bound, checked in sizes.grids:
        call = runner.zsr(["lemma", "--id", lemma_id, "--max", str(bound), "--format", "json"], trace)
        expected = {"lemma": lemma_id, "max": bound, "checked": checked, "failures": 0,
                    "failing_instances": []}
        ops.append(Op("lemma", call, _expect(call, expected), items=checked))
    return ops


def _random_group(rng: random.Random, max_order: int, abelian_only: bool = False):
    kinds = ["C", "CxC"] if abelian_only or max_order < 8 else ["C", "CxC", "D", "Dic"]
    kind = rng.choice(kinds)
    if kind == "C":
        return ("C", (rng.randint(2, max_order),))
    if kind == "CxC":
        a = rng.randint(2, isqrt(max_order))
        return ("C", (a, a * rng.randint(1, max_order // (a * a))))
    if kind == "D":
        return ("D", rng.randint(3, max_order // 2))
    return ("Dic", rng.randint(2, max_order // 4))


def _count_query(rng, max_order, method):
    group_order, max_length = COUNT_BUDGETS[method] or (max_order, max_order)
    group = _random_group(rng, min(max_order, group_order), abelian_only=method == "dp")
    length = rng.randint(1, min(max_order, max_length))
    label = "formula" if method == "formula" else f"{method}_oracle"
    args = ["count", "--group", oracle.notation(group), "--length", str(length),
            "--method", method, "--format", "json"]
    expected = {"group": oracle.notation(group), "order": oracle.order(group), "length": length,
                "method": label, "value": str(oracle.count(group, length))}
    return args, expected, 0


def _spectrum_query(rng, max_order):
    group = _random_group(rng, max_order)
    args = ["spectrum", "--group", oracle.notation(group), "--format", "json"]
    expected = {"group": oracle.notation(group), "order": oracle.order(group), "method": "structural",
                "spectrum": {str(d): c for d, c in oracle.spectrum(group).items()}}
    return args, expected, 0


def _check_query(rng, max_order):
    g, h = _random_group(rng, max_order), _random_group(rng, max_order)
    args = ["check", "--g", oracle.notation(g), "--h", oracle.notation(h), "--format", "json"]
    expected = oracle.check_record(g, h)
    return args, expected, 0 if expected["iff_consistent"] else 1


def _catalan_query(rng, max_order):
    n = rng.randint(1, max_order)
    m = rng.randint(1, max_order)
    while gcd(n, m) != 1:
        m = rng.randint(1, max_order)
    args = ["catalan", "--n", str(n), "--m", str(m), "--format", "json"]
    return args, {"n": n, "m": m, "value": str(oracle.catalan(n, m))}, 0


QUERIES = {
    "count": lambda rng, top: _count_query(rng, top, "formula"),
    "count-dp": lambda rng, top: _count_query(rng, top, "dp"),
    "count-molien": lambda rng, top: _count_query(rng, top, "molien"),
    "spectrum": _spectrum_query,
    "check": _check_query,
    "catalan": _catalan_query,
}


def point_queries(runner: Runner, sizes: Sizes, rng: random.Random, trace: bool, spread: float) -> list[Op]:
    kinds = [kind for kind, calls in sizes.query_mix for _ in range(calls)]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        args, expected, expected_exit = QUERIES[kind](rng, sizes.query_order)
        call = runner.zsr(args, trace)
        ops.append(Op(kind, call, _expect(call, expected, expected_exit), items=1))
    return ops


WORKLOADS = {
    "scan-all": scan_all,
    "scan-log": scan_log,
    "lemma-grids": lemma_grids,
    "point-queries": point_queries,
}
