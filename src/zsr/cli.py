"""Command-line interface: counts, spectra, pair checks, scans, and check grids.

Exit codes: 0 for success with nothing found, 1 when a scan or grid found a
violation (the interesting outcome), 2 for usage and domain errors, 141 when
the reader closed stdout early.  All machine output is deterministic: records
carry big integers as decimal strings, field order is fixed, and rerunning an
identical invocation produces identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .counting import count_dp, count_formula, count_molien, rational_catalan
from .errors import BudgetError, GroupParseError
from .groups import (
    FAMILIES,
    AbelianGroup,
    enumerate_abelian,
    order_spectrum,
    order_spectrum_bruteforce,
    parse_group,
)

# The lemma, reciprocity and csv modules are imported by the commands that use
# them, so that a count or spectrum call does not load them.

FORMATS = ("human", "json", "csv", "jsonl")
# Grid ids: "2.1i" runs lemmas.lemma21_grid with variant "i", and so on;
# "struct" runs lemmas.structure_grid.
LEMMA_IDS = ("2.1i", "2.1ii", "2.2i", "2.2ii", "struct")
LEMMA_CSV_COLUMNS = ("lemma_id", "m", "n", "a", "b", "p", "q", "lhs", "rhs")


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "+".join(str(v) for v in value)
    return str(value)


def _write_csv(fh, records, columns=None) -> None:
    import csv

    writer = csv.writer(fh, lineterminator="\n")
    if columns is None:
        if not records:
            return
        columns = list(records[0].keys())
    writer.writerow(columns)
    for record in records:
        writer.writerow([_cell(record.get(c)) for c in columns])


def _emit(args, records: list[dict], human_lines: list[str]) -> None:
    """Render one command's records to stdout in the requested format."""
    if args.format == "human":
        for line in human_lines:
            print(line)
    elif args.format == "json":
        print(_dump(records[0] if len(records) == 1 else records))
    elif args.format == "jsonl":
        for record in records:
            print(_dump(record))
    else:
        _write_csv(sys.stdout, records)


def _cmd_count(args) -> int:
    desc = parse_group(args.notation)
    if args.method == "formula":
        value = count_formula(order_spectrum(desc), args.length)
        method = "formula"
    elif args.method == "dp":
        if not isinstance(desc, AbelianGroup):
            raise ValueError("the dp oracle enumerates elements of abelian groups only")
        value = count_dp(desc, args.length)
        method = "dp_oracle"
    else:
        value = count_molien(order_spectrum(desc), args.length)
        method = "molien_oracle"
    record = {
        "group": desc.notation(), "order": desc.order, "length": args.length,
        "method": method, "value": str(value),
    }
    _emit(args, [record], [f"|M({desc.notation()}, {args.length})| = {value}  [{method}]"])
    return 0


def _cmd_spectrum(args) -> int:
    desc = parse_group(args.notation)
    if args.brute_force:
        if not isinstance(desc, AbelianGroup):
            raise ValueError("brute-force spectra enumerate elements of abelian groups only")
        spectrum = order_spectrum_bruteforce(desc)
        method = "brute_force"
    else:
        spectrum = order_spectrum(desc)
        method = "structural"
    ordered = sorted(spectrum.entries.items())
    if args.format == "csv":
        rows = [{"group": desc.notation(), "order": spectrum.group_order, "method": method,
                 "d": d, "count": c} for d, c in ordered]
        _write_csv(sys.stdout, rows)
        return 0
    record = {
        "group": desc.notation(), "order": spectrum.group_order, "method": method,
        "spectrum": {str(d): c for d, c in ordered},
    }
    human = [f"order spectrum of {desc.notation()} (order {spectrum.group_order}, {method}):"]
    human += [f"  d = {d}: {c}" for d, c in ordered]
    _emit(args, [record], human)
    return 0


def _cmd_enumerate(args) -> int:
    groups = enumerate_abelian(args.order)
    records = [{"order": args.order, "group": g.notation(),
                "invariant_factors": list(g.invariant_factors)} for g in groups]
    human = [f"abelian groups of order {args.order}: {len(groups)}"]
    human += [f"  {g.notation()}" for g in groups]
    if args.format == "csv":
        rows = [{"order": r["order"], "group": r["group"],
                 "invariant_factors": "x".join(str(f) for f in r["invariant_factors"])}
                for r in records]
        _write_csv(sys.stdout, rows)
        return 0
    _emit(args, records, human)
    return 0


def _cmd_check(args) -> int:
    from .reciprocity import reciprocity_check

    report = reciprocity_check(parse_group(args.g), parse_group(args.h))
    record = report.to_record()
    agree = "yes" if report.spectra_agree else f"no (first difference at d = {report.witness_divisor})"
    human = [
        f"G = {record['g']} (order {record['order_g']}), H = {record['h']} (order {record['order_h']})",
        f"spectra agree on shared divisors: {agree}",
        f"|M(G, {record['order_h']})| = {report.count_g_at_h}",
        f"|M(H, {record['order_g']})| = {report.count_h_at_g}",
        f"iff consistent: {'yes' if report.iff_consistent else 'NO'}",
    ]
    _emit(args, [record], human)
    return 0 if report.iff_consistent else 1


class _ScanLog:
    """A JSONL scan log, checked line by line against a scan's records and then completed.

    It is called with each pair's record values, in canonical order.

    A line with a record's bytes is skipped, a line for the same pair with
    other content counts as a violation, and a line for another pair or past
    the last pair raises ValueError.  The log is written (created, cut back to
    its complete lines, appended to) only after all its complete lines have
    matched, so a refused log is left as it was.  Files close with the stack.
    """

    def __init__(self, path: str, stack: contextlib.ExitStack):
        from .reciprocity import record_line

        self.path = path
        self.stack = stack
        self.record_line = record_line
        self.lines = stack.enter_context(contextlib.closing(self._complete_lines()))
        self.matched_bytes = 0
        self.out = None

    def _complete_lines(self):
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                yield from enumerate((line for line in fh if line.endswith(b"\n")), 1)

    def __call__(self, values) -> bool:
        """Check or append one pair's record; True when the logged record differs."""
        line = (self.record_line(values) + "\n").encode()
        number, logged = next(self.lines, (0, None))
        if logged is None:
            self._append(line)
            return False
        self.matched_bytes += len(logged)
        if logged == line:
            return False
        where = f"log {self.path} line {number}"
        pair = f"{values[0]} vs {values[1]}"
        if not logged.startswith(line[:line.index(b',"order_g"') + 1]):
            raise ValueError(f"{where} is not the record for {pair}; it is the log of another scan")
        print(f"{where}: the record for {pair} differs from its recomputation", file=sys.stderr)
        return True

    def _append(self, line: bytes) -> None:
        if self.out is None:
            self.out = self.stack.enter_context(open(self.path, "ab"))
            if self.out.tell() > self.matched_bytes:
                self.out.truncate(self.matched_bytes)
        self.out.write(line)

    def finish(self) -> None:
        """Refuse a line past the last pair, then create the log or cut its torn tail."""
        for number, _ in self.lines:
            raise ValueError(f"log {self.path} line {number} is past the last pair; "
                             "it is the log of another scan")
        self._append(b"")


def _run_scan(args, families: tuple[str, ...]) -> int:
    from .reciprocity import RECORD_FIELDS, conjecture_scan, record_line

    stream_stdout = args.out is None and args.format in ("csv", "jsonl")
    with contextlib.ExitStack() as stack:
        log = on_report = _ScanLog(args.out, stack) if args.out else None
        # The CSV header waits for the first record, or for the end of a scan
        # with no pairs, so that a scan refused by conjecture_scan prints nothing.
        header = [RECORD_FIELDS] if stream_stdout and args.format == "csv" else []
        if header:
            import csv

            csv_writer = csv.writer(sys.stdout, lineterminator="\n")

            def on_report(values):
                if header:
                    csv_writer.writerow(header.pop())
                csv_writer.writerow([_cell(v) for v in values])
        elif stream_stdout:
            def on_report(values):
                print(record_line(values))
        summary = conjecture_scan(families, args.max_order, on_report=on_report)
        if header:
            csv_writer.writerow(header.pop())
        if log is not None:
            log.finish()
    human = [
        f"families: {', '.join(summary.families)}",
        f"pairs checked (order <= {args.max_order}): {summary.pairs_checked}",
        f"violations: {len(summary.violations)}",
    ]
    human += [f"  VIOLATION {r.g.notation()} vs {r.h.notation()}" for r in summary.violations]
    if stream_stdout or args.format == "human":
        print("\n".join(human), file=sys.stderr if stream_stdout else sys.stdout)
    elif args.format == "csv":
        _write_csv(sys.stdout, [summary.to_record()])
    else:
        payload = summary.to_record()
        payload["violating_pairs"] = [r.to_record() for r in summary.violations]
        print(_dump(payload))
    return 1 if summary.violations else 0


def _cmd_verify_theorem(args) -> int:
    return _run_scan(args, ("abelian",))


def _cmd_scan_conjecture(args) -> int:
    families = tuple(p for p in args.families.split(",") if p)
    if not families:
        raise ValueError("at least one family is required")
    return _run_scan(args, families)


def _lemma_record(instance) -> dict:
    params = instance.parameters
    return {
        "lemma_id": instance.lemma_id,
        "m": params.get("m"), "n": params.get("n"),
        "a": params.get("a"), "b": params.get("b"),
        "p": params.get("p"), "q": params.get("q"),
        # str gives an int's digits and a Fraction's num/den (its numerator when integral).
        "lhs": str(instance.lhs), "rhs": str(instance.rhs),
    }


def _cmd_lemma(args) -> int:
    from .lemmas import lemma21_grid, lemma22_grid, structure_grid

    if args.id == "struct":
        result = structure_grid(args.max)
    else:
        grid = lemma21_grid if args.id.startswith("2.1") else lemma22_grid
        result = grid(args.max, args.id[3:])
    failure_records = [_lemma_record(inst) for inst in result.failures]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, failure_records, LEMMA_CSV_COLUMNS)
    summary = {"lemma": result.lemma, "max": args.max,
               "checked": result.checked, "failures": len(result.failures)}
    if args.format == "human":
        print(f"check {result.lemma} up to {args.max}: {result.checked} instances, "
              f"{len(result.failures)} failures")
        for record in failure_records:
            print(f"  FAIL {record}")
    elif args.format == "csv":
        _write_csv(sys.stdout, failure_records, LEMMA_CSV_COLUMNS)
        print(f"checked: {result.checked}, failures: {len(result.failures)}", file=sys.stderr)
    elif args.format == "jsonl":
        for record in failure_records:
            print(_dump(record))
        print(_dump(summary))
    else:
        payload = dict(summary)
        payload["failing_instances"] = failure_records
        print(_dump(payload))
    return 1 if result.failures else 0


def _cmd_catalan(args) -> int:
    value = rational_catalan(args.n, args.m)
    record = {"n": args.n, "m": args.m, "value": str(value)}
    _emit(args, [record], [f"C({args.n + args.m}, {args.n}) / {args.n + args.m} = {value}"])
    return 0


def _cmd_gapfree(args) -> int:
    from .reciprocity import divisor_gap_free

    result = divisor_gap_free(args.n)
    record = {"n": args.n, "gap_free": result}
    verdict = "has no consecutive divisors above 1" if result else "has consecutive divisors above 1"
    _emit(args, [record], [f"{args.n} {verdict}"])
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="human",
                        help="output format (default: human)")
    parser = argparse.ArgumentParser(
        prog="zsr",
        description="Exact zero-sum multiset counting over finite groups, "
                    "with reciprocity scans and inequality grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count zero-sum multisets of a given length")
    p.add_argument("--group", dest="notation", metavar="GROUP", required=True,
                   help="group notation, e.g. C2xC6, D10, Dic3, Q8")
    p.add_argument("--length", type=int, required=True, help="multiset length m")
    p.add_argument("--method", choices=("formula", "dp", "molien"), default="formula")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("spectrum", parents=[common], help="element counts by exact order")
    p.add_argument("--group", dest="notation", metavar="GROUP", required=True)
    p.add_argument("--brute-force", action="store_true",
                   help="enumerate elements instead of using the structural rules")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("enumerate", parents=[common], help="abelian groups of a given order")
    p.add_argument("--order", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", parents=[common], help="reciprocity check for one pair")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="scan all abelian pairs up to an order bound")
    p.add_argument("--max-order", type=_positive_int, required=True)
    p.add_argument("--out", help="JSONL log path (append; enables resume)")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("scan-conjecture", parents=[common],
                       help="scan pairs from chosen families up to an order bound")
    p.add_argument("--families", default=",".join(FAMILIES),
                   help=f"comma-separated subset of {{{','.join(FAMILIES)}}}")
    p.add_argument("--max-order", type=_positive_int, required=True)
    p.add_argument("--out", help="JSONL log path (append; enables resume)")
    p.set_defaults(func=_cmd_scan_conjecture)

    p = sub.add_parser("lemma", parents=[common], help="run one inequality/structure grid")
    p.add_argument("--id", choices=LEMMA_IDS, required=True)
    p.add_argument("--max", type=_positive_int, required=True,
                   help="grid bound (m, n bound for 2.*, order bound for struct)")
    p.add_argument("--out", help="CSV failure report path")
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("catalan", parents=[common], help="C(n+m, n)/(n+m) for coprime n, m")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("gapfree", parents=[common],
                       help="test whether n has no consecutive divisors above 1")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_gapfree)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Exact counts print in full: lift the interpreter's limit on int-to-str
    # digits (where it has one), which argument parsing above still kept.
    set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_int_max_str_digits is not None:
        set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (GroupParseError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # interpreter exit cannot fail again, and exit as SIGPIPE would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
