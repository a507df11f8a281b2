"""Command-line interface: counts, spectra, pair checks, scans, and check grids.

Exit codes: 0 for success with nothing found, 1 when a scan or grid found a
violation (the interesting outcome), 2 for usage and domain errors, for an
--out path that cannot be opened or written and for a failed write to stdout
(a stdout closed at start-up too, and --help), 3 for a crash, with its
traceback on stderr, and 141 when the reader closed stdout early.
A closed or unwritable stderr drops the messages and keeps the exit code.
All machine output is deterministic: records carry big integers as decimal
strings, field order is fixed, and rerunning an identical invocation
produces identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from .counting import count_dp, count_formula, count_molien, rational_catalan
from .groups import (
    FAMILIES,
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


class _WriteError(OSError):
    """A write to a named --out path failed."""


@contextlib.contextmanager
def _writes_to(path):
    """Name path in each OSError of the block that names no file: a failed write to path."""
    try:
        yield
    except OSError as exc:
        if path is None or exc.filename is not None:
            raise
        raise _WriteError(exc.errno, exc.strerror, path) from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help fails as any write to stdout does.

    argparse's own print_help falls back to stderr when stdout is closed and
    drops a failed write.
    """

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


class _ClosedStdout:
    """sys.stdout when descriptor 1 was closed at start-up: every write fails with EBADF."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


def _note(text: str) -> None:
    """Print text on stderr; a stderr closed at start-up or unwritable drops it.

    An unwritable stderr is pointed at devnull, so that the flush at
    interpreter exit cannot fail again.
    """
    if sys.stderr is None:
        # print would fall back to stdout.
        return
    try:
        print(text, file=sys.stderr)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


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
        columns = list(records[0].keys())
    writer.writerow(columns)
    for record in records:
        writer.writerow([_cell(record.get(c)) for c in columns])


def _emit(args, human: list[str], value, records=None, rows=None, columns=None) -> None:
    """Render one command's output to stdout in the requested format.

    json prints value; jsonl prints each of records, and csv writes rows under
    columns (the first row's keys by default).  records and rows default to [value].
    """
    if args.format == "human":
        for line in human:
            print(line)
    elif args.format == "json":
        print(_dump(value))
    elif args.format == "jsonl":
        for record in [value] if records is None else records:
            print(_dump(record))
    else:
        _write_csv(sys.stdout, [value] if rows is None else rows, columns)


def _cmd_count(args) -> int:
    desc = parse_group(args.notation)
    if args.method == "formula":
        value = count_formula(order_spectrum(desc), args.length)
        method = "formula"
    elif args.method == "dp":
        value = count_dp(desc, args.length)
        method = "dp_oracle"
    else:
        value = count_molien(order_spectrum(desc), args.length)
        method = "molien_oracle"
    record = {
        "group": desc.notation(), "order": desc.order, "length": args.length,
        "method": method, "value": str(value),
    }
    _emit(args, [f"|M({desc.notation()}, {args.length})| = {value}  [{method}]"], record)
    return 0


def _cmd_spectrum(args) -> int:
    desc = parse_group(args.notation)
    if args.brute_force:
        spectrum = order_spectrum_bruteforce(desc)
        method = "brute_force"
    else:
        spectrum = order_spectrum(desc)
        method = "structural"
    ordered = sorted(spectrum.entries.items())
    record = {
        "group": desc.notation(), "order": spectrum.group_order, "method": method,
        "spectrum": {str(d): c for d, c in ordered},
    }
    rows = [{"group": desc.notation(), "order": spectrum.group_order, "method": method,
             "d": d, "count": c} for d, c in ordered]
    human = [f"order spectrum of {desc.notation()} (order {spectrum.group_order}, {method}):"]
    human += [f"  d = {d}: {c}" for d, c in ordered]
    _emit(args, human, record, rows=rows)
    return 0


def _cmd_enumerate(args) -> int:
    groups = enumerate_abelian(args.order)
    records = [{"order": args.order, "group": g.notation(),
                "invariant_factors": list(g.invariant_factors)} for g in groups]
    rows = [dict(r, invariant_factors="x".join(map(str, r["invariant_factors"]))) for r in records]
    human = [f"abelian groups of order {args.order}: {len(groups)}"]
    human += [f"  {g.notation()}" for g in groups]
    _emit(args, human, records, records, rows)
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
    _emit(args, human, record)
    return 0 if report.iff_consistent else 1


class _ScanLog:
    """A JSONL scan log, checked row by row against a scan's records and then completed.

    It is called with the text of each row of records, in canonical order.

    A row whose bytes are the log's next bytes is skipped after one read.  Any
    other row is checked line by line: a line with a record's bytes is
    skipped, a line for the same pair with other content counts as a
    violation, and a line for another pair or past the last pair raises
    ValueError.  A torn last line ends the log.  The log is written (created,
    cut back to its complete lines, appended to) only after all its complete
    lines have matched, so a refused log is left as it was.  Only a message
    counts lines, in the matched bytes.  Files close with the stack.
    """

    def __init__(self, path: str, stack: contextlib.ExitStack):
        self.path = path
        self.stack = stack
        self.log = None
        if os.path.exists(path):
            # A device or a FIFO is refused before it is read: it may never
            # end or never answer.  A directory fails to open.
            if not (os.path.isfile(path) or os.path.isdir(path)):
                raise OSError(None, "not a regular file", path)
            self.log = stack.enter_context(open(path, "rb"))
        self.matched_bytes = 0
        self.counted = (0, 0)  # (bytes, lines) that _matched_lines has counted
        self.out = None

    def __call__(self, text: str) -> list[int]:
        """Check or append one row; the offsets of its lines whose logged record differs."""
        row = text.encode()
        if self.log is None:
            self._append(row)
            return []
        if self.log.read(len(row)) == row:
            self.matched_bytes += len(row)
            return []
        self.log.seek(self.matched_bytes)
        return self._check_lines(row.splitlines(keepends=True))

    def _check_lines(self, lines: list[bytes]) -> list[int]:
        from .reciprocity import jsonl_record_pair
        differing = []
        for offset, line in enumerate(lines):
            logged = self.log.readline()
            if not logged.endswith(b"\n"):
                self.log = None
                self._append(b"".join(lines[offset:]))
                break
            self.matched_bytes += len(logged)
            if logged == line:
                continue
            where = f"log {self.path} line {self._matched_lines()}"
            start, pair = jsonl_record_pair(line)
            if not logged.startswith(start):
                raise ValueError(f"{where} is not the record for {pair}; it is the log of another scan")
            _note(f"{where}: the record for {pair} differs from its recomputation")
            differing.append(offset)
        return differing

    def _matched_lines(self) -> int:
        at, lines = self.counted
        while chunk := os.pread(self.log.fileno(), min(1 << 20, self.matched_bytes - at), at):
            at, lines = at + len(chunk), lines + chunk.count(b"\n")
        self.counted = at, lines
        return lines

    def _append(self, data: bytes) -> None:
        if self.out is None:
            self.out = self.stack.enter_context(open(self.path, "ab"))
            if self.out.tell() > self.matched_bytes:
                self.out.truncate(self.matched_bytes)
        self.out.write(data)

    def finish(self) -> None:
        """Refuse a line past the last pair, then create the log or cut its torn tail."""
        if self.log is not None and self.log.readline().endswith(b"\n"):
            raise ValueError(f"log {self.path} line {self._matched_lines() + 1} is past the last pair; "
                             "it is the log of another scan")
        self._append(b"")


def _cmd_scan_conjecture(args) -> int:
    from .reciprocity import RECORD_FIELDS, conjecture_scan

    families = tuple(p for p in args.families.split(",") if p)
    if not families:
        raise ValueError("at least one family is required")
    stream_stdout = args.out is None and args.format in ("csv", "jsonl")
    with _writes_to(args.out), contextlib.ExitStack() as stack:
        log = on_row = _ScanLog(args.out, stack) if args.out is not None else None
        # The CSV header waits for the first row, or for the end of a scan
        # with no pairs, so that a scan refused by conjecture_scan prints nothing.
        header = [",".join(RECORD_FIELDS) + "\n"] if stream_stdout and args.format == "csv" else []
        if stream_stdout:
            def on_row(text):
                if header:
                    sys.stdout.write(header.pop())
                sys.stdout.write(text)
        summary = conjecture_scan(families, args.max_order, on_row=on_row,
                                  record_format=args.format if stream_stdout else "jsonl")
        if header:
            sys.stdout.write(header.pop())
        if log is not None:
            log.finish()
    human = [
        f"families: {', '.join(summary.families)}",
        f"pairs checked (order <= {args.max_order}): {summary.pairs_checked}",
        f"violations: {len(summary.violations)}",
    ]
    human += [f"  VIOLATION {r.g.notation()} vs {r.h.notation()}" for r in summary.violations]
    if stream_stdout:
        _note("\n".join(human))
    else:
        record = summary.to_record()
        violating = [r.to_record() for r in summary.violations]
        _emit(args, human, dict(record, violating_pairs=violating), rows=[record])
    return 1 if summary.violations else 0


def _lemma_record(instance) -> dict:
    # str gives an int's digits and a Fraction's num/den (its numerator when integral).
    own = {"lemma_id": instance.lemma_id, "lhs": str(instance.lhs), "rhs": str(instance.rhs)}
    return {column: own.get(column, instance.parameters.get(column)) for column in LEMMA_CSV_COLUMNS}


def _cmd_lemma(args) -> int:
    from . import lemmas

    with _writes_to(args.out), contextlib.ExitStack() as stack:
        # The report is opened before the grid runs, so that an unusable path
        # costs no grid time, and after the grid's own bound check, so that a
        # bound the grid refuses creates no file.  It is opened without
        # blocking, so a FIFO with no reader fails at once (ENXIO) instead of
        # waiting for one; writes then block as usual.
        report = None
        if args.out is not None:
            lemmas.check_grid_bound(args.id, args.max)
            fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
            report = stack.enter_context(open(fd, "w", encoding="utf-8", newline=""))
            os.set_blocking(fd, True)
        if args.id == "struct":
            result = lemmas.structure_grid(args.max)
        else:
            grid = lemmas.lemma21_grid if args.id.startswith("2.1") else lemmas.lemma22_grid
            result = grid(args.max, args.id[3:])
        failure_records = [_lemma_record(inst) for inst in result.failures]
        if report is not None:
            _write_csv(report, failure_records, LEMMA_CSV_COLUMNS)
    summary = {"lemma": result.lemma, "max": args.max,
               "checked": result.checked, "failures": len(result.failures)}
    human = [f"check {result.lemma} up to {args.max}: {result.checked} instances, "
             f"{len(result.failures)} failures"]
    human += [f"  FAIL {record}" for record in failure_records]
    _emit(args, human, dict(summary, failing_instances=failure_records),
          failure_records + [summary], failure_records, LEMMA_CSV_COLUMNS)
    if args.format == "csv":
        _note(f"checked: {result.checked}, failures: {len(result.failures)}")
    return 1 if result.failures else 0


def _cmd_catalan(args) -> int:
    value = rational_catalan(args.n, args.m)
    record = {"n": args.n, "m": args.m, "value": str(value)}
    _emit(args, [f"C({args.n + args.m}, {args.n}) / {args.n + args.m} = {value}"], record)
    return 0


def _cmd_gapfree(args) -> int:
    from .reciprocity import divisor_gap_free

    result = divisor_gap_free(args.n)
    record = {"n": args.n, "gap_free": result}
    verdict = "has no consecutive divisors above 1" if result else "has consecutive divisors above 1"
    _emit(args, [f"{args.n} {verdict}"], record)
    return 0


def _integer(text: str) -> int:
    """text as an int if it is ASCII decimal digits after at most one leading -.

    int() alone also takes other scripts' digits, _, a leading + and spaces.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:
        # Past the interpreter's limit on the digits of int(str), which
        # arguments keep.
        raise argparse.ArgumentTypeError(f"expected fewer digits, got {len(digits)}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="human",
                        help="output format (default: human)")
    parser = _Parser(
        prog="zsr",
        description="Exact zero-sum multiset counting over finite groups, "
                    "with reciprocity scans and inequality grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count zero-sum multisets of a given length")
    p.add_argument("--group", dest="notation", metavar="GROUP", required=True,
                   help="group notation, e.g. C2xC6, D10, Dic3, Q8")
    p.add_argument("--length", type=_integer, required=True, help="multiset length m")
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
    p.set_defaults(func=_cmd_scan_conjecture, families="abelian")

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
    stdout = sys.stdout
    if stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        args = _build_parser().parse_args(argv)
        # Exact counts print in full: lift the interpreter's limit on
        # int-to-str digits (where it has one), which argument parsing above
        # still kept.
        set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
        if set_int_max_str_digits is not None:
            set_int_max_str_digits(0)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        _note(f"error: {exc}")
        return 2
    except OSError as exc:
        if exc.filename is not None:
            # An --out path that cannot be opened (a directory, a missing
            # parent, not a regular file) or written.
            verb = "write" if isinstance(exc, _WriteError) else "open"
            _note(f"error: cannot {verb} {exc.filename}: {exc.strerror}")
            return 2
        # A write to stdout failed.  Point stdout at devnull so that the flush
        # at interpreter exit cannot fail again; a stdout closed at start-up
        # has no descriptor, and an --out log may hold descriptor 1.
        if stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            # The reader closed stdout: exit as SIGPIPE would (128 + 13).
            return 141
        _note(f"error: cannot write standard output: {exc.strerror}")
        return 2
    except Exception:
        # A crash is no finding, so it has a code of its own, never 1.
        import traceback

        _note(traceback.format_exc().rstrip("\n"))
        return 3
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
