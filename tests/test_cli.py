"""End-to-end tests for the zsr command line."""

import argparse
import ast
import contextlib
import errno
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import time
from hashlib import sha256
from math import comb
from pathlib import Path

import pytest

import zsr
from zsr import lemmas, reciprocity
from zsr.cli import (
    FORMATS,
    LEMMA_IDS,
    _cmd_catalan,
    _cmd_check,
    _cmd_count,
    _cmd_enumerate,
    _cmd_gapfree,
    _cmd_lemma,
    _cmd_scan_conjecture,
    _cmd_spectrum,
    _fast_parse,
    main,
)
from zsr.counting import count_formula
from zsr.groups import FAMILIES, AbelianGroup, order_spectrum, solutions
from zsr.reciprocity import RECORD_FIELDS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json_record(capsys):
    code, out, err = run(capsys, "count", "--group", "C2xC6", "--length", "4", "--format", "json")
    assert code == 0 and err == ""
    assert out == '{"group":"C2xC6","order":12,"length":4,"method":"formula","value":"119"}\n'


def test_count_oracle_methods(capsys):
    code, out, _ = run(capsys, "count", "--group", "C4", "--length", "4", "--method", "dp",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"group": "C4", "order": 4, "length": 4,
                               "method": "dp_oracle", "value": "10"}
    code, out, _ = run(capsys, "count", "--group", "D10", "--length", "10", "--method", "molien",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "9302"


def test_count_human_line(capsys):
    code, out, _ = run(capsys, "count", "--group", "C5", "--length", "3")
    assert code == 0
    assert out == "|M(C5, 3)| = 7  [formula]\n"


def test_spectrum_formats(capsys):
    code, out, _ = run(capsys, "spectrum", "--group", "D10", "--format", "json")
    assert code == 0
    assert out == '{"group":"D10","order":10,"method":"structural","spectrum":{"1":1,"2":5,"5":4,"10":0}}\n'
    code, out, _ = run(capsys, "spectrum", "--group", "Q8", "--format", "csv")
    assert code == 0
    assert out == (
        "group,order,method,d,count\n"
        "Dic2,8,structural,1,1\n"
        "Dic2,8,structural,2,1\n"
        "Dic2,8,structural,4,6\n"
        "Dic2,8,structural,8,0\n"
    )


def test_spectrum_brute_force_matches_structural(capsys):
    code, fast, _ = run(capsys, "spectrum", "--group", "C2xC6", "--format", "json")
    assert code == 0
    code, slow, _ = run(capsys, "spectrum", "--group", "C2xC6", "--brute-force", "--format", "json")
    assert code == 0
    assert json.loads(fast)["spectrum"] == json.loads(slow)["spectrum"]
    assert json.loads(slow)["method"] == "brute_force"


def test_enumerate_formats(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "36", "--format", "csv")
    assert code == 0
    assert out == (
        "order,group,invariant_factors\n"
        "36,C2xC18,2x18\n"
        "36,C3xC12,3x12\n"
        "36,C6xC6,6x6\n"
        "36,C36,36\n"
    )
    code, out, _ = run(capsys, "enumerate", "--order", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"order": 4, "group": "C2xC2", "invariant_factors": [2, 2]},
        {"order": 4, "group": "C4", "invariant_factors": [4]},
    ]
    # a list also when the order has one abelian group
    code, out, _ = run(capsys, "enumerate", "--order", "7", "--format", "json")
    assert code == 0 and out == '[{"order":7,"group":"C7","invariant_factors":[7]}]\n'
    code, out, _ = run(capsys, "enumerate", "--order", "1", "--format", "json")
    assert code == 0 and out == '[{"order":1,"group":"C1","invariant_factors":[]}]\n'


def test_check_json_and_human(capsys):
    code, out, _ = run(capsys, "check", "--g", "C4", "--h", "C2xC2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "g": "C4", "h": "C2xC2", "order_g": 4, "order_h": 4,
        "spectra_agree": False, "witness_divisor": 2,
        "count_g_at_h": "10", "count_h_at_g": "11", "iff_consistent": True,
    }
    code, out, _ = run(capsys, "check", "--g", "D10", "--h", "C10")
    assert code == 0
    assert out == (
        "G = D10 (order 10), H = C10 (order 10)\n"
        "spectra agree on shared divisors: no (first difference at d = 2)\n"
        "|M(G, 10)| = 9302\n"
        "|M(H, 10)| = 9252\n"
        "iff consistent: yes\n"
    )


def test_verify_theorem_human_summary(capsys):
    code, out, err = run(capsys, "verify-theorem", "--max-order", "6")
    assert code == 0 and err == ""
    assert out == "families: abelian\npairs checked (order <= 6): 28\nviolations: 0\n"


def test_verify_theorem_csv_stream(capsys):
    code, out, err = run(capsys, "verify-theorem", "--max-order", "4", "--format", "csv")
    assert code == 0
    # records stream to stdout; the human summary moves to stderr
    lines = out.splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert lines[1] == "C1,C1,1,1,true,,1,1,true"
    assert "C2,C2xC2,2,4,false,2,3,4,true" in lines
    assert len(lines) == 16
    assert "pairs checked (order <= 4): 15" in err


def test_scan_conjecture_json_summary(capsys):
    code, out, _ = run(capsys, "scan-conjecture", "--families", "abelian,dihedral",
                       "--max-order", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "pairs_checked": 153, "violations": 0, "max_order": 10,
        "families": ["abelian", "dihedral"], "violating_pairs": [],
    }


def test_scan_jsonl_stream_round_trips(capsys):
    code, out, err = run(capsys, "verify-theorem", "--max-order", "8", "--format", "jsonl")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 66
    for line in lines:
        record = json.loads(line)
        assert tuple(record.keys()) == RECORD_FIELDS
        assert json.dumps(record, separators=(",", ":")) == line
    assert "violations: 0" in err


def test_scan_log_resume_is_byte_identical(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    code, out_full, _ = run(capsys, "verify-theorem", "--max-order", "10",
                            "--out", str(full), "--format", "jsonl")
    assert code == 0
    torn = tmp_path / "torn.jsonl"
    lines = full.read_bytes().splitlines(keepends=True)
    torn.write_bytes(b"".join(lines[:5]) + b'{"g":"C4","h"')
    code, out_resumed, _ = run(capsys, "verify-theorem", "--max-order", "10",
                               "--out", str(torn), "--format", "jsonl")
    assert code == 0
    assert torn.read_bytes() == full.read_bytes()
    assert out_resumed == out_full


def test_scan_bytes_are_pinned(tmp_path, capsys):
    # A logged scan walks every pair in canonical order; a summary scan decides by
    # spectrum class.  Both must give the bytes these hashes were taken from.
    log = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan-conjecture", "--max-order", "40", "--format", "json",
                         "--out", str(log))
    assert code == 0 and err == ""
    written = log.read_bytes()
    assert written.count(b"\n") == 6903
    assert sha256(written).hexdigest() == "79022a00e5ba622b196ca484462bebc706e3ae92b7d169a765fa84d50a90e49b"
    assert sha256(out.encode()).hexdigest() == "4199d9b74a7efb569b9250214e5565ec889054b5bdf7af8b6321e131c11eb0e5"
    code, out, err = run(capsys, "scan-conjecture", "--max-order", "128", "--format", "json")
    assert code == 0 and err == ""
    assert sha256(out.encode()).hexdigest() == "d018a42161e4db4090bf620b21f48c60e4ce876654b223e5912d6fef43929383"


def test_streamed_scan_bytes_are_pinned(capsys):
    # Streamed records are rendered from per-group fields; these hashes were taken
    # from the earlier encoder, which built a dict per record and called json.dumps.
    summary = "families: abelian, dihedral, dicyclic, products\npairs checked (order <= 40): 6903\nviolations: 0\n"
    for fmt, digest in (("jsonl", "79022a00e5ba622b196ca484462bebc706e3ae92b7d169a765fa84d50a90e49b"),
                        ("csv", "fc0d64922f79049137ce3e03b10f9193fc211f618dc02fc3f7a2217c20e91caf")):
        code, out, err = run(capsys, "scan-conjecture", "--max-order", "40", "--format", fmt)
        assert code == 0 and err == summary
        assert sha256(out.encode()).hexdigest() == digest, fmt


def test_planted_non_frobenius_spectrum_exits_2(monkeypatch, capsys):
    # C6 given 1, 2, 5, 6 solutions of x^d = 1 at d = 1, 2, 3, 6 inverts to
    # the spectrum (1, 1, 4, 0): four elements of order 3 (a multiple of
    # phi(3)), but 5 solutions of x^3 = 1, which 3 does not divide.  No group
    # has this spectrum, and every scan refuses it before its first record.
    monkeypatch.setattr(reciprocity, "solutions", lambda g, divs:
                        [1, 2, 5, 6] if g.notation() == "C6" else solutions(g, divs))
    for fmt in ("json", "jsonl", "csv"):
        code, out, err = run(capsys, "scan-conjecture", "--max-order", "24", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("error: the spectrum of C6 is no group's: the number of solutions of "
                       "x^3 = 1 is not a multiple of 3\n")


def test_scan_log_rerun_appends_nothing(tmp_path, capsys):
    log = tmp_path / "scan.jsonl"
    run(capsys, "scan-conjecture", "--max-order", "8", "--out", str(log))
    before = log.read_bytes()
    code, _, _ = run(capsys, "scan-conjecture", "--max-order", "8", "--out", str(log))
    assert code == 0
    assert log.read_bytes() == before


def test_doctored_log_reports_violation(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    record = {
        "g": "C1", "h": "C1", "order_g": 1, "order_h": 1,
        "spectra_agree": True, "witness_divisor": None,
        "count_g_at_h": "1", "count_h_at_g": "2", "iff_consistent": False,
    }
    log.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    code, out, _ = run(capsys, "verify-theorem", "--max-order", "4", "--out", str(log))
    assert code == 1
    assert "violations: 1" in out


def test_doctored_counts_report_violation(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    run(capsys, "verify-theorem", "--max-order", "6", "--out", str(log))
    lines = log.read_text().splitlines(keepends=True)
    record = json.loads(lines[3])
    assert record["spectra_agree"] and record["iff_consistent"]
    for field in ("count_g_at_h", "count_h_at_g"):
        record[field] = str(int(record[field]) + 1)
    lines[3] = json.dumps(record, separators=(",", ":")) + "\n"
    log.write_text("".join(lines))
    code, out, err = run(capsys, "verify-theorem", "--max-order", "6", "--out", str(log))
    assert code == 1
    assert "violations: 1" in out
    assert f"log {log} line 4:" in err


def test_doctored_counts_are_caught_under_optimize(tmp_path):
    # python -O strips asserts; the log check must not rest on one.
    log = tmp_path / "log.jsonl"
    command = [sys.executable, "-O", "-m", "zsr.cli", "scan-conjecture", "--max-order", "12",
               "--out", str(log)]
    assert subprocess.run(command, capture_output=True, env=child_env()).returncode == 0
    lines = log.read_text().splitlines(keepends=True)
    record = json.loads(lines[5])
    record["count_h_at_g"] = str(int(record["count_h_at_g"]) + 1)
    lines[5] = json.dumps(record, separators=(",", ":")) + "\n"
    log.write_text("".join(lines))
    result = subprocess.run(command, capture_output=True, text=True, env=child_env())
    assert result.returncode == 1
    assert "violations: 1" in result.stdout
    assert result.stderr == (f"log {log} line 6: the record for {record['g']} vs {record['h']} "
                             "differs from its recomputation\n")


def test_log_of_another_scan_is_left_unchanged(tmp_path, capsys):
    log = tmp_path / "order20.jsonl"
    run(capsys, "scan-conjecture", "--max-order", "20", "--out", str(log))
    before = log.read_bytes()
    assert before.count(b"\n") == 1035
    code, out, err = run(capsys, "scan-conjecture", "--max-order", "12", "--out", str(log))
    assert code == 2 and out == ""
    assert "line 24" in err and "C2 vs C2" in err
    assert log.read_bytes() == before
    # a complete log with one more line after the last pair
    longer = tmp_path / "longer.jsonl"
    run(capsys, "verify-theorem", "--max-order", "6", "--out", str(longer))
    extended = longer.read_bytes() + before.splitlines(keepends=True)[0]
    longer.write_bytes(extended)
    code, out, err = run(capsys, "verify-theorem", "--max-order", "6", "--out", str(longer))
    assert code == 2 and out == ""
    assert "line 29" in err
    assert longer.read_bytes() == extended


def test_log_checks_hold_inside_and_across_rows(tmp_path, capsys):
    # A logged scan writes and checks one row at a time: the records of group i
    # with itself and every later group.  At order 40 there are 117 groups, so
    # row i holds 117 - i lines and starts after i * 117 - i * (i - 1) / 2 lines.
    log = tmp_path / "scan.jsonl"
    argv = ("scan-conjecture", "--max-order", "40", "--format", "json", "--out", str(log))
    _, fresh_out, _ = run(capsys, *argv)
    fresh = log.read_bytes()
    lines = fresh.splitlines(keepends=True)
    assert len(lines) == 117 * 118 // 2
    row_start = 3 * 117 - 3  # row 3 holds lines 349 to 462 (counted from 1)
    middle = row_start + 57
    # A doctored count in the middle of a row is one violation at its line.
    record = json.loads(lines[middle])
    record["count_g_at_h"] = str(int(record["count_g_at_h"]) + 1)
    line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    doctored = b"".join(lines[:middle]) + line + b"".join(lines[middle + 1:])
    log.write_bytes(doctored)
    code, out, err = run(capsys, *argv)
    assert code == 1 and json.loads(out)["violations"] == 1
    assert err == (f"log {log} line {middle + 1}: the record for {record['g']} vs {record['h']} "
                   "differs from its recomputation\n")
    assert log.read_bytes() == doctored
    # A cut inside a line in the middle of a row, and a cut exactly at the end
    # of a row, both resume to the fresh bytes.
    row_end = len(b"".join(lines[:row_start + 114]))
    for cut in (len(b"".join(lines[:middle])) + 40, row_end):
        log.write_bytes(fresh[:cut])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, fresh_out, "")
        assert log.read_bytes() == fresh
    # A complete order-20 log holds the first 45 records of row 0 and then row 1:
    # its line 46 is not the record for C1 and the 46th group of order 40.
    smaller = tmp_path / "order20.jsonl"
    run(capsys, "scan-conjecture", "--max-order", "20", "--out", str(smaller))
    before = smaller.read_bytes()
    assert before.count(b"\n") == 45 * 46 // 2
    code, out, err = run(capsys, *argv[:-1], str(smaller))
    h = json.loads(lines[45])["h"]
    assert code == 2 and out == ""
    assert err == (f"error: log {smaller} line 46 is not the record for C1 vs {h}; "
                   "it is the log of another scan\n")
    assert smaller.read_bytes() == before


def test_log_line_numbers_after_many_whole_rows(tmp_path, capsys):
    # Whole rows that match are skipped without counting their lines, so a
    # message counts them from the log.  Each expected line number is counted
    # here from the doctored byte's offset.
    log = tmp_path / "scan.jsonl"
    argv = ("scan-conjecture", "--max-order", "48", "--out", str(log))
    run(capsys, *argv)
    fresh = log.read_bytes()
    records = fresh.count(b"\n")
    assert records == 150 * 151 // 2

    def doctored(data, near):
        """data with one digit of count_g_at_h flipped in the first record from near on."""
        start = data.index(b"\n", near) + 1
        at = data.index(b'"count_g_at_h":"', start) + len('"count_g_at_h":"')
        digit = b"2" if data[at:at + 1] == b"1" else b"1"
        record = json.loads(data[start:data.index(b"\n", start)])
        line = data.count(b"\n", 0, at) + 1
        message = (f"log {log} line {line}: the record for {record['g']} vs {record['h']} "
                   "differs from its recomputation\n")
        return data[:at] + digit + data[at + 1:], message

    # A doctored record in the back half: exit 1, that line named, the log kept.
    back, message = doctored(fresh, 2 * len(fresh) // 3)
    log.write_bytes(back)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, message) and "violations: 1" in out
    assert log.read_bytes() == back
    # One record line past the last pair: exit 2, line records + 1 named.
    log.write_bytes(fresh + fresh.splitlines(keepends=True)[-1])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: log {log} line {records + 1} is past the last pair; "
                   "it is the log of another scan\n")
    # An earlier doctored record and a torn last line: the doctored line is
    # named and the torn line is completed.
    early, message = doctored(fresh, len(fresh) // 3)
    log.write_bytes(early[:-30])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, message) and "violations: 1" in out
    assert log.read_bytes() == early
    # Two doctored records: the second line number is counted on from the first.
    both, later = doctored(early, 2 * len(fresh) // 3)
    log.write_bytes(both)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, message + later) and "violations: 2" in out


def test_bad_scan_arguments_leave_the_log_alone(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b'{"g":"C1","h"')
    for log in (missing, torn):
        code, _, err = run(capsys, "scan-conjecture", "--families", "abelian,weird",
                           "--max-order", "12", "--out", str(log))
        assert code == 2 and "unknown families" in err
    assert not missing.exists()
    assert torn.read_bytes() == b'{"g":"C1","h"'


def test_resume_of_a_damaged_log_is_exact_or_refused(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    log = tmp_path / "scan.jsonl"
    argv = ("scan-conjecture", "--max-order", "10", "--format", "json", "--out", str(log))
    _, fresh_out, _ = run(capsys, *argv)
    fresh = log.read_bytes()
    truncated = st.integers(0, len(fresh)).map(lambda cut: fresh[:cut])
    flipped = st.tuples(st.integers(0, len(fresh) - 1), st.integers(1, 255)).map(
        lambda flip: fresh[:flip[0]] + bytes([fresh[flip[0]] ^ flip[1]]) + fresh[flip[0] + 1:])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.one_of(truncated, flipped))
    def check(damaged):
        log.write_bytes(damaged)
        code, out, _ = run(capsys, *argv)
        if code == 0:
            assert log.read_bytes() == fresh and out == fresh_out
        elif code == 1:
            assert json.loads(out)["violations"] >= 1
        else:
            assert code == 2 and out == ""
            assert log.read_bytes() == damaged

    check()


def test_lemma_grid_formats(capsys):
    code, out, _ = run(capsys, "lemma", "--id", "2.1i", "--max", "20", "--format", "json")
    assert code == 0
    assert out == '{"lemma":"2.1i","max":20,"checked":103,"failures":0,"failing_instances":[]}\n'
    code, out, _ = run(capsys, "lemma", "--id", "struct", "--max", "12")
    assert code == 0
    assert out == "check struct up to 12: 80 instances, 0 failures\n"


def test_lemma_failure_report_is_written(tmp_path, capsys):
    report = tmp_path / "failures.csv"
    code, _, _ = run(capsys, "lemma", "--id", "2.2ii", "--max", "30", "--out", str(report))
    assert code == 0
    assert report.read_text() == "lemma_id,m,n,a,b,p,q,lhs,rhs\n"


def test_catalan_and_gapfree(capsys):
    code, out, _ = run(capsys, "catalan", "--n", "5", "--m", "3", "--format", "json")
    assert code == 0 and out == '{"n":5,"m":3,"value":"7"}\n'
    code, out, _ = run(capsys, "catalan", "--n", "5", "--m", "3")
    assert code == 0 and out == "C(8, 5) / 8 = 7\n"
    code, out, _ = run(capsys, "gapfree", "--n", "12", "--format", "json")
    assert code == 0 and out == '{"n":12,"gap_free":false}\n'
    code, out, _ = run(capsys, "gapfree", "--n", "35")
    assert code == 0 and out == "35 has no consecutive divisors above 1\n"


def test_error_exit_codes(capsys):
    cases = [
        (["count", "--group", "D7", "--length", "2"],
         "error: D7 is not supported: D<n> needs even n >= 6 (at byte 0)\n"),
        # The whole notation is checked before any order is factorized.
        (["count", "--group", "C10000000000000xZ", "--length", "2"],
         "error: expected a group term (C<n>, D<2k>, Dic<k>, or Q8), found 'Z' (at byte 16)\n"),
        (["count", "--group", "D10", "--length", "3", "--method", "dp"],
         "error: the dp oracle enumerates elements of abelian groups only\n"),
        (["spectrum", "--group", "D10", "--brute-force"],
         "error: brute-force spectra enumerate elements of abelian groups only\n"),
        (["catalan", "--n", "6", "--m", "3"],
         "error: rational_catalan requires coprime arguments, gcd(6, 3) = 3\n"),
        (["count", "--group", "C40", "--length", "2", "--method", "dp"],
         "error: dp oracle budget is order <= 36 and length <= 36, got order 40, length 2\n"),
        (["scan-conjecture", "--families", "abelian,weird", "--max-order", "10"],
         "error: unknown families ['weird']; valid names: abelian, dihedral, dicyclic, products\n"),
        # Group notation takes ASCII digits only.
        (["count", "--group", "C\u0663", "--length", "3"],
         "error: expected an integer after 'C' (at byte 1)\n"),
    ]
    for argv, message in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err == message
        assert captured.out == ""


# One invocation per subcommand and outcome, each run in every format.  The
# "planted" case fails two Lemma 2.1 instances to render a failing grid.
GOLDEN_CASES = {
    "count-formula": ("count", "--group", "C2xC6", "--length", "4"),
    "count-dp": ("count", "--group", "C4", "--length", "4", "--method", "dp"),
    "count-molien": ("count", "--group", "D10", "--length", "10", "--method", "molien"),
    "count-product": ("count", "--group", "C3xD10", "--length", "6"),
    "count-bad-notation": ("count", "--group", "D7", "--length", "2"),
    "count-dp-budget": ("count", "--group", "C40", "--length", "2", "--method", "dp"),
    "count-dp-nonabelian": ("count", "--group", "D10", "--length", "3", "--method", "dp"),
    "spectrum-dihedral": ("spectrum", "--group", "D10"),
    "spectrum-dicyclic": ("spectrum", "--group", "Dic3"),
    "spectrum-product": ("spectrum", "--group", "C2xQ8"),
    "spectrum-brute-force": ("spectrum", "--group", "C2xC6", "--brute-force"),
    "spectrum-brute-force-budget": ("spectrum", "--group", "C6000", "--brute-force"),
    "enumerate-36": ("enumerate", "--order", "36"),
    "enumerate-4": ("enumerate", "--order", "4"),
    "enumerate-7": ("enumerate", "--order", "7"),
    "enumerate-1": ("enumerate", "--order", "1"),
    "check-agree": ("check", "--g", "C4", "--h", "C2xC2"),
    "check-dihedral": ("check", "--g", "D10", "--h", "C10"),
    "verify-theorem": ("verify-theorem", "--max-order", "8"),
    "scan-conjecture": ("scan-conjecture", "--max-order", "12"),
    "scan-families": ("scan-conjecture", "--families", "dihedral,dicyclic", "--max-order", "16"),
    "scan-unknown-family": ("scan-conjecture", "--families", "abelian,weird", "--max-order", "10"),
    "scan-no-family": ("scan-conjecture", "--families", ",", "--max-order", "10"),
    "lemma-2.1i": ("lemma", "--id", "2.1i", "--max", "20"),
    "lemma-2.1ii": ("lemma", "--id", "2.1ii", "--max", "20"),
    "lemma-2.2i": ("lemma", "--id", "2.2i", "--max", "40"),
    "lemma-2.2ii": ("lemma", "--id", "2.2ii", "--max", "30"),
    "lemma-struct": ("lemma", "--id", "struct", "--max", "12"),
    "lemma-2.1i-planted": ("lemma", "--id", "2.1i", "--max", "30"),
    "catalan": ("catalan", "--n", "5", "--m", "3"),
    "catalan-not-coprime": ("catalan", "--n", "6", "--m", "3"),
    "gapfree-no": ("gapfree", "--n", "12"),
    "gapfree-yes": ("gapfree", "--n", "35"),
}
LEMMA21_PLANTED = [(12, 18, 2, 3), (20, 30, 2, 5)]
# sha256 of the JSON list [exit code, stdout, stderr] of each case in each format.
# enumerate-1 and enumerate-7 in json are pinned in test_enumerate_formats.
GOLDEN = {
    "count-formula/human": "e83fff0536eba66939b7f01ba2c837b5e854731fc4af3caf264eec8e2e5903fc",
    "count-formula/json": "804bb88d0f3d5f9acd584cdfbdeb28018e63d3b1d3fccf0b39c829de08256ed7",
    "count-formula/csv": "ebec01879e21ec92a9301496902816e823f48096d3e5310802c1d7f9e3228f9f",
    "count-formula/jsonl": "804bb88d0f3d5f9acd584cdfbdeb28018e63d3b1d3fccf0b39c829de08256ed7",
    "count-dp/human": "3fc7048e5a3492d2a72ca0b563f8f3a964b6f460df24ed2948ad3e89b6e1bcc4",
    "count-dp/json": "a504bc7da843d14a75f2878d9c69036a2adeda263cb8910e02db9fee3634a0f3",
    "count-dp/csv": "d6976c23cbaf6ae906649339c34aa2b1e4813a928d2f7f7e1274df57ba6421c7",
    "count-dp/jsonl": "a504bc7da843d14a75f2878d9c69036a2adeda263cb8910e02db9fee3634a0f3",
    "count-molien/human": "6272b872e7fcf6c1cb9c38501170b0d0eec6d3ee059464d0f14c01aa9b9a4370",
    "count-molien/json": "a8c83f822c7ce088bde8860ed4f332782cd1c9064ad7ce7f3fdc5b272d32dadf",
    "count-molien/csv": "2506f64f9b4c0235abd4a34942082a7200b06820cb544f28c5fcac62847c3405",
    "count-molien/jsonl": "a8c83f822c7ce088bde8860ed4f332782cd1c9064ad7ce7f3fdc5b272d32dadf",
    "count-product/human": "5a6fcd7c1e44eae9102cce21e2be6d938d89f736862d7ca6b32ddca074f402a7",
    "count-product/json": "ca9c2456c6a637c62e6ead6f8aae06e3e7dd74db14557d5ab169f192a8661ffb",
    "count-product/csv": "0806d8bfc675c545ffb19eb05d9905cd128276aebf6a682009f71524f902d698",
    "count-product/jsonl": "ca9c2456c6a637c62e6ead6f8aae06e3e7dd74db14557d5ab169f192a8661ffb",
    "count-bad-notation/human": "2cf13ab1923f04bf47a96c08ef70d0c66613cf862ff022db00a350d1f74d9864",
    "count-bad-notation/json": "2cf13ab1923f04bf47a96c08ef70d0c66613cf862ff022db00a350d1f74d9864",
    "count-bad-notation/csv": "2cf13ab1923f04bf47a96c08ef70d0c66613cf862ff022db00a350d1f74d9864",
    "count-bad-notation/jsonl": "2cf13ab1923f04bf47a96c08ef70d0c66613cf862ff022db00a350d1f74d9864",
    "count-dp-budget/human": "7444463e36ca899353355b54d85758f2e1fc8c95b5d49786a51941bb54c5263d",
    "count-dp-budget/json": "7444463e36ca899353355b54d85758f2e1fc8c95b5d49786a51941bb54c5263d",
    "count-dp-budget/csv": "7444463e36ca899353355b54d85758f2e1fc8c95b5d49786a51941bb54c5263d",
    "count-dp-budget/jsonl": "7444463e36ca899353355b54d85758f2e1fc8c95b5d49786a51941bb54c5263d",
    "count-dp-nonabelian/human": "5854f568345764cff229323dd9c2bd64bb48facdcc03031eb8545b94904a1543",
    "count-dp-nonabelian/json": "5854f568345764cff229323dd9c2bd64bb48facdcc03031eb8545b94904a1543",
    "count-dp-nonabelian/csv": "5854f568345764cff229323dd9c2bd64bb48facdcc03031eb8545b94904a1543",
    "count-dp-nonabelian/jsonl": "5854f568345764cff229323dd9c2bd64bb48facdcc03031eb8545b94904a1543",
    "spectrum-dihedral/human": "9ee85ce6ff8ebb73c76fc9f3eb7fbc1655c357710ef9995777408ae710b4f908",
    "spectrum-dihedral/json": "85d1733f0c410685c33a27a2aa56314f0d0afb5a084eb0d4b7fa27b011eee4dd",
    "spectrum-dihedral/csv": "e9d41a3644250fe4f0416d176e0248d11ca9cf3a32036ee7afd0e85c5b2a81ad",
    "spectrum-dihedral/jsonl": "85d1733f0c410685c33a27a2aa56314f0d0afb5a084eb0d4b7fa27b011eee4dd",
    "spectrum-dicyclic/human": "66eb49266c9f747618a83cdf842a389d803f6470a58516483876131436548d81",
    "spectrum-dicyclic/json": "6ef2e1b0efeac7996ecea850ccce783e0efffcb5e2ffb9356ce3ae86bf57da3e",
    "spectrum-dicyclic/csv": "1632799e99104e55bdec135e0c83d1de6be7a02e17aace4d96eac0dc7602706f",
    "spectrum-dicyclic/jsonl": "6ef2e1b0efeac7996ecea850ccce783e0efffcb5e2ffb9356ce3ae86bf57da3e",
    "spectrum-product/human": "7d01aff1e7f34a2dbff1692b398f82ee514f70f5a489defa6239fd0472ca6d08",
    "spectrum-product/json": "5554cd2245ddcfe327d81a1e8d0b169c6a4da450508d4678b890052c5fd0cfd5",
    "spectrum-product/csv": "be29c8576f811591c03aac1b6aaff95b6136657f83f272f38fb16809613f512e",
    "spectrum-product/jsonl": "5554cd2245ddcfe327d81a1e8d0b169c6a4da450508d4678b890052c5fd0cfd5",
    "spectrum-brute-force/human": "8194c48f6e02e13d8b5c05dd54964e1da1edae8946e04215244d0c6f71de8561",
    "spectrum-brute-force/json": "28a54bdd5d4b1f28e32478c94d6267d230dcc525a0b239cae2d457bc22503369",
    "spectrum-brute-force/csv": "f92d5049247513c299ed24295aae52a92285b1225a760fbd97d0ccb830668773",
    "spectrum-brute-force/jsonl": "28a54bdd5d4b1f28e32478c94d6267d230dcc525a0b239cae2d457bc22503369",
    "spectrum-brute-force-budget/human": "2322d2f5b989a053708f8c11e0df2e45ab3c28f30a34cc64bdec77a985aad988",
    "spectrum-brute-force-budget/json": "2322d2f5b989a053708f8c11e0df2e45ab3c28f30a34cc64bdec77a985aad988",
    "spectrum-brute-force-budget/csv": "2322d2f5b989a053708f8c11e0df2e45ab3c28f30a34cc64bdec77a985aad988",
    "spectrum-brute-force-budget/jsonl": "2322d2f5b989a053708f8c11e0df2e45ab3c28f30a34cc64bdec77a985aad988",
    "enumerate-36/human": "32375887c041bed822f20f2d46705389f78c5ea6732f791d71fdc14f9b975c7c",
    "enumerate-36/json": "5d4f37549db63b3f8b048e8f8bebb8f8af27e8ff207d8b81735039c72b2a7a45",
    "enumerate-36/csv": "f05f356a8b262e9c400c6f3330f26b3f2fb4950ba72b18785430b526c6202e75",
    "enumerate-36/jsonl": "06327800d42ee896f97086f3cc20943ab2b515e2ff4b70f3cc51ebe7cb9400cc",
    "enumerate-4/human": "0827e5834ee27240aa4e7f921cc8d57cce9199c74160e8364711adac2fbe2fc3",
    "enumerate-4/json": "9ed7de572f7b965bb2a5ccc44452af54eef419d17c8ce8454037a995b1901084",
    "enumerate-4/csv": "f8fd4bad15363ef6b7b7fbe2040549a2648119ea1db8e1f217be43c7a96de392",
    "enumerate-4/jsonl": "90b09ec576c3201ed11b6a0ac167d55a51b0c902525dd6a1e08accbf656d71fa",
    "enumerate-7/human": "30d5cc9e234fb5323045c7dbb22bc29a0939845d7f6db99b03822b200a8090d3",
    "enumerate-7/csv": "038f97dfcc15cafbe384cd177951292697f8fe1aa7debf8453e0d7e185e8d811",
    "enumerate-7/jsonl": "4650871b158f37de07c6979d83abebf019e553d177fa51266e9307bfba6eff9e",
    "enumerate-1/human": "25d54d0cd126713edc144857baa92982fcfcd6f153b3c6ec8ae430f430b63427",
    "enumerate-1/csv": "0ad60a973b05d416876875ee0d47ef114170532fb8097c80067e1d00c3071c3e",
    "enumerate-1/jsonl": "7b3e9214ebe809ddfb256523adafdee8de090f2f330f0c9af7700ec97a6fd6c8",
    "check-agree/human": "f47083f547baacf26e9918016808aebe06bff278f6267c2c3fa09a29621101ce",
    "check-agree/json": "bd0d6ebfaf779123fca40b217240b1fdea57742e800a8c2a7e017155762f4bca",
    "check-agree/csv": "53c7d494f01ebf8ed1094148d733f645fa52fe7a96a377b235e5933ac00bb1ed",
    "check-agree/jsonl": "bd0d6ebfaf779123fca40b217240b1fdea57742e800a8c2a7e017155762f4bca",
    "check-dihedral/human": "6e36e319401a836e666df89c9a183e52961df34f3042e31f5033940c5a7713bf",
    "check-dihedral/json": "95f00d75ced4a9e677a60d710a1d6599f81495b1d22b29549c1909412c08865f",
    "check-dihedral/csv": "5df1000eb1634e1b6b20d6cf48bd8071687a8b73e0180a3e2d0749bf931a1b6a",
    "check-dihedral/jsonl": "95f00d75ced4a9e677a60d710a1d6599f81495b1d22b29549c1909412c08865f",
    "verify-theorem/human": "9a5cc968f51cee7b3c81eb5bb15afa97b286d1f91161412f671a13b1394e50ac",
    "verify-theorem/json": "3854800d87a83ba8485d9e9de83794d71f6f54c76cfa38907c361b499714a051",
    "verify-theorem/csv": "2f180981503a345b9aa47ee97afe97263641055e5e73aa8860164854be6f0642",
    "verify-theorem/jsonl": "b8819b3e5d8e6d490512dffebddb4b6861abb85db26c942fa47906f7930caa58",
    "scan-conjecture/human": "5101ca659eb9850cd6eeeb26970d10da1559dafbc5809e960c1261c535bbde3c",
    "scan-conjecture/json": "1d42e3f34fa27ea7022cf9c21ec193ea3e8603808725780c949e8c540cd5c5fe",
    "scan-conjecture/csv": "ca2493e78fff0ea45398dd9065573adef6a9be68294e088a0e1259fdcb77304b",
    "scan-conjecture/jsonl": "af875fb52a3b6b28ee488c4d8a51bfb31a4151a2a33dd683ef90674a6be13107",
    "scan-families/human": "3008036f3dd1ce96a9f32f5ad56b0995a291efe42bf7e4520a83a96dae730784",
    "scan-families/json": "1273f5794ec2144f1006577fe3aac30335b9e172236e26718c967e4557c4ca1d",
    "scan-families/csv": "f24b53b677a05b407902f2fb8665bd8124949fc77584a438074d518dc5415275",
    "scan-families/jsonl": "f7fa29e96e26f4ff9998f0ee23fe993e69470de09bb75702fbb4c5995e38d8ec",
    "scan-unknown-family/human": "5e060139458564841b5513dde4a6ff2226e66ae508c57ac949b3ef2abb3a8d89",
    "scan-unknown-family/json": "5e060139458564841b5513dde4a6ff2226e66ae508c57ac949b3ef2abb3a8d89",
    "scan-unknown-family/csv": "5e060139458564841b5513dde4a6ff2226e66ae508c57ac949b3ef2abb3a8d89",
    "scan-unknown-family/jsonl": "5e060139458564841b5513dde4a6ff2226e66ae508c57ac949b3ef2abb3a8d89",
    "scan-no-family/human": "f954deeea19f5284ce5d85960d77f8373a7d462f8f140214b64c0590a53fac09",
    "scan-no-family/json": "f954deeea19f5284ce5d85960d77f8373a7d462f8f140214b64c0590a53fac09",
    "scan-no-family/csv": "f954deeea19f5284ce5d85960d77f8373a7d462f8f140214b64c0590a53fac09",
    "scan-no-family/jsonl": "f954deeea19f5284ce5d85960d77f8373a7d462f8f140214b64c0590a53fac09",
    "lemma-2.1i/human": "161287e38f60cd997d4367f06a9c973efe85dd8393bb01b71eadcf46459c9d06",
    "lemma-2.1i/json": "c470e9eee2b33196f99f9529a9991fbbd11be65c045ae9ebf97efd3a6b46a387",
    "lemma-2.1i/csv": "f707bbfb61ca53144c70b238250e7b847674015549522993606f72e9eca83f4d",
    "lemma-2.1i/jsonl": "b3f742f3a543ee8028f5e9a16e229c325e7a55d69dbd7c4198445211f1b8c25e",
    "lemma-2.1ii/human": "347b934a8f4d62e55d8cfd5d1d865f4480c34e0e18b4497c0c2554a1ce8118b3",
    "lemma-2.1ii/json": "11138605b5b9fd8cb77b3942272418fc76d32f39515b0e8f18b30987013c92c4",
    "lemma-2.1ii/csv": "4f71ad727e08e3d689411934762375df68abad6938d5bca2d1c1c5d12feca649",
    "lemma-2.1ii/jsonl": "ecf00d57f049041d949db6e7a5693913ac5bb6ad88e90352881928c48de4e7a0",
    "lemma-2.2i/human": "8ada5e625c80354286b66e4c04fa93e864942322d814c9d1a309b4ae76804470",
    "lemma-2.2i/json": "2966bd22cf1a07ea7a51116bae85ed687c3561893a82905f3c3cf2613e233b7e",
    "lemma-2.2i/csv": "481850f5b37d35e3d247e7eda0599ce6da66ff01c9ca6ad048886d44fb2aaa8e",
    "lemma-2.2i/jsonl": "2634a82f13690649943bba0cec01c4473de17194b3b4727350dba3f7c906f305",
    "lemma-2.2ii/human": "6334a2269c3c7da7ce1c8eef99cae223b0a73809855b31ed72df4245269a34cd",
    "lemma-2.2ii/json": "af7352509a8a17cdfea958ca0bec8a5ad9a708a93b444ba501add91254a3cde4",
    "lemma-2.2ii/csv": "311aceca974d86d8cf5a0d7c788bbbfbea3c308ff8ed7f4bb9c5592907cdd8f1",
    "lemma-2.2ii/jsonl": "ac5720ca7d8112659be98747a78ba5e86b482a064db65db78117a5fc408473b9",
    "lemma-struct/human": "f55218985dc09138ffd26347a4b0a247bd3e538a6b0383c977e46cf45b7911a2",
    "lemma-struct/json": "066db0b10dc3f893c88e9d110be128538798502b1ad8140ebbbbff8be8b965a8",
    "lemma-struct/csv": "8aab4bcc1f44ef67cff68bb623bcfb2b116f6a7975da4a0663e6bdf498257c56",
    "lemma-struct/jsonl": "152548dc61957b65b42504de235afd17a100c2e6e8bde9bd4f18f868a014a84b",
    "lemma-2.1i-planted/human": "7cbda147d76f668b60bcfa0c387e488a2a9cbee33bd6771b9254db99fbda3170",
    "lemma-2.1i-planted/json": "791f174f74805cbed4717bb9dea0c3f0e22e0ebfd0fcf3408c3b849e1f856af4",
    "lemma-2.1i-planted/csv": "3fd9b57831710ca7871326bbfafddf5184cecbabe0cb1ed20a01b674c81eba9d",
    "lemma-2.1i-planted/jsonl": "485a9c61605c9619527be0786b733f03616c669a00fedbc39d9ebbb0bc3d8784",
    "catalan/human": "9912a2b9c59e3594efe357dec4857b4677eca98fd00a6eb987ff84412d2644b7",
    "catalan/json": "862eb8b10778fbec276cc18fcb1d4d435039f9c34f882f25afa091bd1b3f37c7",
    "catalan/csv": "3489b533c74bf9714c6b0422102ade8cca098fc7c8fb00cf60e6ad40095e5fd2",
    "catalan/jsonl": "862eb8b10778fbec276cc18fcb1d4d435039f9c34f882f25afa091bd1b3f37c7",
    "catalan-not-coprime/human": "b2da29bbf96e919e8b2c94361e051ea591d513078d2aa67a385871027c7419e4",
    "catalan-not-coprime/json": "b2da29bbf96e919e8b2c94361e051ea591d513078d2aa67a385871027c7419e4",
    "catalan-not-coprime/csv": "b2da29bbf96e919e8b2c94361e051ea591d513078d2aa67a385871027c7419e4",
    "catalan-not-coprime/jsonl": "b2da29bbf96e919e8b2c94361e051ea591d513078d2aa67a385871027c7419e4",
    "gapfree-no/human": "b5cc6e85714dabdc34a583be8695aa0661ca40d38f1a4b2569ecc82d9509716e",
    "gapfree-no/json": "1450e8eaa57ab618e334bd9b92501c56a569176d86383f65158c744fa800dc5b",
    "gapfree-no/csv": "c288fb7721b1764f3889a805d000a11c379f930277e94df1d75982644b2182ec",
    "gapfree-no/jsonl": "1450e8eaa57ab618e334bd9b92501c56a569176d86383f65158c744fa800dc5b",
    "gapfree-yes/human": "8443c242c663a40e7e4658a68761556223904ee014011aad2c942ea1ea8b17f1",
    "gapfree-yes/json": "94b6a8fa4312ab1026cf147487f24c2e58ba43a9689e621bb0f428b5746188e9",
    "gapfree-yes/csv": "e04207f190c2b196bb27034c0efed8d365cc41f199aea77c89299943495db374",
    "gapfree-yes/jsonl": "94b6a8fa4312ab1026cf147487f24c2e58ba43a9689e621bb0f428b5746188e9",
}


@pytest.mark.parametrize("key", GOLDEN)
def test_cli_output_bytes_are_pinned(key, plant_lemma21_failures, capsys):
    name, fmt = key.split("/")
    if name.endswith("planted"):
        plant_lemma21_failures(LEMMA21_PLANTED)
    outcome = run(capsys, *GOLDEN_CASES[name], "--format", fmt)
    assert sha256(json.dumps(outcome).encode()).hexdigest() == GOLDEN[key], outcome


def test_orders_past_the_factorize_ceiling_exit_2():
    huge = "100000000000000000039"
    for argv in (["spectrum", "--group", f"C{huge}"], ["check", "--g", f"C{huge}", "--h", "C2"],
                 ["enumerate", "--order", huge], ["gapfree", "--n", huge]):
        result = subprocess.run([sys.executable, "-m", "zsr.cli", *argv], capture_output=True,
                                text=True, env=child_env(), timeout=30)
        assert result.returncode == 2, argv
        assert result.stdout == ""
        assert result.stderr == f"error: factorize is limited to n <= 1000000000000, got n = {huge}\n"
    result = subprocess.run([sys.executable, "-m", "zsr.cli", "gapfree", "--n", "999999999989"],
                            capture_output=True, text=True, env=child_env(), timeout=30)
    assert result.returncode == 0
    assert result.stdout == "999999999989 has no consecutive divisors above 1\n"


def test_spectra_past_the_factorize_ceiling_name_the_group(capsys):
    # D2000000000000000 parses without factorizing; its spectrum is refused
    # up front, by the group's notation and order, not by half its order.
    for argv in (["spectrum", "--group", "D2000000000000000"],
                 ["count", "--group", "D2000000000000000", "--length", "3"],
                 ["check", "--g", "D2000000000000000", "--h", "C2"]):
        assert run(capsys, *argv) == (2, "", "error: order spectra are limited to order <= "
                                      "1000000000000, got D2000000000000000 of order "
                                      "2000000000000000\n"), argv


@pytest.mark.parametrize("argv", [["scan-conjecture", "--max-order", "4"],
                                  ["scan-conjecture", "--max-order", "4", "--format", "jsonl"],
                                  ["lemma", "--id", "2.1i", "--max", "10"]])
def test_unusable_out_path_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "DIR" / "kept.txt").write_text("kept\n")
    for out, reason in (("DIR", "Is a directory"), ("missing/dir/x", "No such file or directory"),
                        ("", "No such file or directory")):
        assert main([*argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot open {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR"]
    assert [p.name for p in (tmp_path / "DIR").iterdir()] == ["kept.txt"]
    assert (tmp_path / "DIR" / "kept.txt").read_text() == "kept\n"


def test_lemma_refuses_an_unusable_out_before_the_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "kept.csv").write_text("kept\n")
    # A bound the grid refuses creates no report and leaves an old one alone.
    for lemma_id, ceiling in lemmas.GRID_CEILINGS.items():
        for out in ("report.csv", "kept.csv"):
            assert main(["lemma", "--id", lemma_id, "--max", str(ceiling + 1), "--out", out]) == 2
            assert capsys.readouterr().err.startswith(f"error: grid {lemma_id} is limited")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR", "kept.csv"]
    assert (tmp_path / "kept.csv").read_text() == "kept\n"

    def no_grid(*args):
        raise AssertionError("the grid ran before its report path was refused")

    for name in ("lemma21_grid", "lemma22_grid", "structure_grid"):
        monkeypatch.setattr(lemmas, name, no_grid)
    for lemma_id in lemmas.GRID_CEILINGS:
        for out, reason in (("DIR", "Is a directory"), ("missing/x.csv", "No such file or directory")):
            assert main(["lemma", "--id", lemma_id, "--max", "1000", "--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot open {out}: {reason}\n"


def run_limited(*argv, stdout=subprocess.PIPE):
    """Run zsr in a child with a 400 MB address-space limit and a timeout.

    A regression that reads an endless stream, or waits on a FIFO, then fails
    the test instead of exhausting the machine that runs it.
    """
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    return subprocess.run([sys.executable, "-m", "zsr.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60,
                          preexec_fn=limit)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_non_regular_scan_log_exits_2(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for out in ("/dev/full", str(fifo)):
        result = run_limited("scan-conjecture", "--max-order", "4", "--out", out)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == f"error: cannot open {out}: not a regular file\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_errors_exit_2_with_the_path_named():
    full = os.strerror(errno.ENOSPC)
    result = run_limited("lemma", "--id", "2.1i", "--max", "10", "--out", "/dev/full")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: cannot write /dev/full: {full}\n"
    with open("/dev/full", "w") as stdout:
        for argv in (["count", "--group", "C6", "--length", "3"],
                     ["scan-conjecture", "--max-order", "40", "--format", "jsonl"], *HELP_CALLS):
            result = run_limited(*argv, stdout=stdout)
            assert result.returncode == 2, argv
            assert result.stderr == f"error: cannot write standard output: {full}\n", argv


def test_lemma_report_to_a_fifo_needs_a_reader(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = ("lemma", "--id", "2.1i", "--max", "10", "--out", str(fifo))
    # No reader: the report fails to open at once instead of waiting for one.
    result = run_limited(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: cannot open {fifo}: {os.strerror(errno.ENXIO)}\n"
    # A reader that is already waiting gets the report.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = run_limited(*argv)
        assert result.returncode == 0, result.stderr
        assert os.read(reader, 1 << 16) == b"lemma_id,m,n,a,b,p,q,lhs,rhs\n"
    finally:
        os.close(reader)


def test_scans_past_their_ceiling_exit_2_quickly(tmp_path, monkeypatch, capsys):
    from zsr.reciprocity import SCAN_MAX_ORDER

    monkeypatch.chdir(tmp_path)
    kept = b'{"g":"C1","h":"C1"\n'
    (tmp_path / "kept.jsonl").write_bytes(kept)
    bound = str(SCAN_MAX_ORDER + 1)
    for argv in (["verify-theorem", "--max-order", bound, "--out", "kept.jsonl"],
                 ["verify-theorem", "--max-order", bound, "--out", "new.jsonl"],
                 ["scan-conjecture", "--max-order", bound, "--out", "new.jsonl"],
                 ["scan-conjecture", "--max-order", bound, "--format", "csv"],
                 ["scan-conjecture", "--max-order", bound, "--families", "dicyclic"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: scans are limited to max_order <= {SCAN_MAX_ORDER}, "
                                f"got max_order = {bound}\n")
    # A refused scan leaves an existing log as it was and creates none.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]
    assert (tmp_path / "kept.jsonl").read_bytes() == kept


def test_record_scans_past_their_pair_budget_exit_2(tmp_path, monkeypatch, capsys):
    from zsr.reciprocity import RECORD_SCAN_MAX_PAIRS

    monkeypatch.chdir(tmp_path)
    kept = b'{"g":"C1","h":"C1"\n'
    (tmp_path / "kept.jsonl").write_bytes(kept)
    # All families at 384 are 2,399,145 pairs, one record each.
    for argv in (["--format", "jsonl"], ["--format", "csv"], ["--out", "kept.jsonl"],
                 ["--out", "new.jsonl"]):
        assert main(["scan-conjecture", "--max-order", "384", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: record scans are limited to {RECORD_SCAN_MAX_PAIRS} pairs, "
                                "got 2399145 pairs at max_order = 384\n")
    # A refused scan leaves an existing log as it was and creates none.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]
    assert (tmp_path / "kept.jsonl").read_bytes() == kept
    # A summary scan of the same pairs writes no records and still runs.
    code, out, _ = run(capsys, "scan-conjecture", "--max-order", "384", "--format", "json")
    assert code == 0 and json.loads(out)["pairs_checked"] == 2399145


def test_formula_routes_past_their_budget_exit_2_quickly(capsys):
    from zsr.counting import FORMULA_MAX_TOTAL

    count_refusal = (f"error: count_formula is limited to order + length <= {FORMULA_MAX_TOTAL}, "
                     "got order 1000000 + length 1000000\n")
    for argv, message in (
            (["count", "--group", "C1000000", "--length", "1000000"], count_refusal),
            (["check", "--g", "C1000000", "--h", "C1000000"], count_refusal),
            (["catalan", "--n", "499999", "--m", "500000"],
             f"error: rational_catalan is limited to n + m <= {FORMULA_MAX_TOTAL}, "
             "got n = 499999, m = 500000\n")):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message
    # Sizes up to the largest order a point query takes, 2000, still run.
    for argv in (["count", "--group", "C2000", "--length", "2000"],
                 ["check", "--g", "C2000", "--h", "D2000"],
                 ["catalan", "--n", "1999", "--m", "2000"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and out


def test_grids_past_their_ceilings_exit_2_quickly(capsys):
    ceilings = {"2.1i": lemmas.LEMMA21_GRID_MAX, "2.1ii": lemmas.LEMMA21_GRID_MAX,
                "2.2i": lemmas.LEMMA22_GRID_MAX, "2.2ii": lemmas.LEMMA22_GRID_MAX,
                "struct": lemmas.STRUCTURE_GRID_MAX}
    assert (ceilings["2.1i"], ceilings["2.2i"], ceilings["struct"]) >= (1000, 360, 128)
    for lemma_id, ceiling in ceilings.items():
        start = time.perf_counter()
        assert main(["lemma", "--id", lemma_id, "--max", str(ceiling + 1)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: grid {lemma_id} is limited to max <= {ceiling}, "
                                f"got max = {ceiling + 1}\n")


def decimal_value(text: str) -> int:
    """The integer a decimal string spells, read in chunks below the interpreter's digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_counts_past_the_digit_limit_print_in_full():
    def value_of(*argv):
        result = subprocess.run([sys.executable, "-m", "zsr.cli", *argv, "--format", "json"],
                                capture_output=True, text=True, env=child_env(), timeout=60)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)["value"]

    catalan = value_of("catalan", "--n", "8000", "--m", "8001")
    assert decimal_value(catalan) == comb(16001, 8000) // 16001
    count = value_of("count", "--group", "C8000", "--length", "8000")
    assert len(count) > 4300
    assert decimal_value(count) == count_formula(order_spectrum(AbelianGroup((8000,))), 8000)


def loaded_after(calls, watched):
    """Which of watched a fresh zsr.cli process has loaded at import and after each call.

    It runs without site, so that no .pth file can load a watched module first.
    """
    probe = "\n".join([
        "import sys",
        "import zsr.cli",
        f"watched = {watched!r}",
        "def loaded(): print('loaded', [m for m in watched if m in sys.modules], file=sys.stderr)",
        "loaded()",
        f"for argv in {calls!r}:",
        "    try:",
        "        zsr.cli.main(argv)",
        "    except SystemExit:",
        "        pass",
        "    loaded()",
    ])
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    return [ast.literal_eval(line[len("loaded "):]) for line in result.stderr.splitlines()
            if line.startswith("loaded [")]


def test_one_shot_commands_import_only_what_they_run():
    # A well-formed call parses without argparse (and the locale module that
    # its messages load), and a human-format call prints without json.
    watched = ["dataclasses", "inspect", "fractions", "csv", "zsr.lemmas", "zsr.reciprocity",
               "argparse", "locale", "json"]
    calls = [["count", "--group", "C2xC6", "--length", "4"], ["lemma", "--id", "2.1i", "--max", "20"],
             *(argv for argv in EVERY_SUBCOMMAND if argv[0] not in ("count", "lemma"))]
    at_import, after_count, after_lemma, *after_rest = loaded_after(calls, watched)
    assert at_import == [] and after_count == []
    assert "zsr.lemmas" in after_lemma and "zsr.reciprocity" not in after_lemma
    assert len(after_rest) == 7 and not {"argparse", "locale"} & set(after_rest[-1])
    # Help, a usage error and an abbreviated flag go to the argparse tree.
    for call in (["--help"], ["count", "--help"], ["count", "--group", "C4"],
                 ["scan-conjecture", "--max", "8"]):
        _, after = loaded_after([call], ["argparse", "locale"])
        assert after == ["argparse", "locale"], call


def test_clean_grids_do_not_import_fractions():
    # Without site, as above.  A grid builds its Fractions only for a failure,
    # so a clean grid never loads fractions (or decimal, which it imports).
    probe = "\n".join([
        "import sys",
        "import zsr.cli",
        "from zsr import lemmas",
        "def loaded(): print([m for m in ('fractions', 'decimal') if m in sys.modules], file=sys.stderr)",
        "zsr.cli.main(['lemma', '--id', '2.1i', '--max', '20'])",
        "zsr.cli.main(['lemma', '--id', 'struct', '--max', '20'])",
        "loaded()",
        # The grid reads block_3 = block_2 for the row (12, 18), as a
        # logarithm and as an integer, so (2, 3) fails there; the mirror row
        # (18, 12) keeps its true blocks.
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "from doctoring import doctored_grid_parts",
        "for name, part in doctored_grid_parts({(12, 18, 3): lemmas._block(12, 18, 2)}):",
        "    setattr(lemmas, name, part)",
        "zsr.cli.main(['lemma', '--id', '2.1i', '--max', '18', '--format', 'csv'])",
        "loaded()",
    ])
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    # The CSV run prints its summary on stderr too.
    clean, planted = [ast.literal_eval(line) for line in result.stderr.splitlines()
                      if line.startswith("[")]
    assert clean == [] and planted == ["fractions", "decimal"]
    assert result.stdout.endswith("lemma_id,m,n,a,b,p,q,lhs,rhs\nL21i,12,18,2,3,,,143/6,500/27\n")


def test_refused_csv_scan_prints_nothing(capsys):
    code, out, err = run(capsys, "scan-conjecture", "--max-order", "20", "--families", "abelien",
                         "--format", "csv")
    assert code == 2 and out == ""
    assert err == "error: unknown families ['abelien']; valid names: abelian, dihedral, dicyclic, products\n"
    code, out, _ = run(capsys, "scan-conjecture", "--max-order", "4", "--families", "dicyclic",
                       "--format", "csv")
    assert code == 0 and out == ",".join(RECORD_FIELDS) + "\n"


def test_usage_errors_raise_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "C4"])  # missing --length
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "C4", "--length", "2", "--format", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--max-order", "0"])
    assert exc.value.code == 2
    # Numbers are ASCII decimal digits, with a leading - for --length only;
    # int() alone would read all but the last two of these as numbers.
    for argv in (["scan-conjecture", "--max-order", "١٢"], ["scan-conjecture", "--max-order", "1_2"],
                 ["scan-conjecture", "--max-order", "+12"], ["scan-conjecture", "--max-order", " 12 "],
                 ["scan-conjecture", "--max-order=-12"], ["catalan", "--n", "５", "--m", "3"],
                 ["lemma", "--id", "2.1i", "--max", "+20"], ["count", "--group", "C4", "--length", "٣"],
                 ["count", "--group", "C4", "--length", "+3"], ["count", "--group", "C4", "--length=3 "],
                 ["count", "--group", "C4", "--length=-+3"], ["count", "--group", "C4", "--length="]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "expected" in capsys.readouterr().err, argv
    # A negative length still reaches the counting routes and their message.
    code, out, err = run(capsys, "count", "--group", "C4", "--length", "-1")
    assert code == 2 and out == "" and err == "error: multiset length must be nonnegative, got -1\n"
    # Past the interpreter's limit on the digits of int(str), which main lifts
    # only after parsing, so this runs in a fresh process.
    result = subprocess.run([sys.executable, "-m", "zsr.cli", "count", "--group", "C4",
                             "--length", "1" * 5000], capture_output=True, text=True,
                            env=child_env(), timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.endswith("argument --length: expected fewer digits, got 5000\n")


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def child_env():
    """The environment for a child Python that must import the zsr this process imported.

    Its source directory goes ahead of any inherited PYTHONPATH, so the child neither
    depends on the caller having exported one nor picks up a stale installed copy.
    """
    src = str(Path(zsr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def assert_counts_c2xc2(*command):
    """Run a zsr command line in a child process and check its C2xC2 count."""
    result = subprocess.run([*command, "count", "--group", "C2xC2", "--length", "2",
                             "--format", "json"],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["value"] == "4"


def test_console_script_is_installed():
    entry = load_pyproject()["project"]["scripts"].get("zsr")
    assert entry == "zsr.cli:main"
    assert pkgutil.resolve_name(entry) is main
    # The body of the wrapper that installing the package writes for the entry point.
    module, _, attr = entry.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    assert_counts_c2xc2(sys.executable, "-c", wrapper)
    assert_counts_c2xc2(sys.executable, "-m", "zsr.cli")


@pytest.mark.skipif(shutil.which("zsr") is None, reason="zsr console script not installed")
def test_installed_zsr_on_path():
    assert_counts_c2xc2(shutil.which("zsr"))


def test_package_exports_resolve():
    for name in zsr.__all__:
        getattr(zsr, name)
    assert not {"Abelian", "ExactRatio", "mobius"} & set(zsr.__all__)


def test_closed_stdout_exits_141_without_traceback():
    command = [sys.executable, "-m", "zsr.cli", "scan-conjecture", "--max-order", "40", "--format", "jsonl"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert json.loads(first)["g"] == "C1"
    assert "Traceback" not in err


def run_closed(fd, *argv):
    """Run zsr in a child whose descriptor fd (1 or 2) is closed before Python starts."""
    return subprocess.run([sys.executable, "-m", "zsr.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60,
                          preexec_fn=lambda: os.close(fd))


# One call of each subcommand, every one of which writes to stdout.
EVERY_SUBCOMMAND = [
    ["count", "--group", "C6", "--length", "3"],
    ["spectrum", "--group", "D8", "--format", "json"],
    ["enumerate", "--order", "8", "--format", "csv"],
    ["check", "--g", "C4", "--h", "C2xC2"],
    ["verify-theorem", "--max-order", "8", "--format", "jsonl"],
    ["scan-conjecture", "--max-order", "8", "--format", "csv"],
    ["lemma", "--id", "2.2i", "--max", "30", "--format", "csv"],
    ["catalan", "--n", "3", "--m", "5"],
    ["gapfree", "--n", "12", "--format", "jsonl"],
]


# zsr's help and a subcommand's help, both written to stdout.
HELP_CALLS = [["--help"], ["count", "--help"]]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_stdout_closed_at_start_exits_2(argv):
    # sys.stdout is None: the first write to it fails, as a write to a closed
    # descriptor does, and the command exits 2 with no traceback.
    result = run_closed(1, *argv)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert result.stderr == f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("argv", HELP_CALLS, ids=" ".join)
def test_help_to_a_closed_stdout_exits_2(argv):
    # argparse alone would print the help on stderr and exit 0.
    result = run_closed(1, *argv)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert result.stderr == f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"


def test_stdout_closed_at_start_keeps_the_scan_log_whole(tmp_path):
    # The log opens on descriptor 1, the lowest free one.  It is written to
    # its end and closed before the summary fails to print, and nothing is
    # pointed at devnull over it.
    logs = [tmp_path / "closed.log", tmp_path / "open.log"]
    argv = ["scan-conjecture", "--max-order", "12", "--format", "json", "--out"]
    result = run_closed(1, *argv, str(logs[0]))
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"
    assert run_limited(*argv, str(logs[1])).returncode == 0
    assert logs[0].read_bytes() == logs[1].read_bytes() and logs[0].stat().st_size > 0
    # A rerun checks the whole log and appends nothing.
    assert run_closed(1, *argv, str(logs[0])).returncode == 2
    assert logs[0].read_bytes() == logs[1].read_bytes()


def test_stderr_closed_at_start_keeps_exit_codes_and_stdout(tmp_path):
    # sys.stderr is None: messages are dropped, never printed to stdout, and
    # the exit codes stay.
    refused = run_closed(2, "count", "--group", "Z9", "--length", "3")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert run_closed(2, "count", "--group", "C6", "--length", "3").stdout == "|M(C6, 3)| = 10  [formula]\n"
    for argv in EVERY_SUBCOMMAND + HELP_CALLS:
        expected = run_limited(*argv)
        result = run_closed(2, *argv)
        assert (result.returncode, result.stdout) == (expected.returncode, expected.stdout), argv
    # Both closed: the failed write to stdout still exits 2.
    both = subprocess.run([sys.executable, "-m", "zsr.cli", "count", "--group", "C6", "--length", "3"],
                          env=child_env(), timeout=60, preexec_fn=lambda: (os.close(1), os.close(2)))
    assert both.returncode == 2
    # A stderr that cannot be written (a file open only for reading) drops
    # the message too.
    unwritable = tmp_path / "unwritable"
    unwritable.write_text("")
    with unwritable.open() as stderr:
        result = subprocess.run([sys.executable, "-m", "zsr.cli", "count", "--group", "Z9", "--length", "3"],
                                stdout=subprocess.PIPE, stderr=stderr, text=True, env=child_env(), timeout=60)
        assert (result.returncode, result.stdout) == (2, "")
        result = subprocess.run([sys.executable, "-m", "zsr.cli", "scan-conjecture", "--max-order", "8",
                                 "--format", "jsonl"],
                                stdout=subprocess.PIPE, stderr=stderr, text=True, env=child_env(), timeout=60)
        assert result.returncode == 0 and result.stdout == run_limited(
            "scan-conjecture", "--max-order", "8", "--format", "jsonl").stdout
    assert unwritable.read_text() == ""


# A child that plants a RuntimeError in one command.
CRASH = """
import sys
from zsr import cli


def crash(n, m):
    raise RuntimeError("planted")


cli.rational_catalan = crash
sys.exit(cli.main(["catalan", "--n", "3", "--m", "5"]))
"""


def test_a_crash_exits_3_with_its_traceback():
    # An exception other than ValueError and OSError is a crash, never a
    # finding: it exits 3, not 1, and a closed stderr keeps the code.
    command = [sys.executable, "-c", CRASH]
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), timeout=60)
    assert (result.returncode, result.stdout) == (3, ""), result.stderr
    assert result.stderr.startswith("Traceback (most recent call last):\n")
    assert result.stderr.endswith("RuntimeError: planted\n")
    closed = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), timeout=60, preexec_fn=lambda: os.close(2))
    assert (closed.returncode, closed.stdout, closed.stderr) == (3, "", "")


# The hand-written argparse tree that zsr.cli's option table replaced, kept
# verbatim with its parser class and converters: the reference for the help,
# the usage errors and the namespaces of both of zsr's parsers.
def reference_parser() -> argparse.ArgumentParser:
    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose help fails as any write to stdout does.

        argparse's own print_help falls back to stderr when stdout is closed and
        drops a failed write.
        """

        def print_help(self, file=None) -> None:
            file = file or sys.stdout
            file.write(self.format_help())
            file.flush()

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


# zsr's help, each subcommand's help, and usage errors.
USAGE_CALLS = [
    ["--help"],
    *([argv[0], "--help"] for argv in EVERY_SUBCOMMAND),
    [],
    ["frobnicate"],
    ["count", "--group", "C4"],
    ["count", "--group", "C4", "--length", "2", "--format", "xml"],
    ["verify-theorem", "--max-order", "0"],
    ["scan-conjecture", "--max-order=-12"],
    ["count", "--group", "C4", "--length=-+3"],
]


def outcome(parse, argv, capsys):
    """The exit code of parse(argv), None when it returns, with its stdout and stderr."""
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_CALLS, ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_help_and_usage_errors_match_the_reference_tree(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(reference_parser().parse_args, argv, capsys)
    assert expected[0] in (0, 2)
    assert outcome(main, argv, capsys) == expected


def test_fast_parse_reads_exact_flags_only():
    reference = reference_parser()
    for argv in [*EVERY_SUBCOMMAND, ["check", "--h", "D6", "--g", "C2"],
                 ["spectrum", "--brute-force", "--group", "C6"]]:
        assert vars(_fast_parse(argv)) == vars(reference.parse_args(argv)), argv
    # argparse reads --max as an abbreviation of --max-order here.
    argv = ["scan-conjecture", "--max", "12"]
    assert _fast_parse(argv) is None and reference.parse_args(argv).max_order == 12


def test_fast_parse_agrees_with_the_reference_tree():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    reference = reference_parser()
    [subparsers] = [a for a in reference._actions if isinstance(a, argparse._SubParsersAction)]
    odd = ["", "-", "--", "-h", "--help", "-1", "-x", "--bogus", "é", "Ｃ4", "coun", "frobnicate"]
    bad = ["0", "-3", "+3", "٣", "1_2", " 7", "9" * 5000, "xml"]
    anything = st.sampled_from(odd + bad) | st.text(max_size=3)

    def given(action, clean=False):
        """One use of action: one of its flags, then a value unless it is a switch.

        A clean value is one of its choices, a positive integer or a group
        notation; any other value may be one too.
        """
        flag = st.sampled_from(action.option_strings)
        if action.nargs == 0:
            return flag.map(lambda f: [f])
        pool = list(action.choices or []) or (["1", "12", "30"] if action.type else ["C4", "D6", "Q8"])
        return st.tuples(flag, st.sampled_from(pool) if clean else st.sampled_from(pool) | anything).map(list)

    def noise(options):
        """Tokens that a well-formed argv does not hold there, or a repeat."""
        flag = st.sampled_from([f for a in options for f in a.option_strings])
        return st.one_of(
            st.sampled_from(options).flatmap(given),
            flag.map(lambda f: [f]),
            st.tuples(flag, anything).map(lambda t: ["=".join(t)]),
            st.tuples(flag, st.integers(2, 8)).map(lambda t: [t[0][:t[1]]]),
            anything.map(lambda t: [t]),
        )

    accepted = []

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        # A subcommand's options, each at most once and mostly with a clean
        # value (a required one is left out now and then), with up to two
        # edits: tokens inserted, one token replaced, or one dropped.
        name = data.draw(st.sampled_from(list(subparsers.choices)))
        options = [a for a in subparsers.choices[name]._actions if a.option_strings]
        chunks = [data.draw(given(a, clean=data.draw(st.integers(0, 3)) > 0)) for a in options
                  if a.dest != "help" and data.draw(st.integers(0, 9)) >= (1 if a.required else 5)]
        argv = [name, *(token for chunk in data.draw(st.permutations(chunks)) for token in chunk)]
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(argv) - 1)) if argv else 0
            edit = data.draw(st.sampled_from(["insert", "replace", "drop"]))
            if edit == "insert":
                argv[at:at] = data.draw(noise(options))
            elif argv:
                argv[at:at + 1] = [data.draw(anything)] if edit == "replace" else []
        fast = _fast_parse(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = vars(reference.parse_args(argv))
        except SystemExit:
            assert fast is None, argv
        else:
            assert fast is None or vars(fast) == expected, argv
            if fast is not None:
                accepted.append(argv)

    check()
    # Well-formed argv do come up, and the fast path takes them.
    assert len(accepted) > 100
