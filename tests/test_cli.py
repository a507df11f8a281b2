"""End-to-end tests for the zsr command line."""

import json
import os
import pkgutil
import shutil
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import zsr
from zsr.cli import main
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
    ]
    for argv, message in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err == message
        assert captured.out == ""


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


def test_refused_csv_scan_prints_nothing(capsys):
    code, out, err = run(capsys, "scan-conjecture", "--max-order", "20", "--families", "abelien",
                         "--format", "csv")
    assert code == 2 and out == ""
    assert err == "error: unknown families ['abelien']; valid names: abelian, dihedral, dicyclic, products\n"
    code, out, _ = run(capsys, "scan-conjecture", "--max-order", "4", "--families", "dicyclic",
                       "--format", "csv")
    assert code == 0 and out == ",".join(RECORD_FIELDS) + "\n"


def test_usage_errors_raise_system_exit():
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
