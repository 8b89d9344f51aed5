import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import record


def test_record_reruns_are_byte_identical(tmp_path):
    # One record in a fresh process, meanwhile two in this one: the three
    # SHA256SUMS are equal.
    proc = subprocess.Popen(
        [sys.executable, record.__file__, str(tmp_path / "c")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        first = record.record(tmp_path / "a")
        second = record.record(tmp_path / "b")
    finally:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert first == second == (tmp_path / "c" / "SHA256SUMS").read_text()
    assert len(first.splitlines()) == (4 + 2) * 32 + 2 * 8 + 1 + 3 * 2 + 20
    assert record.diff(tmp_path / "a", tmp_path / "c") == []

    # --diff names each differing file and its first difference.
    report = tmp_path / "b" / "verify" / "s0-00.json"
    doc = json.loads(report.read_text())
    rms1 = doc["rms1"]
    doc["rms1"] = math.nextafter(rms1, math.inf)
    report.write_text(json.dumps(doc))
    field = tmp_path / "b" / "eval" / "tan.csv"
    rows = field.read_text().splitlines()
    rows[2] = rows[2].replace(",true", ",false")
    field.write_text("\n".join(rows) + "\n")
    (tmp_path / "b" / "evolve" / "boosted.json").unlink()
    assert record.diff(tmp_path / "a", tmp_path / "b") == [
        "eval/tan.csv: row 2, column valid: 'true' vs 'false'",
        f"evolve/boosted.json: only in {tmp_path / 'a'}",
        f"verify/s0-00.json: key /rms1: {rms1!r} vs {doc['rms1']!r} (1 ulp)",
    ]


def _records(tmp_path, cell):
    # Two small records that differ in one CSV cell unless cell is "true".
    for name, value in (("a", "true"), ("b", cell)):
        (tmp_path / name / "eval").mkdir(parents=True)
        (tmp_path / name / "eval" / "tan.csv").write_text(
            f"x,valid\n1,{value}\n")
        (tmp_path / name / "r.json").write_text('{"pass": true}\n')
    return [str(tmp_path / "a"), str(tmp_path / "b")]


CELL = "eval/tan.csv: row 1, column valid: 'true' vs 'false'\n"
TAN = "eval/tan.csv the pole cell moves\n"
STALE = ("{expect} may still hold a previous change's declarations: the "
         "change after one that moves the record empties it (README)\n")


@pytest.mark.parametrize("cell, declarations, code, stdout, stderr", [
    pytest.param("true", "", 0, "records match\n", "", id="match"),
    pytest.param("true", "# a comment\n\n", 0, "records match\n", "",
                 id="match-comment"),
    pytest.param("false", "", 1, CELL, "undeclared: " + CELL,
                 id="undeclared"),
    pytest.param("false", TAN, 0,
                 CELL + "each difference is declared in {expect}\n", "",
                 id="declared"),
    pytest.param("true", TAN, 1, "records match\n",
                 "declared but unchanged: eval/tan.csv "
                 "(the pole cell moves)\n" + STALE, id="stale"),
    pytest.param("false", TAN + "r.json a key moves\n", 1, CELL,
                 "declared but unchanged: r.json (a key moves)\n" + STALE,
                 id="declared-and-stale"),
    pytest.param("false", "eval/tan.csv\n", 2, CELL,
                 "{expect}:1: eval/tan.csv gives no reason\n",
                 id="no-reason"),
])
def test_diff_expect_gates_on_the_declared_changes(
        tmp_path, capsys, cell, declarations, code, stdout, stderr):
    # --expect passes when the differing files are exactly the declared
    # ones: an undeclared difference fails, and so does a stale declaration,
    # with one more line saying the file may hold a previous change's.
    expect = tmp_path / "changes.txt"
    expect.write_text(declarations)
    argv = ["--diff", *_records(tmp_path, cell), "--expect", str(expect)]
    assert record._main(argv) == code
    assert capsys.readouterr() == (stdout.format(expect=expect),
                                   stderr.format(expect=expect))


def test_committed_declarations_parse():
    # The file CI passes to --expect: every declaration gives a reason.
    record.declared(Path(record.__file__).with_name("record_changes.txt"))
