import json
import math
import subprocess
import sys

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
    assert len(first.splitlines()) == (4 + 2) * 32 + 2 * 8 + 1 + 2 * 2 + 19
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
