"""Checks on `tests/ab_units.py`, the interleaved A/B timer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import ab_units

REPO = Path(__file__).resolve().parents[1]


def test_summary_reports_medians_ratio_wins_and_cpu():
    cpu = {"parent": [[170.0, 0.0], [180.0, 0.5], [174.0, 0.0]],
           "change": [[130.0, 100.0], [126.0, 112.0], [139.0, 91.0]]}
    lines = ab_units.summary([100.0, 200.0, 100.0], [110.0, 180.0, 120.0], cpu)
    assert lines == ["parent median 100 seq/s",
                     "change median 120 seq/s",
                     "median ratio  1.1000 (change / parent), quartiles 1.0000 to 1.1500",
                     "change faster in 2 of 3 rounds",
                     "parent median cpu 174.0 ms a unit: 174.0 in the process, 0.0 in children",
                     "change median cpu 230.0 ms a unit: 130.0 in the process, 100.0 in children"]


def test_cpu_ms_counts_a_reaped_child():
    """A child's CPU time reaches the second figure once it is reaped."""
    before = ab_units.cpu_ms()
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    after = ab_units.cpu_ms()
    assert after[1] - before[1] > 0.0 and after[0] >= before[0]


def test_one_round_reads_its_ratio_as_both_quartiles():
    assert ab_units.summary([100.0], [90.0], {})[2] == (
        "median ratio  0.9000 (change / parent), quartiles 0.9000 to 0.9000")


def ab(parent, change, rounds):
    return subprocess.run([sys.executable, str(REPO / "tests" / "ab_units.py"), str(parent),
                           str(change), "--workload", "train_smoke", "--rounds", str(rounds)],
                          capture_output=True, text=True, timeout=300)


def test_runs_both_checkouts_and_exits_1_on_a_wrong_fingerprint(tmp_path):
    copy = tmp_path / "copy"
    for part in ("src", "bench", "data"):
        shutil.copytree(REPO / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    done = ab(REPO, copy, 2)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 1", "round 2"]
    assert lines[-4].startswith("median ratio  ") and " quartiles " in lines[-4]
    assert lines[-3].startswith("change faster in ") and lines[-3].endswith(" of 2 rounds")
    for side, line in zip(("parent", "change"), lines[-2:]):
        assert line.startswith(f"{side} median cpu ") and line.endswith(" in children")
        _, here, children = (float(word) for word in line.split() if word[0].isdigit())
        assert here > 0.0 and children > 0.0  # every unit's command forks the worker

    golden = copy / "bench" / "golden.json"
    table = json.loads(golden.read_text())
    table["train_smoke"]["0"] = "0" * 64
    golden.write_text(json.dumps(table))
    done = ab(REPO, copy, 2)
    assert done.returncode == 1
    assert done.stderr.endswith("error: a change unit's fingerprint does not match golden.json\n")
    assert "round" not in done.stdout
