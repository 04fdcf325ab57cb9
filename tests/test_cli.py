"""Exit codes, JSON shape, and determinism of the command-line front end."""

import json
import subprocess
import sys

import pytest

from chevperm import permmod
from chevperm.cli import main
from chevperm.report import SuiteReport


def run_to_file(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["run", "--out", str(out)] + extra)
    return rc, out


def test_run_all_on_smallest_config(tmp_path):
    rc, out = run_to_file(tmp_path, "a1.json",
                          ["--type", "A1", "--q", "2", "--a", "1", "--char", "2", "--suites", "all"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "1"
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["failed"] == 0
    # the downward-transfer suite has no admissible pairs in rank one and
    # must skip itself rather than fail
    assert payload["suites"]["induction"]["skipped"] is True
    assert payload["suites"]["steinberg"]["ok"] is True
    assert "seconds" not in payload["suites"]["steinberg"]


def test_explicit_inapplicable_suite_is_refused(tmp_path, capsys):
    rc = main(["run", "--type", "A1", "--q", "2", "--char", "7", "--suites", "socle"])
    assert rc == 2
    assert "defining characteristic" in capsys.readouterr().err


def test_usage_errors(tmp_path):
    assert main(["run", "--type", "A1", "--q", "6"]) == 2          # not a prime power
    assert main(["run", "--type", "A1", "--q", "2", "--b", "3", "--a", "2"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--char", "9"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--suites", "nope"]) == 2
    assert main(["inspect", "--type", "A1", "--q", "2", "what:J=1"]) == 2
    assert main(["inspect", "--type", "A1", "--q", "2", "eta"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--seed", "-1"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--samples", "0"]) == 2
    assert main(["inspect", "--type", "A1", "--q", "2", "--a", "0", "dims"]) == 2


def test_field_order_cap(tmp_path, capsys):
    # GF(2^9) is over the 256 cap: the ext suites skip with a fixed reason,
    # and inspect refuses a base field that large
    rc, out = run_to_file(tmp_path, "b9.json", ["--type", "A1", "--q", "2", "--b", "9", "--suites", "all"])
    assert rc == 0
    suites = json.loads(out.read_text())["suites"]
    reason = "field order 512 exceeds the matrix-arithmetic bound 256"
    skipped = {name: s["skip_reason"] for name, s in suites.items() if s.get("skipped")}
    assert skipped == {"level-steps": reason, "separation": reason, "induction": reason}
    assert main(["inspect", "--type", "A1", "--q", "2", "--a", "9", "dims"]) == 2
    assert reason in capsys.readouterr().err


def test_failing_suite_gives_exit_one(tmp_path, monkeypatch):
    def always_fails(runner, seed):
        rep = SuiteReport("composition", "forced failure for the exit-code path")
        rep.check(False, what="forced")
        return rep

    spec = permmod.SUITES["composition"]
    monkeypatch.setitem(permmod.SUITES, "composition",
                        permmod.SuiteSpec(always_fails, spec.scope, spec.defining_only, spec.claim))
    rc, out = run_to_file(tmp_path, "fail.json", ["--type", "A1", "--q", "2", "--suites", "composition"])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["summary"]["ok"] is False
    assert payload["summary"]["failing"] == ["composition"]


def test_vacuous_run_gives_exit_one(tmp_path, monkeypatch):
    def checks_nothing(runner, seed):
        return SuiteReport("composition", "ran but verified nothing")

    spec = permmod.SUITES["composition"]
    monkeypatch.setitem(permmod.SUITES, "composition",
                        permmod.SuiteSpec(checks_nothing, spec.scope, spec.defining_only, spec.claim))
    rc, _ = run_to_file(tmp_path, "vac.json", ["--type", "A1", "--q", "2", "--suites", "composition"])
    assert rc == 1


def test_json_is_byte_identical_across_runs(tmp_path):
    extra = ["--type", "A1", "--q", "3", "--suites", "combinatorics,structure,composition"]
    _, first = run_to_file(tmp_path, "d1.json", extra)
    _, second = run_to_file(tmp_path, "d2.json", extra)
    assert first.read_bytes() == second.read_bytes()


def test_timings_flag_adds_seconds(tmp_path):
    rc, out = run_to_file(tmp_path, "t.json",
                          ["--type", "A1", "--q", "2", "--suites", "combinatorics", "--timings"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "seconds" in payload["suites"]["combinatorics"]


def test_json_to_stdout_without_out(capsys):
    rc = main(["run", "--type", "A1", "--q", "2", "--suites", "combinatorics"])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["summary"]["ok"] is True
    assert "overall: PASS" in captured.err


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in permmod.SUITES:
        assert name in out


def test_inspect_output(capsys):
    rc = main(["inspect", "--type", "A2", "--q", "2", "dims", "sigma", "YJ:J=1", "eta:J=-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "module dim=21" in out
    assert "piece[J=12] dim=8" in out
    assert "sigma  1->2  2->1" in out
    assert "YJ[J=1]  size=2" in out
    assert "eta[J=-]  support=1  0:1" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chevperm.cli", "run", "--type", "A1", "--q", "2",
         "--suites", "filtration"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["ok"] is True
