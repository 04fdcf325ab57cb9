"""Exit codes, JSON shape, and determinism of the command-line front end."""

import hashlib
import json
import subprocess
import sys

import pytest

from chevperm import permmod
from chevperm.chevalley import FlagIndex, matrix_group
from chevperm.cli import main
from chevperm.report import SuiteReport
from test_chevalley import bfs_numbering


def run_to_file(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["run", "--out", str(out)] + extra)
    return rc, out


def test_run_all_on_smallest_config(tmp_path):
    rc, out = run_to_file(tmp_path, "a1.json",
                          ["--type", "A1", "--q", "2", "--char", "2", "--suites", "all"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "1"
    # the module lives over GF(q): the config still echoes the level a = 1
    assert (payload["config"]["a"], payload["config"]["b"]) == (1, 2)
    assert payload["summary"]["ok"] is True
    assert payload["summary"]["failed"] == 0
    # the downward-transfer suite has no admissible pairs in rank one and
    # must skip itself rather than fail
    assert payload["suites"]["induction"]["skipped"] is True
    assert payload["suites"]["steinberg"]["ok"] is True
    assert "seconds" not in payload["suites"]["steinberg"]


def test_large_coefficient_prime_gets_a_verdict(tmp_path):
    # at l = 101 a random algebra element is almost never singular; the
    # MeatAxe needs only a good factor of a minimal polynomial
    rc, out = run_to_file(tmp_path, "l101.json",
                          ["--type", "A2", "--q", "2", "--b", "1", "--char", "101", "--suites", "all"])
    assert rc == 0
    assert json.loads(out.read_text())["summary"]["ok"] is True


def test_coefficient_primes_that_overflow_int64_are_refused(tmp_path, capsys):
    # the kernels sum int64 products of entries < l over inner dimensions up
    # to n + 1 <= budget + 1: a prime with (budget + 1)(l - 1)^2 >= 2^63 is
    # refused before any module is built, in run and inspect alike
    l = 1_000_003
    rc, out = run_to_file(tmp_path, "big.json", ["--type", "A2", "--q", "2", "--b", "1", "--char", str(l)])
    assert rc == 0 and json.loads(out.read_text())["summary"]["ok"] is True
    capsys.readouterr()
    for extra in (["--char", str(l), "--budget", "10000000"], ["--char", "2147483647"]):
        assert main(["run", "--type", "A2", "--q", "2", "--b", "1"] + extra) == 2
        assert "below 2^63" in capsys.readouterr().err
    assert main(["inspect", "--type", "A1", "--q", "2", "--char", "2147483647", "dims"]) == 2
    assert "below 2^63" in capsys.readouterr().err
    # the bound itself: the largest budget that keeps the products exact
    # passes, one more is refused
    edge = -(-2**63 // (l - 1) ** 2) - 2
    assert (edge + 1) * (l - 1) ** 2 < 2**63 <= (edge + 2) * (l - 1) ** 2
    permmod.SuiteRunner("A2", 2, char=l, budget=edge)
    with pytest.raises(ValueError, match="below 2\\^63"):
        permmod.SuiteRunner("A2", 2, char=l, budget=edge + 1)


def test_explicit_inapplicable_suite_is_refused(tmp_path, capsys):
    rc = main(["run", "--type", "A1", "--q", "2", "--char", "7", "--suites", "socle"])
    assert rc == 2
    assert "defining characteristic" in capsys.readouterr().err


def test_usage_errors(tmp_path):
    assert main(["run", "--type", "A1", "--q", "6"]) == 2          # not a prime power
    assert main(["run", "--type", "A1", "--q", "2", "--b", "0"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--char", "9"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--suites", "nope"]) == 2
    assert main(["inspect", "--type", "A1", "--q", "2", "what:J=1"]) == 2
    assert main(["inspect", "--type", "A1", "--q", "2", "eta"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--seed", "-1"]) == 2
    assert main(["run", "--type", "A1", "--q", "2", "--samples", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--type", "A1", "--q", "2", "--a", "1"],
    ["inspect", "--type", "A1", "--q", "2", "--a", "1", "dims"],
])
def test_there_is_no_level_a_option(argv, capsys):
    # GF(q^a) is written --q q^a: argparse refuses --a as a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --a" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--type", "A1", "--q", "1000000007"],
    ["inspect", "--type", "A1", "--q", "1000000007", "dims"],
    ["run", "--type", "A1", "--q", "2", "--char", "2305843009213693951"],
    ["run", "--type", "A1", "--q", "2305843009213693951", "--suites", "combinatorics"],
])
def test_large_primes_are_refused_without_long_trial_division(argv):
    # q = 10^9 + 7 and q = 2^61 - 1 are prime, so the field characteristic
    # is too large for the int64 bound; --char 2^61 - 1 fails that bound
    # before primality is tested
    proc = subprocess.run([sys.executable, "-m", "chevperm.cli"] + argv,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "below 2^63" in proc.stderr


@pytest.mark.parametrize("q,code,message", [
    (10**18 + 3, 0, ""),  # prime: the datum-only suite needs no field
    ((10**9 + 7) * (10**9 + 9), 2, "not a prime power"),
])
def test_large_q_is_factored_without_trial_division(q, code, message):
    proc = subprocess.run([sys.executable, "-m", "chevperm.cli", "run", "--type", "A1", "--q", str(q),
                           "--char", "2", "--suites", "combinatorics"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["summary"]["ok"] is True


def test_out_into_a_missing_directory_is_refused_before_any_suite(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(permmod.SuiteRunner, "run", lambda self, name: ran.append(name))
    out = tmp_path / "missing" / "r.json"
    assert main(["run", "--type", "A1", "--q", "2", "--out", str(out)]) == 2
    assert ran == [] and not out.parent.exists()
    assert "does not exist" in capsys.readouterr().err
    # an existing directory is no file to write either
    assert main(["run", "--type", "A1", "--q", "2", "--out", str(tmp_path)]) == 2
    assert ran == [] and list(tmp_path.iterdir()) == []
    assert "is a directory" in capsys.readouterr().err


def test_field_order_cap(tmp_path, capsys):
    # GF(2^9) is over the 256 cap: the ext suites skip with a fixed reason,
    # and inspect refuses a base field that large
    rc, out = run_to_file(tmp_path, "b9.json", ["--type", "A1", "--q", "2", "--b", "9", "--suites", "all"])
    assert rc == 0
    suites = json.loads(out.read_text())["suites"]
    reason = "field order 512 exceeds the matrix-arithmetic bound 256"
    skipped = {name: s["skip_reason"] for name, s in suites.items() if s.get("skipped")}
    assert skipped == {"level-steps": reason, "separation": reason, "induction": reason}
    assert main(["inspect", "--type", "A1", "--q", "512", "dims"]) == 2
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


def test_internal_error_gives_exit_four(tmp_path, monkeypatch, capsys):
    def breaks_an_invariant(runner, seed):
        raise AssertionError("vector outside the subspace")

    spec = permmod.SUITES["composition"]
    monkeypatch.setitem(permmod.SUITES, "composition",
                        permmod.SuiteSpec(breaks_an_invariant, spec.scope, spec.defining_only, spec.claim))
    rc, out = run_to_file(tmp_path, "internal.json", ["--type", "A1", "--q", "2", "--suites", "composition"])
    assert rc == 4
    assert not out.exists()
    assert "internal error in suite 'composition': vector outside the subspace" in capsys.readouterr().err


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


INSPECT_VECTORS = ["D:J=-", "D:J=1", "D:J=12", "fK:K=-", "fK:K=1", "fK:K=2", "fK:K=12",
                   "fJ:J=-", "fJ:J=1", "fJ:J=2", "fJ:J=12"]


def inspect_text(capsys, kind, q):
    """The output of INSPECT_VECTORS, with the supports of the vectors on G/B
    renumbered from FlagIndex's Bruhat-cell order into the breadth-first
    order in which they were pinned (test_chevalley.flag_index_scalar)."""
    assert main(["inspect", "--type", kind, "--q", str(q)] + INSPECT_VECTORS) == 0
    to_bfs = bfs_numbering(FlagIndex(matrix_group(kind, q)))
    lines = []
    for line in capsys.readouterr().out.splitlines():
        head, size, body = line.split("  ")
        if head.startswith(("fK", "fJ")) or "dim-%d " % len(to_bfs) in head:
            pairs = sorted((to_bfs[int(x)], c) for x, c in (pair.split(":") for pair in body.split()))
            body = " ".join("%d:%s" % pair for pair in pairs)
        lines.append("  ".join((head, size, body)) + "\n")
    return "".join(lines)


def test_inspect_vectors_a2_q2(capsys):
    # the output of the vectors before they were built from signed_sum and
    # a shared unipotent-translate loop
    assert inspect_text(capsys, "A2", 2) == """\
D[J=-] in dim-1 induced module  support=1  0:1
D[J=1] in dim-7 induced module  support=2  0:1 2:1
D[J=12] in dim-21 induced module  support=6  0:1 3:1 6:1 14:1 17:1 20:1
fK[K=-]  support=1  0:1
fK[K=1]  support=3  0:1 1:1 3:1
fK[K=2]  support=3  0:1 2:1 6:1
fK[K=12]  support=21  %s
fJ[J=-]  support=8  8:1 12:1 13:1 15:1 16:1 18:1 19:1 20:1
fJ[J=1]  support=12  4:1 7:1 8:1 9:1 12:1 13:1 14:1 15:1 16:1 18:1 19:1 20:1
fJ[J=2]  support=12  5:1 8:1 10:1 11:1 12:1 13:1 15:1 16:1 17:1 18:1 19:1 20:1
fJ[J=12]  support=21  %s
""" % (" ".join("%d:1" % i for i in range(21)), " ".join("%d:1" % i for i in range(21)))


def test_inspect_vectors_b2_q3(capsys):
    # Sp_4 at odd q, where the signs of the alternating sums are not all 1;
    # the whole output is pinned by its SHA-256, the short lines verbatim
    text = inspect_text(capsys, "B2", 3)
    lines = text.splitlines()
    assert lines[:6] == [
        "D[J=-] in dim-1 induced module  support=1  0:1",
        "D[J=1] in dim-40 induced module  support=2  0:1 4:2",
        "D[J=12] in dim-160 induced module  support=8  0:1 7:2 15:2 50:1 105:1 118:2 129:2 159:1",
        "fK[K=-]  support=1  0:1",
        "fK[K=1]  support=4  0:1 1:1 3:1 7:1",
        "fK[K=2]  support=4  0:1 2:1 6:1 15:1",
    ]
    assert [line.split("  ")[1] for line in lines[6:]] == [
        "support=160", "support=81", "support=108", "support=108", "support=160"]
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "277dfe178f31221627282c987e5bb2edf6842653dd1b668b6802f44df568f993"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chevperm.cli", "run", "--type", "A1", "--q", "2",
         "--suites", "filtration"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["ok"] is True
