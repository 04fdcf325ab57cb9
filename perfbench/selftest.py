"""Self-test of the benchmark harness on a tiny configuration (A1, q = 2).

    python3 perfbench/selftest.py

Checks, in about two seconds:
  * the forced-setup child writes the same report bytes as the plain CLI;
  * a correct golden hash passes and a tampered one is reported as a failure;
  * a traced run reports non-empty linrep.* and permmod.* counters, its
    counters repeat exactly on a second traced pass, and the setup span
    covers the field tables, the Borel FlagIndex and its perm_of calls.
Exits 0 when every check holds, 1 otherwise.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import record_golden  # noqa: E402
import run  # noqa: E402
from workloads import config_key  # noqa: E402

TINY = ("A1", 2, [])
KEY = config_key(*TINY)


def main():
    os.makedirs(run.OUT, exist_ok=True)
    problems = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    _, plain = record_golden.plain_run(TINY)
    good = {KEY: {"sha256": plain["sha256"]}}
    tampered = {KEY: {"sha256": "0" * 64}}

    passes, attempted, failed = run.run_passes([TINY], 0, 0, 0, good, "selftest", {})
    rec = passes[0]["configs"][0]
    expect(rec is not None and rec["sha256"] == plain["sha256"],
           "forced setup leaves the report bytes unchanged")
    expect(attempted == 1 and failed == 0, "correct golden hash passes")

    _, attempted, failed = run.run_passes([TINY], 0, 0, 0, tampered, "selftest", {})
    expect(attempted == 1 and failed == 1, "tampered golden hash counts as a failure")

    signature = {}
    passes, attempted, failed = run.run_passes([TINY], 0, 0, 1, good, "selftest", signature)
    _, attempted2, failed2 = run.run_passes([TINY], 0, 0, 1, good, "selftest", signature)
    expect(failed == 0 and failed2 == 0,
           "traced runs pass: counters repeat and setup covers tables, Borel index, perm_of")
    metrics, _ = run.summarize(passes, 1, failed, attempted)
    for prefix in ("linrep.", "permmod."):
        counts = [name for name, (value, unit) in metrics.items()
                  if name.startswith(prefix) and unit == "count" and value > 0]
        expect(len(counts) >= 3, "traced run reports %s counters: %s" % (prefix, ", ".join(counts)))
    expect("trace.overhead_s" in metrics, "traced run reports trace.overhead_s")

    print("selftest: %s" % ("PASS" if not problems else "FAIL (%d)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
