"""Record the golden report hashes the benchmark checks against.

    python3 perfbench/record_golden.py

For every configuration of every workload this runs the plain command-line
tool, `python3 -m chevperm.cli run ... --suites all --seed 0 --out F`, with
no set-up forcing and no tracing, and stores the SHA-256 of the report and
the exit code in golden.json.  The benchmark's child builds the context
before the first suite; matching these hashes shows that doing so changes no
report byte.  Re-record only on purpose, on a commit whose reports are known
to be right.
"""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import PROGRAM_SEED, WORKLOADS, config_args, config_key  # noqa: E402


def plain_run(cfg):
    key = config_key(*cfg)
    report = os.path.join(OUT, "golden-%s.json" % key)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "chevperm.cli", "run"] + config_args(*cfg) + [
        "--suites", "all", "--seed", str(PROGRAM_SEED), "--out", report]
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=600)
    with open(report, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return key, {"sha256": digest, "exit": proc.returncode}


def main():
    os.makedirs(OUT, exist_ok=True)
    configs = {config_key(*cfg): cfg for cfgs in WORKLOADS.values() for cfg in cfgs}
    reports = {}
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for key, rec in pool.map(plain_run, configs.values()):
            reports[key] = rec
            print("%-22s exit %d %s" % (key, rec["exit"], rec["sha256"][:16]), flush=True)
    bad = [k for k, r in reports.items() if r["exit"] != 0]
    if bad:
        print("not recorded: nonzero exit for %s" % bad, file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"recorded_at": commit, "program_seed": PROGRAM_SEED, "reports": reports},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
