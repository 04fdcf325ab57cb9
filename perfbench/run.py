"""chevperm benchmark: time to a verdict, set-up time and peak RSS per workload.

    python3 perfbench/run.py --workload b1-defining --seed 0 --seconds 40 --trace 0

A workload is a list of `chevperm run --suites all` configurations
(workloads.py).  One pass runs each configuration once, one after another,
each in a fresh child process (child.py): the field and root-datum caches and
`ru_maxrss` are per process.  Passes repeat until the next one would end
after `--seconds`; the end-to-end figures are means over passes, the
per-layer figures medians.  This is a closed
loop with one client and at most one busy child.

Every report is made with program seed 0 (workloads.PROGRAM_SEED) and
checked: exit code 0, and a SHA-256 equal to the golden hash recorded for
that configuration (golden.json).  The workload seed `--seed` only shuffles
the order of the configurations in each pass.  Each configuration is
preceded by one round of a fixed reference computation (calibrate.py), so
that a slower machine can be told apart from a slower program.

--trace 0 reports the end-to-end metrics verdict_s, setup_s and peak_rss_mb;
verdict_s and setup_s are given at the reference speed of the machine (see
summarize).  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics (tracing.py), with trace.overhead_s = traced minus
untraced wall seconds to the verdict.  Both also print verdict_wall_s,
setup_wall_s, machine.calibration_s and fail_ratio by name.  The last line
of standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}, where failed / attempted is fail_ratio; the full record, with
the environment, goes to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import PROGRAM_SEED, WORKLOADS, config_args, config_key  # noqa: E402

CHILD_TIMEOUT_S = 150

# per-layer span names (tracing.py); each gives <name>_s (self time),
# <name>_incl_s (inclusive time) and <name>_calls
LAYER_SPANS = [
    "gf.tables", "gf.embedding",
    "chevalley.flag_index", "chevalley.perm_of", "chevalley.structure_facts",
    "linrep.spin", "linrep.subspace", "linrep.intersect", "linrep.restrict",
    "linrep.quotient", "linrep.fixed_space", "linrep.meataxe", "linrep.composition",
    "linrep.socle_check",
    "permmod.level_module", "permmod.filtration", "permmod.parabolic",
    "permmod.alternating_sum", "permmod.root_sum", "permmod.u_sum", "permmod.theta",
]
SUITE_NAMES = [
    "combinatorics", "structure", "reflection-cases", "filtration", "subquotient-basis",
    "parabolic-model", "steinberg", "level-steps", "separation", "induction", "socle",
    "composition", "fixed-points",
]


def tree_sha256(directory):
    """SHA-256 of the .py files of a directory, by name and content."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment(seed):
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": tree_sha256(os.path.join(ROOT, "src", "chevperm")),
        "harness_sha256": tree_sha256(HERE),
        "seed": seed,
        "program_seed": PROGRAM_SEED,
        "loadavg_at_start": [float(x) for x in loadavg],
        "process_rule": "each configuration runs in its own fresh child process, one at a time",
    }


def run_config(cfg, traced, tag):
    """One configuration in a fresh child; returns its parsed record or None."""
    key = config_key(*cfg)
    report = os.path.join(OUT, "report-%s.json" % key)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--report", report]
    if traced:
        cmd += ["--trace-out", os.path.join(OUT, "spans-%s-%s.json" % (tag, key))]
    cmd += ["--"] + config_args(*cfg) + ["--suites", "all", "--seed", str(PROGRAM_SEED)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: timed out after %d s" % (key, CHILD_TIMEOUT_S), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("%s: child exited %d\n%s" % (key, proc.returncode, proc.stderr[-2000:]), file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_signature(layers):
    """Everything in a traced record that must repeat exactly for one configuration."""
    sig = {name: tot["calls"] for name, tot in layers.items() if isinstance(tot, dict) and "calls" in tot}
    sig.update(layers["counts"])
    sig["dense_cache_bytes"] = layers["permmod.dense_cache"]["bytes"]
    return sig


def layer_metrics(per_config):
    """Per-layer metrics of one traced pass, summed (or maxed) over configs."""
    m = {}

    def total(name, field):
        return sum(rec["layers"].get(name, {}).get(field, 0) for rec in per_config)

    def count(key):
        return sum(rec["layers"]["counts"].get(key, 0) for rec in per_config)

    for name in LAYER_SPANS:
        m[name + "_s"] = (total(name, "self_s"), "s")
        m[name + "_incl_s"] = (total(name, "incl_s"), "s")
        m[name + "_calls"] = (total(name, "calls"), "count")
    m["chevalley.cosets"] = (count("chevalley.cosets"), "count")
    m["linrep.spin_vectors"] = (count("linrep.spin_vectors"), "count")
    attempts = total("linrep.meataxe_draw", "calls")
    m["linrep.meataxe_draw_s"] = (total("linrep.meataxe_draw", "self_s"), "s")
    m["linrep.meataxe_attempts"] = (attempts, "count")
    m["linrep.meataxe_lines"] = (count("linrep.meataxe_lines"), "count")
    m["linrep.meataxe_yield"] = (count("linrep.meataxe_drawn_verdicts") / attempts if attempts else 0.0, "ratio")
    m["permmod.dense_cache_mb"] = (
        max(rec["layers"]["permmod.dense_cache"]["bytes"] for rec in per_config) / 2**20, "MB")
    for suite in SUITE_NAMES:
        m["suite.%s_s" % suite] = (total("suite." + suite, "incl_s"), "s")
        m["suite.%s_checked" % suite] = (count("suite.%s_checked" % suite), "count")
    return m


def run_passes(configs, seed, seconds, trace, golden, tag, signature):
    """Run passes over the configurations until the next one, if as long as
    the longest so far, would end after `seconds` (at least one pass, and one
    traced pass when tracing).  The workload seed shuffles the order of the
    configurations in each pass.

    `golden` maps config key -> {"sha256"}; `signature` maps config key ->
    the counters a traced run must repeat, and is filled as it goes.
    Returns (passes, attempted, failed).
    """
    attempted = failed = 0
    passes = []                 # {"traced", "complete", "calibration_s": [s], "configs": [record]}
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        order = list(configs)
        random.Random("%d/%d" % (seed, len(passes))).shuffle(order)
        t_pass = time.perf_counter()
        calibration_s = []
        records = []
        for cfg in order:
            key = config_key(*cfg)
            attempted += 1
            calibration_s.append(calibrate.calibration_s())
            rec = run_config(cfg, traced, tag)
            ok = rec is not None and rec["exit"] == 0
            if rec is not None:
                rec["hash_ok"] = rec["sha256"] == golden.get(key, {}).get("sha256")
                ok = ok and rec["hash_ok"]
                if traced:
                    sig = layer_signature(rec["layers"])
                    rec["counters_repeat"] = signature.setdefault(key, sig) == sig
                    ok = ok and rec["counters_repeat"] and rec["setup_covers"]
                rec["key"] = key
                rec["ok"] = ok
            if not ok:
                failed += 1
                print("FAIL %s: %s" % (key, rec), file=sys.stderr)
            records.append(rec)
        passes.append({"traced": traced, "complete": all(r is not None for r in records),
                       "calibration_s": calibration_s, "configs": records})
        longest = max(longest, time.perf_counter() - t_pass)
        done = len(passes) >= (2 if trace else 1)
        if done and time.perf_counter() - start + longest > seconds:
            return passes, attempted, failed


def summarize(passes, trace, failed, attempted):
    """Metrics of a run, over its complete passes.  Returns the
    benchmark's metrics for the mode, and the figures printed beside them.

    verdict_s and setup_s are given at the reference speed of the machine:
    wall seconds times calibrate.REFERENCE_S / machine.calibration_s, the
    mean of the run's calibration rounds.  The machine switches between a
    fast and a slow state; a mean over the run weighs each by the time spent
    in it, in the wall seconds and in the calibration alike, where a median
    would jump from one state to the other.  The wall seconds are printed too.
    """
    def mean_of(traced, fn):
        vals = [fn(p["configs"]) for p in passes if p["traced"] == traced and p["complete"]]
        return statistics.fmean(vals) if vals else 0.0

    def verdict(recs):
        return sum(r["verdict_s"] for r in recs)

    calibration = statistics.fmean(c for p in passes for c in p["calibration_s"])
    scale = calibrate.REFERENCE_S / calibration
    verdict_wall = mean_of(False, verdict)
    setup_wall = mean_of(False, lambda recs: sum(r["setup_s"] for r in recs))
    # fail_ratio is 0 on a healthy run and is carried by attempted/failed;
    # the calibration measures the machine, not the program
    side = {
        "verdict_wall_s": (verdict_wall, "s"),
        "setup_wall_s": (setup_wall, "s"),
        "machine.calibration_s": (calibration, "s"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    if not trace:
        return {
            "verdict_s": (verdict_wall * scale, "s"),
            "setup_s": (setup_wall * scale, "s"),
            "peak_rss_mb": (mean_of(False, lambda recs: max(r["peak_rss_mb"] for r in recs)), "MB"),
        }, side
    layer_passes = [layer_metrics(p["configs"]) for p in passes if p["traced"] and p["complete"]]
    metrics = {}
    for name, (_, unit) in (layer_passes[0].items() if layer_passes else []):
        metrics[name] = (statistics.median(lp[name][0] for lp in layer_passes), unit)
    metrics["trace.overhead_s"] = (mean_of(True, verdict) - verdict_wall, "s")
    return metrics, side


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed: order of configurations")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chevperm", "cli.py")):
        print("error: no chevperm sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)["reports"]
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)

    # traced counters must repeat across runs on the same sources and harness
    sig_path = os.path.join(OUT, "counters-%s-%s-%s.json"
                            % (args.workload, env["src_sha256"][:16], env["harness_sha256"][:16]))
    signature = {}
    if args.trace and os.path.exists(sig_path):
        with open(sig_path) as fh:
            signature = json.load(fh)
    passes, attempted, failed = run_passes(WORKLOADS[args.workload], args.seed, args.seconds,
                                           args.trace, golden, args.workload, signature)
    if args.trace:
        with open(sig_path, "w") as fh:
            json.dump(signature, fh)
    metrics, side = ({k: {"value": v, "unit": u} for k, (v, u) in d.items()}
                     for d in summarize(passes, args.trace, failed, attempted))

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": passes,
        "metrics": dict(metrics, **side),
    }
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print("env " + json.dumps(env, sort_keys=True))
    print("workload %s: %d passes of %d configs, %d attempted, %d failed, result in %s"
          % (args.workload, len(passes), len(WORKLOADS[args.workload]), attempted, failed,
             os.path.relpath(path, ROOT)))
    for name, m in result["metrics"].items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
