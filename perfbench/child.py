"""Run one `chevperm run` configuration in this (fresh) process and time it.

    python3 perfbench/child.py --report R.json [--trace-out SPANS.json] -- <chevperm run args>

The run goes through `chevperm.cli.main`, so the report file is exactly what
the command-line tool writes.  Two things are added around it:

  * the `SuiteRunner` the CLI builds is wrapped so that its shared context
    (base `LevelModule`, plus the extension level when an ext suite applies)
    is built through the public `SuiteRunner.context()` / `PermContext.ext`
    before the first suite runs; that span is `setup_s`;
  * with `--trace-out`, the layer hooks of `tracing.py` are installed and the
    per-layer totals plus every span are written there when the run ends.

The last line of standard output is one JSON object: verdict_s, setup_s,
peak_rss_mb, exit code, report SHA-256 and, when traced, the layer totals.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from chevperm import cli  # noqa: E402
from chevperm.permmod import SUITES  # noqa: E402


def dense_cache_bytes(ctx):
    """Bytes of the dense matrices still held by the context's operator and
    matrix caches; an array shared by two caches is counted once.  The caches
    are read with defaults so that a version without them reads 0."""
    arrays = {}
    levels = [ctx.base] + ([ctx._ext] if getattr(ctx, "_ext", None) is not None else [])
    for lm in levels:
        for M in getattr(lm, "_op_cache", {}).values():
            arrays[id(M)] = M
        handles = [lm.handle] + [h for _, h in getattr(lm, "_parabolic", {}).values()]
        handles += [piece.handle for piece in (getattr(lm, "_filtration", None) or {}).values()]
        for handle in handles:
            for M in getattr(handle, "_mat_cache", {}).values():
                arrays[id(M)] = M
    return sum(M.nbytes for M in arrays.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="where the CLI writes its JSON report")
    parser.add_argument("--trace-out", default=None, help="trace the layers and write spans here")
    parser.add_argument("run_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    run_args = [a for a in args.run_args if a != "--"]

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    made = {}
    real_runner = cli.SuiteRunner

    def runner_with_setup(*a, **k):
        made["t0"] = time.perf_counter()
        runner = real_runner(*a, **k)
        span = tracer.span("setup") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            ctx = runner.context()
            if any(spec.scope == "ext" and runner.applicable(name)[0] for name, spec in SUITES.items()):
                ctx.ext
        made["setup_s"] = time.perf_counter() - start
        made["runner"] = runner
        return runner

    cli.SuiteRunner = runner_with_setup
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run"] + run_args + ["--out", args.report])
    verdict_s = time.perf_counter() - made["t0"]

    with open(args.report, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    out = {
        "exit": code,
        "sha256": digest,
        "verdict_s": verdict_s,
        "setup_s": made["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["layers"]["permmod.dense_cache"] = {"bytes": dense_cache_bytes(made["runner"].context())}
        out["setup_covers"] = tracer.setup_covers()
        with open(args.trace_out, "w") as fh:
            json.dump({"config": run_args, "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
