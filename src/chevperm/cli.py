"""Command-line front end over the verification suites.

Three subcommands:

  run         build the configured module(s) and run verification suites,
              emitting a deterministic JSON report plus a short text summary
  list-suites show every registered suite with its scope and claim
  inspect     print distinguished vectors and dimensions of one configuration

Exit codes: 0 all selected suites passed (skipped-as-inapplicable counts as
passing); 1 at least one suite failed a check or ran vacuously; 2 usage
errors, including explicitly selecting a suite the configuration cannot
run; 3 an enumeration or search budget was exhausted; 4 an internal error,
an assertion of the program's own invariants that failed inside a suite.
"""

import argparse
import json
import os
import sys

from .chevalley import MATRIX_KINDS, BudgetError
from .linrep import MeatAxeBudgetError
from .permmod import (
    SUITES,
    SuiteRunner,
    parse_subset,
    subset_tag,
    word_tag,
)

KINDS = tuple(MATRIX_KINDS)
EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3, 4


class UsageError(Exception):
    pass


def _resolve_suites(text):
    if text.strip().lower() == "all":
        return list(SUITES), False
    chosen = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in SUITES:
            raise UsageError("unknown suite %r (known: %s)" % (part, ", ".join(SUITES)))
        if part not in chosen:
            chosen.append(part)
    if not chosen:
        raise UsageError("no suites selected")
    return chosen, True


def _summary_lines(reports):
    lines = []
    for name, rep in reports.items():
        if rep.skipped:
            lines.append("[skip] %-17s %s" % (name, rep.skip_reason))
        elif rep.ok:
            lines.append("[ ok ] %-17s %d checked, %d vacuous" % (name, rep.checked, rep.vacuous))
        else:
            why = "%d failed" % rep.failed if rep.failed else "no non-vacuous cases"
            lines.append("[FAIL] %-17s %s (%d checked)" % (name, why, rep.checked))
    ran = sum(not r.skipped for r in reports.values())
    skipped = sum(r.skipped for r in reports.values())
    overall = all(r.ok for r in reports.values())
    lines.append("overall: %s (%d ran, %d skipped)" % ("PASS" if overall else "FAIL", ran, skipped))
    return lines, overall, ran, skipped


def cmd_run(args):
    try:
        runner = SuiteRunner(args.type, args.q, a=args.a, b=args.b, char=args.char,
                             budget=args.budget, seed=args.seed, samples=args.samples)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError("the directory of --out %r does not exist" % args.out)
    requested, explicit = _resolve_suites(args.suites)
    if explicit:
        for name in requested:
            ok, reason = runner.applicable(name)
            if not ok:
                raise UsageError("refused: suite %r %s" % (name, reason))
    reports = {}
    try:
        for name in requested:
            reports[name] = runner.run(name)
    except (BudgetError, MeatAxeBudgetError) as exc:
        print("budget exhausted in suite %r: %s" % (name, exc), file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:
        print("internal error in suite %r: %s" % (name, exc), file=sys.stderr)
        return EXIT_INTERNAL

    payload = {
        "schema": "1",
        "config": {
            "type": args.type, "q": args.q, "a": args.a, "b": runner.b, "char": runner.char,
            "seed": args.seed, "budget": args.budget, "samples": args.samples,
            "suites": requested,
        },
        "suites": {name: rep.to_json_dict(include_timing=args.timings)
                   for name, rep in reports.items()},
    }
    lines, overall, ran, skipped = _summary_lines(reports)
    payload["summary"] = {
        "ok": overall,
        "ran": ran,
        "skipped": skipped,
        "checked": sum(r.checked for r in reports.values()),
        "failed": sum(r.failed for r in reports.values()),
        "failing": sorted(name for name, r in reports.items() if not r.ok),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        for line in lines:
            print(line)
        print("report written to %s" % args.out)
    else:
        sys.stdout.write(text)
        for line in lines:
            print(line, file=sys.stderr)
    return EXIT_OK if overall else EXIT_FAIL


def cmd_list_suites(args):
    for name, spec in SUITES.items():
        marks = spec.scope + (", defining characteristic only" if spec.defining_only else "")
        print("%-17s (%s)" % (name, marks))
        print("    %s" % spec.claim)
    return EXIT_OK


def _sparse(v):
    nz = [(i, int(c)) for i, c in enumerate(v) if c]
    body = " ".join("%d:%d" % pair for pair in nz)
    return "support=%d  %s" % (len(nz), body)


def cmd_inspect(args):
    try:
        runner = SuiteRunner(args.type, args.q, a=args.a, char=args.char, budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc))
    reason = runner.field_too_large(args.a)
    if reason:
        raise UsageError(reason)
    try:
        lm = runner.base
    except BudgetError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    datum = lm.datum
    rank = datum.rank
    for item in args.items:
        head, _, arg = item.partition(":")
        try:
            J = parse_subset(arg.split("=", 1)[1], rank) if "=" in arg else None
        except (ValueError, IndexError) as exc:
            raise UsageError("bad item %r: %s" % (item, exc))
        if head in ("eta", "D", "fK", "fJ", "YJ") and J is None:
            raise UsageError("item %r needs J=<digits> (1-based) or J=-" % item)
        if head == "eta":
            print("eta[J=%s]  %s" % (subset_tag(J), _sparse(lm.alternating_sum(J))))
        elif head == "D":
            vec = lm.parabolic_alternating_sum(J)
            print("D[J=%s] in dim-%d induced module  %s" % (subset_tag(J), len(vec), _sparse(vec)))
        elif head == "fK":
            print("fK[K=%s]  %s" % (subset_tag(J), _sparse(lm.parabolic_invariant_vector(J))))
        elif head == "fJ":
            print("fJ[J=%s]  %s" % (subset_tag(J), _sparse(lm.socle_generator(J))))
        elif head == "YJ":
            ys = datum.y_set(J)
            print("YJ[J=%s]  size=%d  %s" % (subset_tag(J), len(ys),
                                             ", ".join(word_tag(w) for w in ys)))
        elif head == "sigma":
            sigma = datum.sigma()
            print("sigma  %s" % "  ".join("%d->%d" % (i + 1, sigma[i] + 1) for i in sorted(sigma)))
        elif head == "dims":
            print("module dim=%d over GF(%d), coefficients GF(%d)" % (lm.dim, lm.field.order, lm.ell))
            for J2 in datum.all_subsets():
                piece = lm.filtration()[J2]
                print("piece[J=%s] dim=%d (submodule dim=%d)"
                      % (subset_tag(J2), piece.dim, piece.sub_dim))
        else:
            raise UsageError("unknown inspect item %r" % item)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chevperm",
        description="exact verification suites for flag-coset permutation modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites")
    run.add_argument("--type", required=True, choices=KINDS)
    run.add_argument("--q", required=True, type=int, help="prime power, the base field order")
    run.add_argument("--a", type=int, default=1, help="field level: the module lives over GF(q^a)")
    run.add_argument("--b", type=int, default=None,
                     help="second field level for two-level suites (default 2a)")
    run.add_argument("--char", type=int, default=None,
                     help="coefficient characteristic (default: the field characteristic)")
    run.add_argument("--suites", default="all",
                     help='comma-separated suite names, or "all" (skips inapplicable ones)')
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--budget", type=int, default=200_000, help="coset enumeration budget")
    run.add_argument("--samples", type=int, default=1000,
                     help="sample count for sweeps too large to exhaust")
    run.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    run.add_argument("--timings", action="store_true", help="include wall-clock seconds in the JSON")
    run.set_defaults(fn=cmd_run)

    ls = sub.add_parser("list-suites", help="list registered suites")
    ls.set_defaults(fn=cmd_list_suites)

    ins = sub.add_parser("inspect", help="print distinguished vectors of one configuration")
    ins.add_argument("--type", required=True, choices=KINDS)
    ins.add_argument("--q", required=True, type=int)
    ins.add_argument("--a", type=int, default=1)
    ins.add_argument("--char", type=int, default=None)
    ins.add_argument("--budget", type=int, default=200_000)
    ins.add_argument("items", nargs="+",
                     help="eta:J=.. D:J=.. fK:K=.. fJ:J=.. YJ:J=.. sigma dims")
    ins.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
