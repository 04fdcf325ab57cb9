"""The benchmark's workloads: each is a list of `chevperm run` configurations.

A configuration is the argument list after `chevperm run` minus `--suites`,
`--seed` and `--out`, which the harness adds.  Every configuration runs with
`--suites all`, the way a user asks for a full verdict.  NOTES.md says why
each workload holds what it holds and which configurations are left out.

Every report is made with `chevperm run --seed PROGRAM_SEED`.  The program
seed sets the MeatAxe's random draws and so the amount of work; the workload
seed of a benchmark run only shuffles the order of the configurations.
"""

PROGRAM_SEED = 0

WORKLOADS = {
    # defining characteristic at b = 1: MeatAxe and spin work at l = 3 and l = 2
    "b1-defining": [
        ("A2", 3, ["--b", "1"]),
        ("B2", 2, ["--b", "1"]),
    ],
    # default b = 2a: the two-level suites and the dense operator caches
    "b2a-ext": [
        ("A2", 2, []),
        ("A1", 2, ["--b", "7"]),
        ("A1", 5, []),
    ],
    # coefficient prime differs from the field characteristic
    "cross-char": [
        ("A2", 4, ["--b", "1", "--char", "3"]),
        ("A2", 3, ["--b", "1", "--char", "2"]),
        ("B2", 2, ["--b", "1", "--char", "3"]),
    ],
}


def config_args(kind, q, extra):
    return ["--type", kind, "--q", str(q)] + list(extra)


def config_key(kind, q, extra):
    """Stable name of a configuration, e.g. "A2-q3-b1" or "A2-q4-b1-char3"."""
    parts = ["%s-q%d" % (kind, q)]
    for flag, value in zip(extra[::2], extra[1::2]):
        parts.append(flag.lstrip("-") + value)
    return "-".join(parts)
