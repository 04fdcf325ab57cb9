"""Spans and counters around the public functions of each chevperm layer.

`install(tracer)` replaces module attributes and methods with wrappers that
open a span (name, start, end, parent) around each call.  Functions that
`chevperm.permmod` imports by name are replaced in both modules, so calls
through either name are seen.  Spans stay in memory; `Tracer.totals()` folds
them into per-name calls, self time and inclusive time, and the caller writes
`Tracer.spans` out when the run ends.

Self time is a span's duration minus the time its direct children cover.
Inclusive time counts only the outermost span of a name, so recursion
(`composition_series`) and nesting of one name (`embedding_table` inside
`additive_transversal`) are not counted twice.
"""

import contextlib
import functools
import sys
import time

from chevperm import chevalley, gf, linrep, permmod


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []          # [id, name, tag, start, end, parent id]
        self._stack = []         # [span id, child seconds]
        self._open_names = {}
        self._totals = {}
        self.counts = {}

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([sid, name, None, time.perf_counter() - self.t0, None, parent])
        self._stack.append([sid, 0.0])
        self._open_names[name] = self._open_names.get(name, 0) + 1
        return sid

    def close(self):
        sid, child_s = self._stack.pop()
        rec = self.spans[sid]
        rec[4] = time.perf_counter() - self.t0
        dur = rec[4] - rec[3]
        name = rec[1]
        self._open_names[name] -= 1
        tot = self._totals.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        tot["calls"] += 1
        tot["self_s"] += dur - child_s
        if not self._open_names[name]:
            tot["incl_s"] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def totals(self):
        out = {name: dict(tot) for name, tot in self._totals.items()}
        out["counts"] = dict(self.counts)
        return out

    def setup_covers(self):
        """Field tables, the Borel FlagIndex and its perm_of calls were all
        built inside the setup span."""
        inside = set()
        for sid, name, _, _, _, parent in self.spans:
            if name == "setup" or parent in inside:
                inside.add(sid)
        return all(sid in inside for sid, name, tag, *_ in self.spans
                   if name == "gf.tables" or tag == "borel")


def _wrap(tracer, name, fn, tag_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if tag_of is not None:
            tracer.spans[sid][2] = tag_of(*args)
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def _patch(tracer, owners, attr, name, **kw):
    """Replace `attr` on every owner by one shared traced wrapper."""
    present = [o for o in owners if hasattr(o, attr)]
    if not present:
        print("tracing: hook %s (%s) not found; its metrics read 0" % (attr, name), file=sys.stderr)
        return
    wrapper = _wrap(tracer, name, getattr(present[0], attr), **kw)
    for owner in present:
        setattr(owner, attr, wrapper)


def install(tracer):
    t = tracer
    both = (linrep, permmod)

    # gf: only the call that actually builds a field's tables gets a span
    real_tables = gf.Field.tables
    traced_tables = _wrap(t, "gf.tables", real_tables)

    def tables(self):
        if getattr(self, "_tables", None) is None:
            return traced_tables(self)
        return real_tables(self)

    gf.Field.tables = tables
    _patch(t, (gf, permmod), "embedding_table", "gf.embedding")
    _patch(t, (gf, permmod), "additive_transversal", "gf.embedding")

    # chevalley
    def borel(obj, *_):
        return None if obj.K else "borel"

    _patch(t, (chevalley.FlagIndex,), "__init__", "chevalley.flag_index", tag_of=borel,
           after=lambda _, obj, *a: t.count("chevalley.cosets", len(obj)))
    _patch(t, (chevalley.FlagIndex,), "perm_of", "chevalley.perm_of", tag_of=borel)
    _patch(t, (chevalley, permmod), "check_structure_facts", "chevalley.structure_facts")

    # linrep
    _patch(t, both, "spin", "linrep.spin", after=lambda sub, *a: t.count("linrep.spin_vectors", sub.dim))
    _patch(t, (linrep.Subspace,), "__init__", "linrep.subspace")
    _patch(t, (linrep.Subspace,), "intersect", "linrep.intersect")
    _patch(t, both, "restrict", "linrep.restrict")
    _patch(t, both, "quotient", "linrep.quotient")
    _patch(t, both, "fixed_space", "linrep.fixed_space")
    _patch(t, both, "composition_series", "linrep.composition")
    _patch(t, both, "socle_simple_check", "linrep.socle_check")
    # one random algebra element drawn = one MeatAxe attempt
    _patch(t, (linrep,), "_random_algebra_element", "linrep.meataxe_draw")

    def verdict(v, *_):
        # verdicts reached from a drawn element carry it in the certificate
        t.count("linrep.meataxe_drawn_verdicts", int("element" in v.certificate))
        t.count("linrep.meataxe_lines", int(v.certificate.get("lines", 0)))

    _patch(t, both, "meataxe_irreducible", "linrep.meataxe", after=verdict)

    # permmod
    L = permmod.LevelModule
    _patch(t, (L,), "__init__", "permmod.level_module")
    _patch(t, (L,), "filtration", "permmod.filtration")
    _patch(t, (L,), "parabolic", "permmod.parabolic")
    _patch(t, (L,), "alternating_sum", "permmod.alternating_sum")
    _patch(t, (L,), "root_sum", "permmod.root_sum")
    _patch(t, (L,), "u_sum", "permmod.u_sum")
    _patch(t, (L,), "theta", "permmod.theta")

    # suites: one span per suite, named after it, with its checked count
    real_run = permmod.SuiteRunner.run

    def run(self, name):
        with t.span("suite." + name):
            rep = real_run(self, name)
        t.count("suite.%s_checked" % name, rep.checked)
        return rep

    permmod.SuiteRunner.run = run
