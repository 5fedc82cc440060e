"""Span tracing of the cbsheaf modules from outside the package.

The tracer wraps public functions and a few methods of the package in place:
every module namespace that binds a wrapped function is patched (so
`cbsheaf.cli.build_resolution` is traced as well as
`cbsheaf.godement.build_resolution`), and `uninstall` puts every original
object back.  Each call records a span (name, start, end, parent, query id)
in flat arrays kept in memory; the per-layer metrics are computed from the
spans after the run, and the spans can be written out for later study.

Work the tracer does itself around a call (the counters below) is recorded
as a `trace.hook` span, so it is subtracted from the caller's self time
instead of being charged to it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

HOOK = "trace.hook"
PACKAGE = "cbsheaf"

# (span name, module, attribute or Class.method, reported stats)
TARGETS = (
    ("linalg.rref", "linalg", "rref", ("calls", "self_s")),
    ("linalg.solve_matrix", "linalg", "solve_matrix", ("calls", "self_s")),
    ("linalg.kernel_basis", "linalg", "kernel_basis", ("calls", "self_s")),
    ("linalg.cokernel", "linalg", "cokernel", ("calls", "self_s")),
    ("linalg.induced_map", "linalg", "induced_map", ("calls", "self_s")),
    ("linalg.matmul", "linalg", "RatMatrix.__matmul__", ("calls", "self_s")),
    ("linalg.RatMatrix", "linalg", "RatMatrix.__init__", ("calls", "self_s")),
    ("sheaves.hom_sheaves", "sheaves", "hom_sheaves", ("calls", "self_s")),
    ("sheaves.hom_basis_maps", "sheaves", "hom_basis_maps", ("calls", "self_s")),
    ("sheaves.sheaf_cokernel", "sheaves", "sheaf_cokernel", ("calls", "self_s")),
    ("sheaves.extend_along_mono", "sheaves", "extend_along_mono", ("calls", "self_s")),
    ("godement.build_resolution", "godement", "build_resolution", ("calls", "self_s")),
    ("godement.to_json", "godement", "GodementResolution.to_json", ("self_s",)),
    ("godement.check_support", "godement", "check_support", ("self_s",)),
    ("extdim.category_dimension", "extdim", "category_dimension", ("calls", "self_s")),
    ("extdim.injective_dimension_bounds", "extdim", "injective_dimension_bounds", ("calls", "self_s")),
    ("extdim.hom_complex", "extdim", "hom_complex", ("calls", "self_s")),
    ("extdim.hom_cokernel_check", "extdim", "hom_cokernel_check", ("calls", "self_s")),
    ("spaces.load_space", "spaces", "load_space", ("calls", "self_s")),
    ("spaces.from_open_sets", "spaces", "FiniteSpace.from_open_sets", ("calls", "self_s")),
    ("spaces.cb_filtration", "spaces", "FiniteSpace.cb_filtration", ("calls", "self_s")),
    ("spaces.product", "spaces", "product", ("calls", "self_s")),
    ("spaces.save_space", "spaces", "save_space", ("calls", "self_s")),
    ("profinite.parse_expr", "profinite", "parse_expr", ("calls", "self_s")),
    ("profinite.cb_summary", "profinite", "cb_summary", ("calls", "self_s")),
    ("profinite.finite_model", "profinite", "finite_model", ("calls", "self_s")),
    ("cli.main", "cli", "main", ("calls", "self_s")),
)

# Counters measured at the span boundaries, with their units.
COUNTERS = (
    ("linalg.rref.cells", "count"),
    ("linalg.rref.nnz_in", "count"),
    ("linalg.rref.dense_share", "share"),
    ("linalg.solve_matrix.repeat_lhs_ratio", "share"),
    ("godement.build_resolution.repeat_ratio", "share"),
    ("godement.terms_built", "count"),
    ("godement.term_dim_total", "count"),
    ("godement.terminated_share", "share"),
    ("extdim.hom_complex.per_query", "count"),
)


def metric_units():
    """Every per-layer metric the tracer reports, in order, with its unit."""
    out = []
    for name, _, _, stats in TARGETS:
        out.extend((f"{name}.{stat}", "count" if stat == "calls" else "s") for stat in stats)
    out.extend(COUNTERS)
    return out


def self_times(names, starts, ends, parents):
    """Total and self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once, and a child
    reaching outside its parent is clipped to it).
    """
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = array("d", [0.0]) * n
    reach = {}  # parent -> end of the covered stretch so far
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
        if hi <= lo:
            continue
        done = reach.get(p, lo)
        if hi > done:
            covered[p] += hi - max(lo, done)
            reach[p] = hi
    total, own = {}, {}
    for i in range(n):
        dur = ends[i] - starts[i]
        total[names[i]] = total.get(names[i], 0.0) + dur
        own[names[i]] = own.get(names[i], 0.0) + dur - covered[i]
    return total, own


def _sheaf_key(F):
    pts = F.base.points
    return (
        pts,
        tuple(F.base.min_nbhd[x] for x in pts),
        tuple(F.stalk_dim[x] for x in pts),
        tuple(sorted((k, m.rows, m.cols, frozenset(m.entries.items())) for k, m in F.res.items())),
    )


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = [HOOK]
        self.name_ids = {HOOK: 0}
        self.span_name = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.query_ids = array("q")
        self.stack = []
        self.query_id = -1
        self.counts = dict.fromkeys(
            ("cells", "nnz_in", "dense", "rref", "solves", "repeat_lhs", "builds", "repeat_builds",
             "terms", "term_dims", "terminated"),
            0,
        )
        self._lhs_query = None
        self._lhs_seen = set()
        self._builds_seen = set()
        self._patches = []  # (owner, attribute, original object)

    # -- spans ------------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.starts)
        self.span_name.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.query_ids.append(self.query_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self.stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def _hook(self, fn, *args):
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, name, fn, pre=None, post=None):
        """A traced stand-in for fn; pre(args, kwargs) and post(args, kwargs, result) count."""
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                tracer._hook(pre, args, kwargs)
            idx = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, clock())
            if post is not None:
                tracer._hook(post, args, kwargs, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------------

    def _count_rref(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        c = self.counts
        c["rref"] += 1
        c["cells"] += m.rows * m.cols
        c["nnz_in"] += len(m.entries)
        if m.density() >= self._linalg.DENSE_THRESHOLD:
            c["dense"] += 1

    def _count_solve(self, args, kwargs):
        a = args[0] if args else kwargs["a"]
        if self._lhs_query != self.query_id:
            self._lhs_query = self.query_id
            self._lhs_seen = set()
        key = (a.rows, a.cols, frozenset(a.entries.items()))
        self.counts["solves"] += 1
        if key in self._lhs_seen:
            self.counts["repeat_lhs"] += 1
        self._lhs_seen.add(key)

    def _count_build(self, args, kwargs, r):
        F = args[0] if args else kwargs["F"]
        max_len = args[1] if len(args) > 1 else kwargs.get("max_len")
        if max_len is None:
            max_len = len(F.base.points) + 2
        key = (_sheaf_key(F), max_len)
        c = self.counts
        c["builds"] += 1
        if key in self._builds_seen:
            c["repeat_builds"] += 1
        self._builds_seen.add(key)
        c["terms"] += len(r.terms)
        c["term_dims"] += sum(t.total_dim() for t in r.terms)
        c["terminated"] += bool(r.terminated)

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Wrap every TARGETS entry in every loaded module of the package."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self._linalg = sys.modules[f"{PACKAGE}.linalg"]
        hooks = {
            "linalg.rref": (self._count_rref, None),
            "linalg.solve_matrix": (self._count_solve, None),
            "godement.build_resolution": (None, self._count_build),
        }
        for name, module, attr, _ in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module}"]
            pre, post = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, pre, post))
                else:
                    replacement = self.wrap(name, original, pre, post)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, replacement)
                continue
            original = getattr(home, attr)
            replacement = self.wrap(name, original, pre, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, replacement)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------------

    def metrics(self, queries):
        """Per-layer metrics by name, from the recorded spans and counters."""
        _, own_by_id = self_times(self.span_name, self.starts, self.ends, self.parents)
        own = {self.names[i]: t for i, t in own_by_id.items()}
        calls = {self.names[i]: c for i, c in Counter(self.span_name).items()}
        out = {}
        for name, _, _, stats in TARGETS:
            if "calls" in stats:
                out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
        c = self.counts

        def share(a, b):
            return a / b if b else 0.0

        out["linalg.rref.cells"] = c["cells"]
        out["linalg.rref.nnz_in"] = c["nnz_in"]
        out["linalg.rref.dense_share"] = share(c["dense"], c["rref"])
        out["linalg.solve_matrix.repeat_lhs_ratio"] = share(c["repeat_lhs"], c["solves"])
        out["godement.build_resolution.repeat_ratio"] = share(c["repeat_builds"], c["builds"])
        out["godement.terms_built"] = c["terms"]
        out["godement.term_dim_total"] = c["term_dims"]
        out["godement.terminated_share"] = share(c["terminated"], c["builds"])
        out["extdim.hom_complex.per_query"] = share(calls.get("extdim.hom_complex", 0), queries)
        return out

    def write(self, stem):
        """Write the spans: stem.json (names, columns, count) and stem.bin (arrays)."""
        columns = [("name", self.span_name), ("start", self.starts), ("end", self.ends),
                   ("parent", self.parents), ("query", self.query_ids)]
        with open(f"{stem}.bin", "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)
        header = {
            "count": len(self.starts),
            "names": self.names,
            "columns": [[col, arr.typecode] for col, arr in columns],
            "byteorder": sys.byteorder,
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
