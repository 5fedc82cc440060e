"""Seeded query streams for the benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of CLI
queries, produced one round at a time.  A round is a fixed schedule of slots
(so every seed sees the same mix of query sizes); the seed only picks what
fills each slot.  Input files are written under the work directory, and the
program sees nothing but those files and the argv of each query.

Every query carries a check that tests its output against a statement of the
paper (ranks of products, the support bound, the Godement dimension
recursion), never against a stored answer.  The checks use the small
helpers below, which re-derive Cantor-Bendixson data from the generated
preorders without calling the library.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

OMEGA = "omega"
# Consecutive draws of an already used input after which a stream is exhausted.
MAX_REPEATED_DRAWS = 2000


class Exhausted(Exception):
    """A workload has no unused inputs left for one of its slots."""


class Query:
    """One CLI call: its argv, a check on its stdout, and a kind label."""

    __slots__ = ("argv", "check", "kind")

    def __init__(self, argv, check, kind):
        self.argv = argv
        self.check = check
        self.kind = kind


# -- Cantor-Bendixson data of a preorder, derived independently ------------------


def cb_levels(nbhd):
    """Derivative filtration X(0) >= X(1) >= ... of a minimal-neighborhood map."""
    levels = [frozenset(nbhd)]
    while len(levels) < 2 or levels[-1] != levels[-2]:
        level = levels[-1]
        levels.append(frozenset(x for x in level if nbhd[x] & level != {x}))
    return levels


def cb_rank(nbhd):
    return len(cb_levels(nbhd)) - 2


def is_scattered(nbhd):
    return not cb_levels(nbhd)[-1]


def is_branch_rich(nbhd):
    """Every point of height k >= 1 sees two points of height k - 1."""
    levels = cb_levels(nbhd)
    height = {}
    for k in range(len(levels) - 1):
        for x in levels[k] - levels[k + 1]:
            height[x] = k
    return all(
        sum(1 for y in nbhd[x] if height.get(y) == k - 1) >= 2
        for x, k in height.items()
        if k >= 1
    )


def layered_poset(rng, n, rank, p):
    """A random T0 space on p0..p(n-1) whose Cantor-Bendixson rank is `rank`.

    On a finite T0 space the derivative removes the minimal points, so the
    rank is the length of the longest chain.  Each point gets a level below
    `rank` (every level used), one forced link to the level just below and
    further links to lower levels with probability p; its height is then its
    level.
    """
    levels = list(range(rank)) + [rng.randrange(rank) for _ in range(n - rank)]
    rng.shuffle(levels)
    by_level = [[i for i in range(n) if levels[i] == k] for k in range(rank)]
    below = [None] * n
    for k in range(rank):
        for i in by_level[k]:
            down = {i}
            if k:
                down |= below[rng.choice(by_level[k - 1])]
                for j in range(n):
                    if levels[j] < k and j not in down and rng.random() < p:
                        down |= below[j]
            below[i] = down
    pts = [f"p{i}" for i in range(n)]
    return {pts[i]: frozenset(pts[j] for j in below[i]) for i in range(n)}


def relations(nbhd):
    """Number of pairs y <= x, reflexive ones included."""
    return sum(len(u) for u in nbhd.values())


def add_clusters(rng, nbhd, count):
    """Duplicate `count` points into indistinguishable twins (non-T0 clusters)."""
    out = dict(nbhd)
    for x in rng.sample(sorted(nbhd), count):
        twin = x + "t"
        out = {y: (u | {twin} if x in u else u) for y, u in out.items()}
        out[twin] = out[x]
    return out


def open_sets(nbhd):
    """All open sets: subsets closed under taking minimal neighborhoods."""
    pts = sorted(nbhd)
    opens = []
    for mask in range(1 << len(pts)):
        s = {pts[i] for i in range(len(pts)) if mask >> i & 1}
        if all(nbhd[x] <= s for x in s):
            opens.append(sorted(s))
    return opens


def space_doc(nbhd):
    return {"points": sorted(nbhd), "min_nbhd": {x: sorted(nbhd[x]) for x in sorted(nbhd)}}


def nbhd_of(doc):
    return {x: frozenset(u) for x, u in doc["min_nbhd"].items()}


# -- symbolic expressions and the paper's rank rules ------------------------------

# Leaf atoms with their (rank, scattered, hull non-empty) data: the convergent
# sequence P and its alias SZp have rank 2, D(n) rank 1, the Cantor set F and
# SZhat are perfect, B has rank 1 over a non-empty perfect hull, E has rank
# omega.  SProd(n) is P^n.
LEAF_SUMMARY = {
    "P": (2, True, False),
    "SZp": (2, True, False),
    "F": (0, False, True),
    "SZhat": (0, False, True),
    "B": (1, False, True),
    "E": (OMEGA, True, False),
}


def summary(e):
    """(rank, scattered, hull non-empty) of an expression tree.

    rank(X x Y) = rank X + rank Y - 1, a perfect factor makes a product
    perfect, and a coproduct takes the larger rank.
    """
    op = e[0]
    if op == "D":
        return (1, True, False)
    if op == "SProd":
        return summary(("pow", ("P",), e[1]))
    if op in LEAF_SUMMARY:
        return LEAF_SUMMARY[op]
    if op == "pow":
        out = summary(e[1])
        for _ in range(e[2] - 1):
            out = _prod_summary(out, summary(e[1]))
        return out
    a, b = summary(e[1]), summary(e[2])
    if op == "*":
        return _prod_summary(a, b)
    hull = a[2] or b[2]
    rank = OMEGA if OMEGA in (a[0], b[0]) else max(a[0], b[0])
    return (rank, not hull, hull)


def _prod_summary(a, b):
    if a[0] == 0 or b[0] == 0:
        return (0, False, True)
    hull = a[2] or b[2]
    rank = OMEGA if OMEGA in (a[0], b[0]) else a[0] + b[0] - 1
    return (rank, not hull, hull)


def render(e):
    op = e[0]
    if op == "D":
        return f"D({e[1]})"
    if op == "SProd":
        return f"SProd({e[1]})"
    if op in LEAF_SUMMARY:
        return op
    if op == "pow":
        base = render(e[1])
        return f"{base}^{e[2]}" if e[1][0] in LEAF_SUMMARY or e[1][0] in ("D", "SProd") else f"({base})^{e[2]}"
    if op == "*":
        return "*".join(f"({render(s)})" if s[0] == "+" else render(s) for s in e[1:])
    return f"{render(e[1])}+{render(e[2])}"


def verdict_of(s):
    """The paper's injective-dimension verdict from (rank, scattered, hull)."""
    rank, _, hull = s
    if rank == OMEGA:
        return ("infinite", None)
    if hull:
        return ("conjectured_infinite", None)
    return ("exact", rank - 1)


# -- the workloads ------------------------------------------------------------------


class InputStats:
    """Running statistics of the generated spaces, in constant memory."""

    def __init__(self):
        self.count = 0
        self.points_sum = self.points_max = 0
        self.rank_sum = 0
        self.stalk_sum = self.stalk_max = 0
        self.non_scattered = 0

    def add(self, nbhd, max_stalk):
        self.count += 1
        self.points_sum += len(nbhd)
        self.points_max = max(self.points_max, len(nbhd))
        self.rank_sum += cb_rank(nbhd)
        self.stalk_sum += max_stalk
        self.stalk_max = max(self.stalk_max, max_stalk)
        self.non_scattered += not is_scattered(nbhd)

    def metrics(self):
        n = self.count or 1
        return {
            "inputs.points_mean": self.points_sum / n,
            "inputs.points_max": self.points_max,
            "inputs.cb_rank_mean": self.rank_sum / n,
            "inputs.max_stalk_mean": self.stalk_sum / n,
            "inputs.max_stalk_max": self.stalk_max,
            "inputs.non_scattered_share": self.non_scattered / n,
        }


class Workload:
    """Common machinery: seeded rounds, a de-duplicating input writer, stats."""

    name = ""
    # Queries whose outputs enter the run digest; the traced run replays them.
    prefix = 100

    def __init__(self, seed, workdir, lib):
        self.seed = seed
        self.workdir = workdir
        self.lib = lib
        self.seen = set()  # sha256 digests of the inputs used so far
        self.misses = 0
        self.inputs = InputStats()
        self.round_index = 0
        os.makedirs(workdir, exist_ok=True)

    def next_round(self):
        rng = random.Random(f"{self.name}/{self.seed}/{self.round_index}")
        queries = self.make_round(rng, f"r{self.round_index}")
        self.round_index += 1
        return queries

    def fresh(self, text):
        """True the first time an input (as text) is seen in this run.

        Raises Exhausted when the slots keep drawing inputs already used, so a
        fast enough program ends the stream instead of spinning here.
        """
        key = hashlib.sha256(text.encode()).digest()
        if key in self.seen:
            self.misses += 1
            if self.misses > MAX_REPEATED_DRAWS:
                raise Exhausted(f"{self.name}: no new input in {MAX_REPEATED_DRAWS} draws")
            return False
        self.misses = 0
        self.seen.add(key)
        return True

    def write(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def projected(self, nbhd, dims, max_len):
        space = self.lib.FiniteSpace(sorted(nbhd), nbhd, validate=False)
        return self.lib.projected_term_dims(space, dims, max_len)

    def constant_max_stalk(self, nbhd):
        terms, _ = self.projected(nbhd, {x: 1 for x in nbhd}, len(nbhd) + 2)
        return max(max(t.values()) for t in terms)

    def make_round(self, rng, tag):
        raise NotImplementedError


def _json_check(fn):
    def check(out):
        return fn(json.loads(out))

    return check


class CatDim(Workload):
    """category-dim on branch-rich finite models and on small T0 posets.

    Branch-rich models (each P a star with its own 2-4 branches) stop at the
    first witness after one large resolution and one large hom complex; the
    posets are not branch-rich, so the scan usually visits every (sheaf, test
    object) pair.  Sizes are capped: a 12-point rank-7 poset alone takes tens
    of seconds.  The slots are chosen so that several of them cost about the
    same, which keeps the latency percentiles from landing in a gap between
    two slots.
    """

    name = "catdim"
    # (cb rank, fewest points, most points) of each model slot in a round
    MODEL_SLOTS = ((2, 4, 24), (2, 4, 24), (3, 12, 24))
    # (points, cb rank, relations) of each poset slot in a round
    POSET_SLOTS = ((6, 3, 13), (6, 3, 13), (6, 3, 14), (6, 3, 14), (6, 4, 15), (6, 4, 15))

    def make_round(self, rng, tag):
        queries = []
        for i, (rank, lo, hi) in enumerate(self.MODEL_SLOTS):
            queries.append(self._model_query(rng, f"{tag}-m{i}", rank, lo, hi))
        for i, (n, rank, rel) in enumerate(self.POSET_SLOTS):
            queries.append(self._poset_query(rng, f"{tag}-t{i}", n, rank, rel))
        rng.shuffle(queries)
        return queries

    def _model_expr(self, rng, rank):
        """A coproduct of 1-4 products of P and D(k), one of rank `rank`."""
        terms = []
        for t in range(rng.randint(1, 4)):
            ps = rank - 1 if t == 0 else rng.randint(0, rank - 1)
            factors = [("P",)] * ps
            if rng.random() < 0.5 or not factors:
                factors.append(("D", rng.randint(1, 8)))
            rng.shuffle(factors)
            if ps == 2 and len(factors) == 2 and rng.random() < 0.5:
                term = ("pow", ("P",), 2)
            else:
                term = factors[0]
                for f in factors[1:]:
                    term = ("*", term, f)
            terms.append(term)
        rng.shuffle(terms)
        expr = terms[0]
        for t in terms[1:]:
            expr = ("+", expr, t)
        return expr

    def _model(self, rng, e):
        """A branch-rich finite model of e in which every P is a star with 2-4 leaves."""
        lib = self.lib
        op = e[0]
        if op == "P":
            return lib.star_space(rng.randint(2, 4))
        if op == "D":
            return lib.discrete_space(e[1])
        if op == "pow":
            out = self._model(rng, e[1])
            for _ in range(e[2] - 1):
                out = lib.product(self._model(rng, e[1]), out)
            return out
        a, b = self._model(rng, e[1]), self._model(rng, e[2])
        return lib.product(a, b) if op == "*" else lib.disjoint_union(a, b)

    def _model_query(self, rng, name, rank, lo, hi):
        while True:
            expr = self._model_expr(rng, rank)
            if model_points(expr, 2) > hi or model_points(expr, 4) < lo:
                continue
            space = self._model(rng, expr)
            if not lo <= len(space.points) <= hi:
                continue
            doc = self.lib.space_to_json(space)
            if is_branch_rich(nbhd_of(doc)) and self.fresh(json.dumps(doc, sort_keys=True)):
                break
        nbhd = nbhd_of(doc)
        self.inputs.add(nbhd, self.constant_max_stalk(nbhd))
        path = self.write(f"{name}.json", doc)
        want = summary(expr)[0] - 1

        def check(out):
            # on a branch-rich model the dimension is exactly rank - 1
            v = out["verdict"]
            return v["kind"] == "exact" and v["n"] == want

        return Query(["category-dim", "--space", path, "--format", "json"], _json_check(check), f"model-r{rank}")

    def _poset_query(self, rng, name, n, rank, rel):
        while True:
            nbhd = layered_poset(rng, n, rank, rng.uniform(0.1, 0.6))
            if relations(nbhd) != rel or is_branch_rich(nbhd):
                continue
            doc = space_doc(nbhd)
            if self.fresh(json.dumps(doc, sort_keys=True)):
                break
        self.inputs.add(nbhd, self.constant_max_stalk(nbhd))
        path = self.write(f"{name}.json", doc)
        upper = cb_rank(nbhd) - 1

        def check(out):
            # the support bound gives upper = rank - 1; witnesses only raise lower
            v = out["verdict"]
            return v["upper"] == upper and v["lower"] is not None and v["lower"] <= v["upper"]

        return Query(["category-dim", "--space", path, "--format", "json"], _json_check(check), f"poset-{n}-{rank}-{rel}")


class SheafOps(Workload):
    """resolve, ext and check on seeded (space, random sheaf) pairs.

    Every pair is queried by all three commands, so the same resolution is
    built several times.  Each pair is capped by its exact projected term
    dimensions: its --max-len is the slot's length, no projected stalk may
    exceed STALK_CAP, and the projected total over all terms must fall in the
    slot's band.  Spaces with non-T0 clusters have a perfect hull, and their
    resolutions usually run to --max-len without terminating.
    """

    name = "sheaf-ops"
    prefix = 120
    STALK_CAP = 16
    # (non-T0 clusters, points before clustering, cb rank of the T0 base,
    # --max-len, lowest and highest projected total) of each pair slot
    PAIR_SLOTS = ((0, 5, 3, 3, 20, 34), (0, 6, 3, 3, 30, 50), (1, 4, 2, 4, 30, 60), (2, 4, 2, 4, 40, 80))

    def make_round(self, rng, tag):
        queries = []
        for i, slot in enumerate(self.PAIR_SLOTS):
            queries.extend(self._pair_queries(rng, f"{tag}-p{i}", *slot))
        return queries

    def _pair(self, rng, clusters, n, rank, max_len, tot_lo, tot_hi):
        lib = self.lib
        while True:
            nbhd = layered_poset(rng, n, rank, rng.uniform(0.1, 0.5))
            if clusters:
                nbhd = add_clusters(rng, nbhd, clusters)
            space = lib.FiniteSpace(sorted(nbhd), nbhd, validate=False)
            sheaf = lib.random_sheaf(space, 2, rng.randrange(1 << 30))
            terms, cokers = lib.projected_term_dims(space, sheaf.stalk_dim, max_len)
            if max(max(t.values()) for t in terms) > self.STALK_CAP:
                continue
            if not tot_lo <= sum(sum(t.values()) for t in terms) <= tot_hi:
                continue
            doc = lib.sheaf_to_json(sheaf)
            if self.fresh(json.dumps([space_doc(nbhd), doc], sort_keys=True)):
                return nbhd, doc, terms, cokers

    def _pair_queries(self, rng, name, clusters, n, rank, max_len, tot_lo, tot_hi):
        nbhd, sheaf_doc, terms, cokers = self._pair(rng, clusters, n, rank, max_len, tot_lo, tot_hi)
        self.inputs.add(nbhd, max(max(t.values()) for t in terms))
        space_path = self.write(f"{name}.space.json", space_doc(nbhd))
        sheaf_path = self.write(f"{name}.sheaf.json", sheaf_doc)
        base = ["--space", space_path, "--sheaf", sheaf_path, "--max-len", str(max_len), "--format", "json"]
        terminated = all(v == 0 for v in cokers[-1].values())
        rank = cb_rank(nbhd)
        scattered = is_scattered(nbhd)
        top = len(terms) - 1 if terminated else len(terms) - 2
        point = rng.choice(sorted(nbhd))

        def check_resolve(out):
            # the stalks follow the exact recursion K' = sum over U_x of K - K_x,
            # and on a scattered space every term past the rank vanishes
            if [t["stalk_dims"] for t in out["terms"]] != terms:
                return False
            if out["coker_dims"] != cokers or out["terminated"] != terminated:
                return False
            return not (scattered and max_len >= rank and not (terminated and len(terms) <= rank))

        def check_ext(out):
            # Ext^k(T, F) != 0 forces injdim F >= k, and on a scattered space
            # injdim F <= rank - 1
            dims = {int(k): d for k, d in out["ext_dims"].items()}
            if sorted(dims) != list(range(top + 1)):
                return False
            v = out["verdict"]
            if v["upper"] is None:
                return not terminated and v["lower"] <= top
            nonzero = [k for k, d in dims.items() if d]
            below_rank = not scattered or v["upper"] <= rank - 1
            return v["lower"] <= v["upper"] and max(nonzero, default=0) <= v["upper"] and below_rank

        def check_check(out):
            return out["ok"] is True and out["terminated"] == terminated

        slot = f"{clusters}c-{n}-{max_len}"
        return [
            Query(["resolve"] + base, _json_check(check_resolve), f"resolve-{slot}"),
            Query(["ext"] + base + ["--point", point], _json_check(check_ext), f"ext-{slot}"),
            Query(["check"] + base, _json_check(check_check), f"check-{slot}"),
        ]


class Symbolic(Workload):
    """rank / dim / decompose on expressions, model --out, rank --space.

    No query runs an elimination: this is the workload on which a change to
    linalg is predicted to move nothing.
    """

    name = "symbolic"
    prefix = 600
    EXPRS_PER_ROUND = 3
    MODEL_POINTS_CAP = 40
    OPENS_CAP = 40
    ATOMS = ("P", "SZp", "F", "B", "SZhat", "E")

    def make_round(self, rng, tag):
        queries = []
        for _ in range(self.EXPRS_PER_ROUND):
            queries.extend(self._expr_queries(rng))
        queries.extend(self._model_queries(rng, f"{tag}-model.json"))
        queries.append(self._opens_query(rng, f"{tag}-opens.json"))
        return queries

    def _atom(self, rng, scattered_only):
        r = rng.random()
        if r < 0.3:
            return ("D", rng.randint(1, 4 if scattered_only else 99))
        if r < 0.4:
            return ("SProd", rng.randint(1, 2 if scattered_only else 5))
        return (rng.choice(("P", "SZp")),) if scattered_only else (rng.choice(self.ATOMS),)

    def _expr(self, rng, depth, scattered_only):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return self._atom(rng, scattered_only)
        if r < 0.4:
            return ("pow", self._atom(rng, scattered_only), rng.randint(2, 3))
        op = "*" if r < 0.7 else "+"
        return (op, self._expr(rng, depth - 1, scattered_only), self._expr(rng, depth - 1, scattered_only))

    def _expr_queries(self, rng):
        while True:
            e = self._expr(rng, 3, False)
            text = render(e)
            if self.fresh(f"expr {text}"):
                break
        s = summary(e)
        kind, n = verdict_of(s)
        want = {"rank": s[0], "scattered": s[1], "hull_nonempty": s[2]}

        def check_summary(out):
            return out["summary"] == want

        def check_dim(out):
            return out["verdict"]["kind"] == kind and out["verdict"]["n"] == n

        return [
            Query(["rank", text, "--format", "json"], _json_check(check_summary), "rank"),
            Query(["dim", text, "--format", "json"], _json_check(check_dim), "dim"),
            Query(["decompose", text, "--format", "json"], _json_check(check_summary), "decompose"),
        ]

    def _model_queries(self, rng, name):
        lib = self.lib
        while True:
            e = self._expr(rng, 2, True)
            rank = summary(e)[0]
            branches = rng.randint(2, 4)
            points = model_points(e, branches)
            if rank < 2 or points > self.MODEL_POINTS_CAP:
                continue
            doc = lib.space_to_json(lib.finite_model(lib.parse_expr(render(e)), branches))
            if self.fresh("model " + json.dumps(doc, sort_keys=True)):
                break
        nbhd = nbhd_of(doc)
        self.inputs.add(nbhd, self.constant_max_stalk(nbhd))
        path = os.path.join(self.workdir, name)

        def check_model(out):
            got = nbhd_of(out)
            return cb_rank(got) == rank and is_branch_rich(got) and len(got) == points

        def check_rank(out):
            return out["rank"] == rank and out["points"] == points

        return [
            Query(["model", render(e), "--branches", str(branches), "--out", path, "--format", "json"],
                  _json_check(check_model), "model"),
            Query(["rank", "--space", path, "--format", "json"], _json_check(check_rank), "rank-space"),
        ]

    def _opens_query(self, rng, name):
        while True:
            n = rng.randint(3, 6)
            nbhd = layered_poset(rng, n, rng.randint(1, n), rng.uniform(0.2, 0.6))
            if rng.random() < 0.5:
                nbhd = add_clusters(rng, nbhd, 1)
            opens = open_sets(nbhd)
            if len(opens) <= self.OPENS_CAP and self.fresh("opens " + json.dumps(space_doc(nbhd), sort_keys=True)):
                break
        self.inputs.add(nbhd, self.constant_max_stalk(nbhd))
        path = self.write(name, {"points": sorted(nbhd), "opens": opens})
        rank = cb_rank(nbhd)

        def check(out):
            return out["rank"] == rank and out["points"] == len(nbhd)

        return Query(["rank", "--space", path, "--format", "json"], _json_check(check), "rank-opens")


def model_points(e, branches):
    """Points of the finite model: P is a star with `branches` leaves."""
    op = e[0]
    if op in ("P", "SZp"):
        return branches + 1
    if op == "D":
        return e[1]
    if op == "SProd":
        return (branches + 1) ** e[1]
    if op == "pow":
        return model_points(e[1], branches) ** e[2]
    a, b = model_points(e[1], branches), model_points(e[2], branches)
    return a * b if op == "*" else a + b


WORKLOADS = {w.name: w for w in (CatDim, SheafOps, Symbolic)}
