"""Finite topological spaces and the Cantor-Bendixson machinery.

A finite space is stored through its minimal open neighborhoods: U_x is the
intersection of all open sets containing x.  A subset is open exactly when it
is closed under taking minimal neighborhoods of its members, so the pair
(points, U) encodes the topology completely.  Read y in U_x as "y lies in
every open set around x"; this is the specialization preorder, and spaces are
allowed to be non-T0 (distinct points may have equal neighborhoods).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class CbFiltration:
    """The derivative filtration X(0) >= X(1) >= ..., ending at the first repeat."""

    levels: tuple[frozenset[str], ...]

    @property
    def rank(self) -> int:
        return len(self.levels) - 2

    @property
    def stable(self) -> frozenset[str]:
        return self.levels[-1]

    def level(self, k: int) -> frozenset[str]:
        if k < 0:
            raise ValueError("negative filtration index")
        return self.levels[min(k, len(self.levels) - 1)]


class FiniteSpace:
    """A finite space given by its minimal-neighborhood system.

    The point order is fixed at construction and determines every basis
    ordering downstream, so two runs over the same input agree bit for bit.
    """

    __slots__ = ("points", "min_nbhd", "_index", "_filtration")

    def __init__(self, points: Sequence[str], min_nbhd: Mapping[str, Iterable[str]], validate: bool = True):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate point identifiers")
        index = {x: i for i, x in enumerate(pts)}
        nbhd: dict[str, frozenset[str]] = {}
        for x in pts:
            if x not in min_nbhd:
                raise ValueError(f"unknown point: no neighborhood given for {x!r}")
            nbhd[x] = frozenset(min_nbhd[x])
        self.points = pts
        self.min_nbhd = nbhd
        self._index = index
        self._filtration = None
        if validate:
            for x in min_nbhd:
                if x not in index:
                    raise ValueError(f"unknown point: {x!r}")
            for x, u in nbhd.items():
                for y in u:
                    if y not in index:
                        raise ValueError(f"unknown point: {y!r} in neighborhood of {x!r}")
                if x not in u:
                    raise ValueError(f"not a neighborhood system: {x!r} missing from its own U")
            for x, u in nbhd.items():
                for y in u:
                    if not nbhd[y] <= u:
                        raise ValueError(
                            f"not a neighborhood system: U_{y!r} not contained in U_{x!r}"
                        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_open_sets(cls, points: Sequence[str], opens: Iterable[Iterable[str]]) -> "FiniteSpace":
        """Build a space from an explicit list of open sets.

        Validates that the list is a topology: contains the empty and full
        sets and is closed under pairwise union and intersection.
        """
        pts = tuple(points)
        known = set(pts)
        open_sets = []
        for o in opens:
            s = frozenset(o)
            for y in s:
                if y not in known:
                    raise ValueError(f"unknown point: {y!r}")
            open_sets.append(s)
        family = set(open_sets)
        if frozenset() not in family:
            raise ValueError("not a topology: empty set missing")
        if frozenset(pts) not in family:
            raise ValueError("not a topology: full set missing")
        sets = sorted(family, key=lambda s: (len(s), sorted(s)))
        for a in sets:
            for b in sets:
                if a | b not in family:
                    raise ValueError(f"not a topology: union of {sorted(a)} and {sorted(b)} is not open")
                if a & b not in family:
                    raise ValueError(
                        f"not a topology: intersection of {sorted(a)} and {sorted(b)} is not open"
                    )
        nbhd = {}
        for x in pts:
            u = frozenset(pts)
            for o in family:
                if x in o:
                    u &= o
            nbhd[x] = u
        return cls(pts, nbhd)

    # -- basic queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.min_nbhd == other.min_nbhd

    __hash__ = None

    def __repr__(self) -> str:
        return f"FiniteSpace({len(self.points)} points)"

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"unknown point: {x!r}") from None

    def nbhd(self, x: str) -> frozenset[str]:
        self.index(x)
        return self.min_nbhd[x]

    def nbhd_sorted(self, x: str) -> tuple[str, ...]:
        """U_x in point order; the canonical block order for stalk products."""
        return tuple(sorted(self.nbhd(x), key=self._index.__getitem__))

    def is_open(self, subset: Iterable[str]) -> bool:
        s = set(subset)
        for x in s:
            self.index(x)
        return all(self.min_nbhd[x] <= s for x in s)

    def closure(self, x: str) -> frozenset[str]:
        """Closure of {x}: the points whose every open neighborhood contains x."""
        self.index(x)
        return frozenset(y for y in self.points if x in self.min_nbhd[y])

    def is_closed_point(self, x: str) -> bool:
        return self.closure(x) == {x}

    def point_class(self, x: str) -> frozenset[str]:
        """Topological indistinguishability class of x (non-T0 cluster)."""
        u = self.nbhd(x)
        return frozenset(y for y in u if x in self.min_nbhd[y])

    # -- Cantor-Bendixson --------------------------------------------------------

    def isolated_points(self, subset: Iterable[str] | None = None) -> frozenset[str]:
        """Points isolated in the subspace topology on subset (default: all)."""
        if subset is None:
            s = frozenset(self.points)
        else:
            s = frozenset(subset)
            for x in s:
                self.index(x)
        return frozenset(x for x in s if self.min_nbhd[x] & s == {x})

    def cb_filtration(self) -> CbFiltration:
        if self._filtration is None:
            levels = [frozenset(self.points)]
            while len(levels) < 2 or levels[-1] != levels[-2]:
                levels.append(levels[-1] - self.isolated_points(levels[-1]))
            if len(levels) > len(self.points) + 2:
                raise ValueError("Cantor-Bendixson filtration did not stabilize")
            self._filtration = CbFiltration(tuple(levels))
        return self._filtration

    def cb_rank(self) -> int:
        return self.cb_filtration().rank

    def decompose(self) -> tuple[frozenset[str], frozenset[str]]:
        """(scattered part, perfect hull)."""
        hull = self.cb_filtration().stable
        return frozenset(self.points) - hull, hull

    def heights(self) -> dict[str, int]:
        """Height of every scattered point: the stage at which it is removed."""
        filt = self.cb_filtration()
        out = {}
        for k in range(len(filt.levels) - 1):
            for x in filt.levels[k] - filt.levels[k + 1]:
                out[x] = k
        return out

    def height(self, x: str) -> int:
        self.index(x)
        hts = self.heights()
        if x not in hts:
            raise ValueError(f"point in perfect hull: {x!r} is never removed")
        return hts[x]

    def is_scattered(self) -> bool:
        return not self.cb_filtration().stable


def product(a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    """Product space; minimal neighborhoods multiply, order is lexicographic."""
    points = [f"({x},{y})" for x in a.points for y in b.points]
    nbhd = {}
    for x in a.points:
        for y in b.points:
            nbhd[f"({x},{y})"] = {f"({u},{v})" for u in a.min_nbhd[x] for v in b.min_nbhd[y]}
    return FiniteSpace(points, nbhd, validate=False)


def disjoint_union(a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    """Coproduct; names are kept when the point sets are disjoint."""
    if set(a.points) & set(b.points):
        rename_a = {x: f"a:{x}" for x in a.points}
        rename_b = {x: f"b:{x}" for x in b.points}
    else:
        rename_a = {x: x for x in a.points}
        rename_b = {x: x for x in b.points}
    points = [rename_a[x] for x in a.points] + [rename_b[x] for x in b.points]
    nbhd = {rename_a[x]: {rename_a[y] for y in a.min_nbhd[x]} for x in a.points}
    nbhd.update({rename_b[x]: {rename_b[y] for y in b.min_nbhd[x]} for x in b.points})
    space = FiniteSpace(points, nbhd, validate=False)
    if space.cb_rank() != max(a.cb_rank(), b.cb_rank()):
        raise ValueError("disjoint union changed the Cantor-Bendixson rank")
    return space


# -- stock spaces -------------------------------------------------------------


def empty_space() -> FiniteSpace:
    return FiniteSpace((), {})


def discrete_space(n: int, prefix: str = "p") -> FiniteSpace:
    points = [f"{prefix}{i}" for i in range(n)]
    return FiniteSpace(points, {x: {x} for x in points})


def star_space(branches: int, center: str = "c", leaf: str = "l") -> FiniteSpace:
    """A closed center under `branches` open leaves; the finite model of a
    convergent sequence with its limit."""
    if branches < 1:
        raise ValueError("star needs at least one leaf")
    leaves = [f"{leaf}{i}" for i in range(1, branches + 1)]
    points = [center] + leaves
    nbhd = {center: set(points)}
    nbhd.update({x: {x} for x in leaves})
    return FiniteSpace(points, nbhd)

def sierpinski_space() -> FiniteSpace:
    """Two points a < b with {a} open: the single-branch chain."""
    return FiniteSpace(("a", "b"), {"a": {"a"}, "b": {"a", "b"}})


def indiscrete_space(n: int, prefix: str = "q") -> FiniteSpace:
    points = [f"{prefix}{i}" for i in range(n)]
    full = set(points)
    return FiniteSpace(points, {x: full for x in points})


def chain_space(n: int, prefix: str = "t") -> FiniteSpace:
    """Points t0 < t1 < ... with U_{ti} = {t0..ti}; heights 0..n-1."""
    points = [f"{prefix}{i}" for i in range(n)]
    return FiniteSpace(points, {points[i]: set(points[: i + 1]) for i in range(n)})


# -- branch-richness -----------------------------------------------------------


def point_is_branch_rich(space: FiniteSpace, x: str, heights: Mapping[str, int] | None = None) -> bool:
    """Whether x (height k >= 1) sees at least two height-(k-1) points in U_x."""
    hts = heights if heights is not None else space.heights()
    k = hts.get(x)
    if k is None or k < 1:
        return False
    return sum(1 for y in space.nbhd(x) if hts.get(y) == k - 1) >= 2


def is_branch_rich(space: FiniteSpace) -> bool:
    """Every scattered point of positive height is branch-rich."""
    hts = space.heights()
    return all(
        point_is_branch_rich(space, x, hts) for x, k in hts.items() if k >= 1
    )


# -- JSON ----------------------------------------------------------------------


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "points": sorted(space.points),
        "min_nbhd": {x: sorted(space.min_nbhd[x]) for x in sorted(space.points)},
    }


def _json(value, kind: type, what: str):
    """value when it has the JSON type kind (dict or list); else a ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _names(value, what: str) -> list[str]:
    if not all(isinstance(v, (str, int)) for v in _json(value, list, what)):
        raise ValueError(f"{what} must list point names")
    return [str(v) for v in value]


def space_from_json(doc: Mapping) -> FiniteSpace:
    if "points" not in _json(doc, dict, "space document"):
        raise ValueError("space document needs a 'points' field")
    points = _names(doc["points"], "'points'")
    if "min_nbhd" in doc:
        nbhd = _json(doc["min_nbhd"], dict, "'min_nbhd'")
        return FiniteSpace(points, {str(k): _names(vs, f"'min_nbhd' of {k!r}") for k, vs in nbhd.items()})
    if "opens" in doc:
        opens = _json(doc["opens"], list, "'opens'")
        return FiniteSpace.from_open_sets(points, [_names(o, "an open set") for o in opens])
    raise ValueError("space document needs either 'min_nbhd' or 'opens'")


def save_space(space: FiniteSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_json(space), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_space(path) -> FiniteSpace:
    with open(path, encoding="utf-8") as fh:
        return space_from_json(json.load(fh))
