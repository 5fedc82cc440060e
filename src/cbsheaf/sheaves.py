"""Sheaves of finite-dimensional Q-vector spaces on a finite space.

A sheaf is stored as its stalks with restriction maps along minimal-
neighborhood containment: for y in U_x a matrix F_x -> F_y, with identity on
x -> x and compatibility under composition (functoriality).  On a finite
space this determines the sheaf completely; sections over general opens are
derived, never stored.  Zero-dimensional stalks are kept explicitly so that
indexing stays total, but only the non-zero restrictions are stored: an
absent pair y in U_x is the zero map, which restriction() builds on demand
and loops that only read entries skip.
"""

from __future__ import annotations

import json
import random
from typing import Iterable, Mapping, Sequence

from .linalg import RatMatrix, SubspacePresentation, _cokernel_parts, induced_map, kernel_basis, rank, solve_matrix
from .spaces import FiniteSpace, _json

# read in place of an absent restriction by loops that only read entries
_ABSENT = RatMatrix.zeros(0, 0)


class Sheaf:
    """Stalk dimensions per point plus rational restriction matrices."""

    __slots__ = ("base", "stalk_dim", "res")

    def __init__(
        self,
        base: FiniteSpace,
        stalk_dim: Mapping[str, int],
        res: Mapping[tuple[str, str], RatMatrix] | None = None,
    ):
        self.base = base
        dims = {}
        for x in base.points:
            d = stalk_dim.get(x, 0)
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"bad stalk dimension at {x!r}: {d!r}")
            dims[x] = d
        self.stalk_dim = dims
        table: dict[tuple[str, str], RatMatrix] = {}
        for (x, y), m in (res or {}).items():
            if x == y:
                continue
            if y not in base.min_nbhd.get(x, ()):
                raise ValueError(f"restriction for invalid pair {(x, y)!r}")
            if (m.rows, m.cols) != (dims[y], dims[x]):
                raise ValueError(f"restriction {x!r}->{y!r} has wrong shape")
            if not m.is_zero():
                table[(x, y)] = m
        self.res = table

    def restriction(self, x: str, y: str) -> RatMatrix:
        if y not in self.base.min_nbhd.get(x, ()):
            raise ValueError(f"no restriction: {y!r} not in the minimal neighborhood of {x!r}")
        if x == y:
            return RatMatrix.identity(self.stalk_dim[x])
        return self.res.get((x, y)) or RatMatrix.zeros(self.stalk_dim[y], self.stalk_dim[x])

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.stalk_dim.values())

    def total_dim(self) -> int:
        return sum(self.stalk_dim.values())

    def validate(self) -> None:
        """Check functoriality: restrictions compose along nested neighborhoods."""
        for x in self.base.points:
            for y in self.base.min_nbhd[x]:
                for z in self.base.min_nbhd[y]:
                    lhs = self.restriction(y, z) @ self.restriction(x, y)
                    if lhs != self.restriction(x, z):
                        raise ValueError(f"functoriality fails along {x!r} -> {y!r} -> {z!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sheaf):
            return NotImplemented
        return (
            self.base == other.base
            and self.stalk_dim == other.stalk_dim
            and self.res == other.res
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Sheaf(dims={{{', '.join(f'{x}:{d}' for x, d in self.stalk_dim.items())}}})"


class SheafMap:
    """A morphism of sheaves: one matrix per point, natural w.r.t. restrictions."""

    __slots__ = ("source", "target", "comp")

    def __init__(self, source: Sheaf, target: Sheaf, comp: Mapping[str, RatMatrix]):
        if source.base != target.base:
            raise ValueError("sheaf map needs source and target on the same base")
        self.source = source
        self.target = target
        table = {}
        for x in source.base.points:
            m = comp.get(x)
            if m is None:
                m = RatMatrix.zeros(target.stalk_dim[x], source.stalk_dim[x])
            if (m.rows, m.cols) != (target.stalk_dim[x], source.stalk_dim[x]):
                raise ValueError(f"component at {x!r} has wrong shape")
            table[x] = m
        self.comp = table

    def validate(self) -> None:
        for x in self.source.base.points:
            for y in self.source.base.min_nbhd[x]:
                if y == x:
                    continue
                lhs = self.target.restriction(x, y) @ self.comp[x]
                rhs = self.comp[y] @ self.source.restriction(x, y)
                if lhs != rhs:
                    raise ValueError(f"naturality fails along {x!r} -> {y!r}")

    def is_mono(self) -> bool:
        return all(rank(m) == m.cols for m in self.comp.values())

    def is_epi(self) -> bool:
        return all(rank(m) == m.rows for m in self.comp.values())

    def then(self, other: "SheafMap") -> "SheafMap":
        """self followed by other."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("composition mismatch")
        return SheafMap(
            self.source,
            other.target,
            {x: other.comp[x] @ self.comp[x] for x in self.source.base.points},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SheafMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.comp == other.comp
        )

    __hash__ = None


def identity_map(F: Sheaf) -> SheafMap:
    return SheafMap(F, F, {x: RatMatrix.identity(F.stalk_dim[x]) for x in F.base.points})


def zero_map(F: Sheaf, G: Sheaf) -> SheafMap:
    return SheafMap(F, G, {})


# -- builders -------------------------------------------------------------------


def zero_sheaf(space: FiniteSpace) -> Sheaf:
    return Sheaf(space, {})


def constant_sheaf(space: FiniteSpace, d: int = 1) -> Sheaf:
    """All stalks Q^d with identity restrictions."""
    if d < 0:
        raise ValueError("negative dimension")
    one = RatMatrix.identity(d)
    res = {(x, y): one for x in space.points for y in space.min_nbhd[x] if y != x}
    return Sheaf(space, {x: d for x in space.points}, res)


def is_constant(F: Sheaf) -> bool:
    return F == constant_sheaf(F.base, max(F.stalk_dim.values(), default=0))


def skyscraper(space: FiniteSpace, x: str, d: int = 1) -> Sheaf:
    """Stalk Q^d on the closure of {x} (all y with x in U_y), zero elsewhere."""
    space.index(x)
    if d < 0:
        raise ValueError("negative dimension")
    support = space.closure(x)
    dims = {y: (d if y in support else 0) for y in space.points}
    one = RatMatrix.identity(d)
    res = {(y, z): one for y in support for z in space.min_nbhd[y] if z != y and z in support}
    return Sheaf(space, dims, res)


def simple_sheaf(space: FiniteSpace, x: str, d: int = 1) -> Sheaf:
    """Stalk Q^d at x only, all restrictions zero.

    Exists only when x is topologically distinguishable from every other
    point: inside a non-T0 cluster the forced isomorphisms contradict the
    zero restrictions.
    """
    space.index(x)
    if d < 0:
        raise ValueError("negative dimension")
    if d > 0 and len(space.point_class(x)) > 1:
        raise ValueError(f"no simple sheaf at {x!r}: point sits in a non-T0 cluster")
    return Sheaf(space, {x: d})


def direct_sum(space: FiniteSpace, summands: Sequence[Sheaf]) -> Sheaf:
    """Pointwise direct sum with block-diagonal restrictions, in summand order."""
    for s in summands:
        if s.base != space:
            raise ValueError("direct sum needs a common base")
    dims = {x: sum(s.stalk_dim[x] for s in summands) for x in space.points}
    blocks: dict[tuple[str, str], dict] = {}
    off = dict.fromkeys(space.points, 0)
    for s in summands:
        for (x, y), m in s.res.items():
            block = blocks.setdefault((x, y), {})
            for (i, j), v in m.entries.items():
                block[(off[y] + i, off[x] + j)] = v
        off = {x: off[x] + s.stalk_dim[x] for x in space.points}
    return Sheaf(space, dims, {(x, y): RatMatrix(dims[y], dims[x], b) for (x, y), b in blocks.items()})


# -- sections --------------------------------------------------------------------


def sections(F: Sheaf, U: Iterable[str]) -> SubspacePresentation:
    """The space of sections over an open set: compatible stalk families.

    The ambient space is the direct sum of the stalks over U in point order.
    """
    space = F.base
    pts = sorted(set(U), key=space.index)
    if not space.is_open(pts):
        raise ValueError("not open: the set is not closed under minimal neighborhoods")
    offset = {}
    total = 0
    for x in pts:
        offset[x] = total
        total += F.stalk_dim[x]
    rows: dict[tuple[int, int], object] = {}
    nrows = 0
    for x in pts:
        for y in space.nbhd_sorted(x):
            if y == x:
                continue
            for (i, j), v in F.res.get((x, y), _ABSENT).entries.items():
                rows[(nrows + i, offset[x] + j)] = v
            for i in range(F.stalk_dim[y]):
                key = (nrows + i, offset[y] + i)
                rows[key] = rows.get(key, 0) - 1
            nrows += F.stalk_dim[y]
    return kernel_basis(RatMatrix(nrows, total, rows))


# -- kernels, cokernels, hom ------------------------------------------------------


def sheaf_kernel(f: SheafMap) -> tuple[Sheaf, SheafMap]:
    """Stalkwise kernel with induced restrictions and its inclusion."""
    space = f.source.base
    basis = {x: kernel_basis(f.comp[x]).matrix for x in space.points}
    dims = {x: basis[x].cols for x in space.points}
    res = {}
    for x in space.points:
        for y in space.min_nbhd[x]:
            if y == x:
                continue
            carried = f.source.restriction(x, y) @ basis[x]
            m = solve_matrix(basis[y], carried)
            if m is None:
                raise ValueError("not well-defined: restriction does not preserve kernels")
            res[(x, y)] = m
    K = Sheaf(space, dims, res)
    incl = SheafMap(K, f.source, basis)
    return K, incl


def sheaf_cokernel(f: SheafMap) -> tuple[Sheaf, SheafMap]:
    """Stalkwise cokernel with induced restrictions and its projection.

    One elimination per stalk gives q_x, a section s_x and a basis of im f_x;
    once q_y f kills that basis, q_y f s_x is the unique g with g q_x = q_y f.
    """
    space = f.source.base
    parts = {x: _cokernel_parts(f.comp[x]) for x in space.points}
    proj = {x: q for x, (q, _, _) in parts.items()}
    res = {}
    for (x, y), m in f.target.res.items():
        q, section, img = parts[x]
        res[(x, y)] = induced_map(m, q, proj[y], kernel=img, section=section)
    K = Sheaf(space, {x: q.rows for x, q in proj.items()}, res)
    return K, SheafMap(f.target, K, proj)


def _hom_layout(F: Sheaf, G: Sheaf) -> tuple[dict[str, int], int]:
    offset = {}
    total = 0
    for x in F.base.points:
        offset[x] = total
        total += G.stalk_dim[x] * F.stalk_dim[x]
    return offset, total


def hom_sheaves(F: Sheaf, G: Sheaf) -> SubspacePresentation:
    """Basis of the space of sheaf maps F -> G, as vectorized components.

    The ambient coordinates are the entries of the per-point matrices in
    point order, row-major.
    """
    if F.base != G.base:
        raise ValueError("hom needs sheaves on the same base")
    space = F.base
    offset, total = _hom_layout(F, G)
    rows: dict[tuple[int, int], object] = {}
    nrows = 0
    for x in space.points:
        dFx, dGx = F.stalk_dim[x], G.stalk_dim[x]
        for y in space.nbhd_sorted(x):
            if y == x:
                continue
            dFy, dGy = F.stalk_dim[y], G.stalk_dim[y]
            # rows indexed by (r, c) of the d_Gy x d_Fx matrix
            # G.res(x,y) phi_x - phi_y F.res(x,y) = 0
            for (r, k), v in G.res.get((x, y), _ABSENT).entries.items():
                for c in range(dFx):
                    key = (nrows + r * dFx + c, offset[x] + k * dFx + c)
                    rows[key] = rows.get(key, 0) + v
            for (l, c), v in F.res.get((x, y), _ABSENT).entries.items():
                for r in range(dGy):
                    key = (nrows + r * dFx + c, offset[y] + r * dFy + l)
                    rows[key] = rows.get(key, 0) - v
            nrows += dGy * dFx
    return kernel_basis(RatMatrix(nrows, total, rows))


def _map_from_vector(F: Sheaf, G: Sheaf, column: RatMatrix) -> SheafMap:
    offset, _ = _hom_layout(F, G)
    comp = {}
    for x in F.base.points:
        dFx, dGx = F.stalk_dim[x], G.stalk_dim[x]
        entries = {}
        for i in range(dGx):
            for j in range(dFx):
                v = column.get(offset[x] + i * dFx + j, 0)
                if v:
                    entries[(i, j)] = v
        comp[x] = RatMatrix(dGx, dFx, entries)
    return SheafMap(F, G, comp)


def map_to_vector(f: SheafMap) -> RatMatrix:
    """Vectorize a sheaf map in the hom_sheaves coordinate layout."""
    offset, total = _hom_layout(f.source, f.target)
    entries = {}
    for x in f.source.base.points:
        dFx = f.source.stalk_dim[x]
        for (i, j), v in f.comp[x].entries.items():
            entries[(offset[x] + i * dFx + j, 0)] = v
    return RatMatrix(total, 1, entries)


def hom_basis_maps(F: Sheaf, G: Sheaf) -> list[SheafMap]:
    pres = hom_sheaves(F, G)
    return [
        _map_from_vector(F, G, pres.matrix.take_columns([t]))
        for t in range(pres.dim)
    ]


def extend_along_mono(mono: SheafMap, f: SheafMap) -> SheafMap | None:
    """Solve g mono = f for g : B -> T given a mono A -> B and f : A -> T.

    Returns None when no natural extension exists (for injective targets the
    system is always consistent).
    """
    if mono.source != f.source:
        raise ValueError("extension problem needs matching sources")
    B, T = mono.target, f.target
    space = B.base
    offset, total = _hom_layout(B, T)
    rows: dict[tuple[int, int], object] = {}
    rhs: dict[tuple[int, int], object] = {}
    nrows = 0
    # naturality of g
    for x in space.points:
        dBx = B.stalk_dim[x]
        for y in space.nbhd_sorted(x):
            if y == x:
                continue
            dBy, dTy = B.stalk_dim[y], T.stalk_dim[y]
            for (r, k), v in T.res.get((x, y), _ABSENT).entries.items():
                for c in range(dBx):
                    key = (nrows + r * dBx + c, offset[x] + k * dBx + c)
                    rows[key] = rows.get(key, 0) + v
            for (l, c), v in B.res.get((x, y), _ABSENT).entries.items():
                for r in range(dTy):
                    key = (nrows + r * dBx + c, offset[y] + r * dBy + l)
                    rows[key] = rows.get(key, 0) - v
            nrows += dTy * dBx
    # g_x mono_x = f_x
    for x in space.points:
        dAx = mono.source.stalk_dim[x]
        dBx = B.stalk_dim[x]
        dTx = T.stalk_dim[x]
        m = mono.comp[x]
        for (k, c), v in m.entries.items():
            for r in range(dTx):
                key = (nrows + r * dAx + c, offset[x] + r * dBx + k)
                rows[key] = rows.get(key, 0) + v
        for (r, c), v in f.comp[x].entries.items():
            rhs[(nrows + r * dAx + c, 0)] = v
        nrows += dTx * dAx
    a = RatMatrix(nrows, total, rows)
    b = RatMatrix(nrows, 1, rhs)
    solution = solve_matrix(a, b)
    if solution is None:
        return None
    return _map_from_vector(B, T, solution)


# -- random sheaves ----------------------------------------------------------------


def random_sheaf(space: FiniteSpace, max_dim: int, seed: int) -> Sheaf:
    """A reproducible pseudo-random sheaf.

    Stalk dimensions are drawn per indistinguishability class; restriction
    matrices are then drawn from the solution space of the functoriality
    constraints, working along a linear extension of the specialization
    preorder so that every forced composite is respected.  Within a class all
    restrictions are identities and the dimension is constant.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    rng = random.Random(seed)
    seen: set[str] = set()
    classes: list[tuple[str, frozenset[str]]] = []
    for x in space.points:
        if x not in seen:
            cls = space.point_class(x)
            seen |= cls
            classes.append((x, cls))
    # Linear extension: smaller minimal neighborhoods first.
    classes.sort(key=lambda item: (len(space.min_nbhd[item[0]]), space.index(item[0])))
    class_of = {y: rep for rep, cls in classes for y in cls}

    dims: dict[str, int] = {}
    for rep, cls in classes:
        d = rng.randint(0, max_dim)
        for y in cls:
            dims[y] = d

    res: dict[tuple[str, str], RatMatrix] = {}
    for rep, cls in classes:
        for x in cls:
            for y in cls:
                if x != y:
                    res[(x, y)] = RatMatrix.identity(dims[rep])
        target_reps = sorted(
            {class_of[y] for y in space.min_nbhd[rep] if class_of[y] != rep},
            key=space.index,
        )
        if not target_reps:
            continue
        # Unknowns: one matrix per target class rep; constraints: for lower
        # pairs z in U_y the composite through y must reproduce the direct map.
        offset = {}
        total = 0
        for y in target_reps:
            offset[y] = total
            total += dims[y] * dims[rep]
        rows: dict[tuple[int, int], object] = {}
        nrows = 0
        for y in target_reps:
            for z in space.min_nbhd[y]:
                zr = class_of[z]
                if zr == y or zr == rep:
                    continue
                known = res[(y, zr)]
                dz, dy, dx = dims[zr], dims[y], dims[rep]
                for (r, k), v in known.entries.items():
                    for c in range(dx):
                        key = (nrows + r * dx + c, offset[y] + k * dx + c)
                        rows[key] = rows.get(key, 0) + v
                for c in range(dx):
                    for r in range(dz):
                        key = (nrows + r * dx + c, offset[zr] + r * dx + c)
                        rows[key] = rows.get(key, 0) - 1
                nrows += dz * dx
        basis = kernel_basis(RatMatrix(nrows, total, rows))
        combo = {}
        for t in range(basis.dim):
            c = rng.randint(-2, 2)
            if c:
                for (i, _), v in basis.matrix.take_columns([t]).entries.items():
                    combo[i] = combo.get(i, 0) + c * v
        for y in target_reps:
            dy, dx = dims[y], dims[rep]
            entries = {}
            for i in range(dy):
                for j in range(dx):
                    v = combo.get(offset[y] + i * dx + j)
                    if v:
                        entries[(i, j)] = v
            m = RatMatrix(dy, dx, entries)
            for x in cls:
                for z in space.min_nbhd[rep]:
                    if class_of[z] == y:
                        res[(x, z)] = m
    return Sheaf(space, dims, res)


# -- JSON -----------------------------------------------------------------------


def sheaf_to_json(F: Sheaf) -> dict:
    return {
        "stalk_dims": {x: F.stalk_dim[x] for x in sorted(F.base.points)},
        "res": {f"{x}->{y}": m.to_str_rows() for (x, y), m in sorted(F.res.items())},
    }


def sheaf_from_json(space: FiniteSpace, doc: Mapping) -> Sheaf:
    dims = _json(_json(doc, dict, "sheaf document").get("stalk_dims", {}), dict, "'stalk_dims'")
    if not all(type(d) is int for d in dims.values()):
        raise ValueError("'stalk_dims' must map each point to an integer")
    unknown = sorted(dims.keys() - space.min_nbhd.keys())
    if unknown:
        raise ValueError(f"unknown point {unknown[0]!r} in 'stalk_dims'")
    res = {}
    for key, rows in _json(doc.get("res", {}), dict, "'res'").items():
        if "->" not in key:
            raise ValueError(f"bad restriction key: {key!r}")
        x, y = key.split("->", 1)
        unknown = sorted({x, y} - space.min_nbhd.keys())
        if unknown:
            raise ValueError(f"unknown point {unknown[0]!r} in restriction {key!r}")
        rows = [_json(row, list, f"a row of {key!r}") for row in _json(rows, list, f"restriction {key!r}")]
        m = RatMatrix.from_rows(rows, cols=dims.get(x, 0))
        if x == y:
            if m != RatMatrix.identity(dims.get(x, 0)):
                raise ValueError(f"restriction {key!r} must be the identity")
            continue
        res[(x, y)] = m
    return Sheaf(space, dims, res)


def save_sheaf(F: Sheaf, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sheaf_to_json(F), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sheaf(space: FiniteSpace, path) -> Sheaf:
    with open(path, encoding="utf-8") as fh:
        return sheaf_from_json(space, json.load(fh))
