"""Seeded random corpora shared by the test modules."""

import random

from cbsheaf.godement import projected_term_dims
from cbsheaf.linalg import RatMatrix, image_basis, solve_matrix
from cbsheaf.sheaves import Sheaf, SheafMap, random_sheaf
from cbsheaf.spaces import FiniteSpace


def random_preorder_space(rng, max_points, min_points=1):
    """Random finite space: reflexive-transitive closure of a random relation."""
    n = rng.randint(min_points, max_points)
    pts = [f"p{i}" for i in range(n)]
    below = {x: {x} for x in pts}
    for x in pts:
        for y in pts:
            if x != y and rng.random() < 1.7 / n:
                below[x].add(y)
    changed = True
    while changed:
        changed = False
        for x in pts:
            extra = set()
            for y in below[x]:
                extra |= below[y]
            if not extra <= below[x]:
                below[x] |= extra
                changed = True
    return FiniteSpace(pts, below)


def random_space_with_rank(rng, max_points, min_rank=1):
    while True:
        s = random_preorder_space(rng, max_points)
        if s.cb_rank() >= min_rank:
            return s


def adaptive_max_len(space, stalk_dims, stalk_cap=60, max_len=None):
    """Longest resolution of at most max_len terms (default: points + 2)
    whose projected term stalks stay below the cap.

    Keeps non-terminating towers on non-T0 clusters from blowing up the
    corpus runs; the projection is exact, so nothing is built twice.
    """
    limit = max_len if max_len is not None else len(space.points) + 2
    terms, _ = projected_term_dims(space, stalk_dims, limit)
    length = 0
    for term in terms:
        if max(term.values(), default=0) > stalk_cap and length >= 1:
            break
        length += 1
    return max(1, length)


def space_sheaf_corpus(count, *, max_points=6, max_dim=2, seed=2024):
    """The shared (space, sheaf, max_len) corpus for the resolution suites."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = random_preorder_space(rng, max_points)
        F = random_sheaf(s, max_dim, rng.randint(0, 10**6))
        out.append((s, F, adaptive_max_len(s, F.stalk_dim)))
    return out


def random_vector(rng, dim):
    return RatMatrix(dim, 1, {(i, 0): rng.randint(-2, 2) for i in range(dim)})


def random_subsheaf(B, rng):
    """A random subsheaf of B with its inclusion: generated by random stalk
    vectors and closed off under restrictions."""
    space = B.base
    gens = {x: [random_vector(rng, B.stalk_dim[x]) for _ in range(rng.randint(0, 2))] for x in space.points}
    basis = {}
    for y in space.points:
        cols = []
        for x in space.points:
            if y in space.min_nbhd[x]:
                for g in gens[x]:
                    cols.append(B.restriction(x, y) @ g)
        stacked = RatMatrix.hstack(cols) if cols else RatMatrix.zeros(B.stalk_dim[y], 0)
        basis[y] = image_basis(stacked).matrix
    dims = {y: basis[y].cols for y in space.points}
    res = {}
    for x in space.points:
        for y in space.min_nbhd[x]:
            if y == x:
                continue
            carried = B.restriction(x, y) @ basis[x]
            m = solve_matrix(basis[y], carried)
            assert m is not None, "generated subsheaf must be closed under restrictions"
            res[(x, y)] = m
    A = Sheaf(space, dims, res)
    return A, SheafMap(A, B, basis)
