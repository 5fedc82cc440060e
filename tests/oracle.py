"""Reference paths that the library's fast constructions are checked against."""

from cbsheaf.extdim import ExtComplex
from cbsheaf.linalg import RatMatrix, cokernel, image_basis, induced_map, right_inverse, solve_matrix
from cbsheaf.sheaves import Sheaf, SheafMap, hom_basis_maps, map_to_vector


def generic_hom_complex(T, r, point=None):
    """hom(T, C^.) by eliminating for each hom-space basis and solving every
    composite f delta_(k+1) against the next basis.

    Returns the complex and the basis maps of each degree.
    """
    bases = [hom_basis_maps(T, term) for term in r.terms]
    degrees = [len(b) for b in bases]
    alphas = []
    for k in range(r.length - 1):
        delta = r.delta(k + 1)
        target = RatMatrix.hstack([map_to_vector(f) for f in bases[k + 1]]) if bases[k + 1] else RatMatrix.zeros(0, 0)
        cols = []
        for f in bases[k]:
            composed = map_to_vector(f.then(delta))
            if degrees[k + 1] == 0:
                if not composed.is_zero():
                    raise ValueError("composite escapes the morphism space")
                cols.append(RatMatrix.zeros(0, 1))
                continue
            coords = solve_matrix(target, composed)
            if coords is None:
                raise ValueError("composite escapes the morphism space")
            cols.append(coords)
        alphas.append(RatMatrix.hstack(cols) if cols else RatMatrix.zeros(degrees[k + 1], 0))
    return ExtComplex(point, degrees, alphas), bases


def adjunction_coordinates(f, K):
    """The coordinates of f : T -> C0(K) under hom(T, C0(K)) = sum of
    Hom(T_y, K_y): for each point y in order, the y-factor of the component
    at y, row-major."""
    space = K.base
    entries = {}
    total = 0
    for y in space.points:
        off = sum(K.stalk_dim[w] for w in space.nbhd_sorted(y) if space.index(w) < space.index(y))
        dT = f.source.stalk_dim[y]
        for (i, j), v in f.comp[y].entries.items():
            if off <= i < off + K.stalk_dim[y]:
                entries[(total + (i - off) * dT + j, 0)] = v
        total += K.stalk_dim[y] * dT
    return RatMatrix(total, 1, entries)


def three_elimination_sheaf_cokernel(f):
    """The stalkwise cokernel of f with three eliminations per stalk: the
    projection from cokernel, a section solved for by right_inverse, and the
    image basis of the original pivot columns."""
    space = f.source.base
    proj = {}
    dims = {}
    section = {}
    img = {}
    for x in space.points:
        q, d = cokernel(f.comp[x])
        proj[x] = q
        dims[x] = d
        section[x] = right_inverse(q)
        img[x] = image_basis(f.comp[x]).matrix
    res = {}
    for x in space.points:
        for y in space.min_nbhd[x]:
            if y == x:
                continue
            res[(x, y)] = induced_map(
                f.target.restriction(x, y),
                proj[x],
                proj[y],
                kernel=img[x],
                section=section[x],
            )
    K = Sheaf(space, dims, res)
    return K, SheafMap(f.target, K, proj)
