"""Reference paths that the library's fast constructions are checked against."""

from cbsheaf.extdim import (
    CONJ_PERFECT_HULL,
    PROV_GODEMENT,
    PROV_SUPPORT_BOUND,
    DimensionVerdict,
    ExtComplex,
    ext_dims_of_complex,
    hom_complex,
)
from cbsheaf.godement import build_resolution
from cbsheaf.linalg import RatMatrix, cokernel, image_basis, induced_map, right_inverse, solve_matrix
from cbsheaf.sheaves import (
    Sheaf,
    SheafMap,
    constant_sheaf,
    extend_along_mono,
    hom_basis_maps,
    identity_map,
    map_to_vector,
    random_sheaf,
    simple_sheaf,
    skyscraper,
)
from corpus import adaptive_max_len


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


def full_test_objects(space):
    """Every test object with its duplicates: a skyscraper at every point, a
    simple sheaf at every point alone in its class, then the constant sheaf."""
    pts = sorted(_deepest_first(space), key=lambda x: not space.is_closed_point(x))
    tests = [(f"skyscraper at {x}", skyscraper(space, x, 1)) for x in pts]
    tests += [(f"simple sheaf at {x}", simple_sheaf(space, x, 1)) for x in pts if len(space.point_class(x)) == 1]
    return tests + [("constant sheaf", constant_sheaf(space, 1))]


def _deepest_first(space):
    hts = space.heights()
    big = len(space.points) + 1
    return sorted(space.points, key=lambda x: (-(hts.get(x, big)), space.index(x)))


def _full_scan(resolved, tests, upper):
    """Every (sheaf, test) pair in order, each with its whole hom complex and
    every Ext degree, until lower reaches upper."""
    lower = 0
    witness = None
    for f_label, r in resolved:
        available = r.length - 1 if r.terminated else r.length - 2
        if available < 0:
            continue
        for t_label, T in tests:
            dims = ext_dims_of_complex(hom_complex(T, r), r.terminated, available)
            top = max((k for k, d in dims.items() if d), default=None)
            if top is not None and (top > lower or witness is None):
                lower = max(lower, top)
                witness = f"Ext^{top}({t_label}, {f_label}) has dimension {dims[top]}"
            if upper is not None and lower == upper:
                return lower, witness
    return lower, witness


def full_scan_bounds(F, *, max_len=None, stalk_cap=600):
    """injective_dimension_bounds from the whole capped resolution, scanning
    every test object's full hom complex."""
    space = F.base
    r = build_resolution(F, adaptive_max_len(space, F.stalk_dim, stalk_cap, max_len))
    upper = r.length - 1 if r.terminated else None
    if upper != 0 and extend_along_mono(r.units[0], identity_map(F)) is not None:
        upper = 0
    lower, witness = _full_scan([("F", r)], full_test_objects(space), upper)
    if upper is not None and lower == upper:
        return DimensionVerdict.exact(upper, PROV_GODEMENT, witness)
    prov = PROV_GODEMENT if upper is not None else f"{PROV_GODEMENT} (truncated); {CONJ_PERFECT_HULL} open"
    return DimensionVerdict.bounds(lower, upper, prov, witness)


def full_scan_category(space, *, max_len=None, stalk_cap=600, random_sheaves=0, max_random_dim=2, seed=0):
    """category_dimension resolving every scanned sheaf in full and scanning
    every (sheaf, test) pair's full hom complex."""
    if not space.points:
        return DimensionVerdict.trivial_category()
    _, hull = space.decompose()
    upper = space.cb_rank() - 1 if not hull else None
    pts = _deepest_first(space)
    scan = [("constant sheaf", constant_sheaf(space, 1))]
    scan += [(f"skyscraper at {x}", skyscraper(space, x, 1)) for x in pts]
    scan += [(f"simple sheaf at {x}", simple_sheaf(space, x, 1)) for x in pts if len(space.point_class(x)) == 1]
    scan += [
        (f"random sheaf (seed {seed + i})", random_sheaf(space, max_random_dim, seed + i))
        for i in range(random_sheaves)
    ]
    resolved = (
        (label, build_resolution(F, adaptive_max_len(space, F.stalk_dim, stalk_cap, max_len)))
        for label, F in scan
    )
    lower, witness = _full_scan(resolved, full_test_objects(space), upper)
    if upper is not None:
        if lower == upper:
            return DimensionVerdict.exact(upper, f"{PROV_SUPPORT_BOUND}; witness found", witness)
        return DimensionVerdict.bounds(lower, upper, PROV_SUPPORT_BOUND, witness)
    return DimensionVerdict.bounds(lower, None, f"non-terminating resolutions; {CONJ_PERFECT_HULL} open", witness)
