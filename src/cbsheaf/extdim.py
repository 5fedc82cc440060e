"""Ext groups against Godement resolutions and injective-dimension verdicts.

Applying hom(T, -) to the resolution terms gives a complex of morphism
spaces; its cohomology computes Ext^k(T, F) because the resolution is
injective.  The complex is written in closed form from the Godement
adjunction: C^k = C0(K_k) is the product over y of the skyscrapers
(i_y)_* K_k[y], so hom(T, C^k) = sum over y of Hom_Q(T_y, K_k[y]), and the
map alpha_k induced by delta_(k+1) sends a family (phi_y) to the family whose
entry at z is projections[k] at z applied to the stacked blocks
phi_y T.res(z, y), y in U_z.  The only elimination on the Ext path is the
rank of each alpha_k.

Verdicts combine the structural upper bound (terms vanish past the
Cantor-Bendixson rank) with witnesses found by scanning a family of test
objects; a truncated non-terminating resolution only ever yields bounds,
never an "infinite" claim.

The scan is pruned exactly: a verdict reads only the final lower bound and
the witness, the first (sheaf, test) pair whose top non-zero Ext degree
exceeds the running lower bound, so once a witness exists only degrees in
(lower, available] matter.  Resolution lengths are planned from projected
dimensions (exact, as every serration unit is stalkwise injective); a sheaf
with no such degree is not resolved, and a test searches them top down,
building an alpha_k only when a non-zero degree needs its rank.

Skipped exactly: a skyscraper (i_x)_*Q is injective (hom(G, (i_x)_*Q) =
Hom_Q(G_x, Q) is exact in G), so its Ext vanishes above degree 0 and, once a
witness exists, it is skipped unplanned.  A later copy of an earlier sheaf
finds the same Ext above a bound that has not fallen, so only first copies
are listed: one skyscraper per point class, no simple sheaf at a closed point
x (the skyscraper at x), no constant test sheaf where a skyscraper has full
support.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import RatMatrix, rank
from .godement import GodementResolution, build_resolution, projected_term_dims
from .sheaves import (
    _ABSENT,
    Sheaf,
    SheafMap,
    constant_sheaf,
    extend_along_mono,
    hom_basis_maps,
    identity_map,
    random_sheaf,
    simple_sheaf,
    skyscraper,
)
from .spaces import FiniteSpace

# Provenance labels used in verdicts.  The names describe the supporting
# statement; they double as the "citation" strings in JSON output.
THM_SCATTERED = "scattered_finite_rank_theorem"
THM_INFINITE_RANK = "infinite_rank_theorem"
CONJ_PERFECT_HULL = "perfect_hull_conjecture"
PROV_GODEMENT = "godement_resolution"
PROV_SUPPORT_BOUND = "derivative_support_bound"
PROV_EMPTY = "empty_space"


@dataclass
class ExtComplex:
    """hom(T, C^k) for the resolution terms, with the induced maps alpha.

    point is the base point when T is a skyscraper there, else None.
    degrees[k] is the dimension of the k-th morphism space and alphas[k] the
    matrix of composition with delta_(k+1) in the adjunction coordinates
    (see hom_complex).
    """

    point: str | None
    degrees: list[int]
    alphas: list[RatMatrix]

    def validate(self) -> None:
        for k in range(len(self.alphas) - 1):
            if not (self.alphas[k + 1] @ self.alphas[k]).is_zero():
                raise ValueError(f"alpha_{k + 2} alpha_{k + 1} != 0")


@dataclass
class ExtReport:
    """Cohomology dimensions ker(alpha_(k+1)) / im(alpha_k) by degree."""

    point: str | None
    ext_dims: dict[int, int]

    def to_json(self) -> dict:
        return {str(k): self.ext_dims[k] for k in sorted(self.ext_dims)}


@dataclass
class DimensionVerdict:
    """Injective-dimension statement for a sheaf or a whole category.

    kind is one of exact / bounds / infinite / conjectured_infinite /
    trivial_category; upper None means unbounded-so-far.
    """

    kind: str
    n: int | None = None
    lower: int | None = None
    upper: int | None = None
    provenance: str = ""
    witness: str | None = None

    @classmethod
    def exact(cls, n: int, provenance: str, witness: str | None = None) -> "DimensionVerdict":
        return cls("exact", n=n, lower=n, upper=n, provenance=provenance, witness=witness)

    @classmethod
    def bounds(cls, lower: int, upper: int | None, provenance: str, witness: str | None = None) -> "DimensionVerdict":
        return cls("bounds", lower=lower, upper=upper, provenance=provenance, witness=witness)

    @classmethod
    def infinite(cls, provenance: str) -> "DimensionVerdict":
        return cls("infinite", provenance=provenance)

    @classmethod
    def conjectured_infinite(cls, provenance: str) -> "DimensionVerdict":
        return cls("conjectured_infinite", provenance=provenance)

    @classmethod
    def trivial_category(cls) -> "DimensionVerdict":
        return cls("trivial_category", provenance=PROV_EMPTY)

    def to_json(self) -> dict:
        return asdict(self)


# -- complexes -------------------------------------------------------------------


def _layout(T: Sheaf, sources: Sequence[Sheaf]) -> tuple[list[dict[str, int]], list[int]]:
    """Coordinates of hom(T, C0(K)) for each K in sources: the offset of the
    block Hom_Q(T_y, K[y]) at each point y, and the dimension of each degree."""
    offsets, degrees = [], []
    for K in sources:
        off, total = {}, 0
        for y in T.base.points:
            off[y] = total
            total += T.stalk_dim[y] * K.stalk_dim[y]
        offsets.append(off)
        degrees.append(total)
    return offsets, degrees


def _alpha(T: Sheaf, K: Sheaf, projection: SheafMap, offsets: list, degrees: list[int], k: int) -> RatMatrix:
    """alpha_k from hom(T, C0(K)) to the next degree, K the k-th source, with
    no elimination (see hom_complex)."""
    space = T.base
    dT = T.stalk_dim
    entries = {}
    for z in space.points:
        if not dT[z]:
            continue
        # column of C^k[z] -> (first coordinate of that row of phi_y, T.res(z, y))
        blocks = []
        for y in space.nbhd_sorted(z):
            res = T.res.get((z, y), _ABSENT).entries.items() if y != z else [((i, i), 1) for i in range(dT[z])]
            blocks.extend((offsets[k][y] + c * dT[y], res) for c in range(K.stalk_dim[y]))
        for (a, col), p in projection.comp[z].entries.items():
            col0, res = blocks[col]
            row0 = offsets[k + 1][z] + a * dT[z]
            for (d, b), v in res:
                entries[(row0 + b, col0 + d)] = p * v
    return RatMatrix._trusted(degrees[k + 1], degrees[k], entries)


def hom_complex(T: Sheaf, r: GodementResolution, point: str | None = None) -> ExtComplex:
    """Apply hom(T, -) to the resolution terms and drop the augmentation.

    Written down directly from the adjunction, with no elimination.  With
    K_0 = F and K_k = cokers[k-1], hom(T, C^k) = sum over y of
    Hom_Q(T_y, K_k[y]); its coordinates are the entries of the matrices phi_y,
    points in point order, each matrix row-major, so degree k has dimension
    sum over y of dim T_y * dim K_k[y].  A family (phi_y) is the sheaf map
    whose component at z stacks phi_y T.res(z, y) over y in U_z.  The z-factor
    of the unit into C^(k+1) is the identity at z, so alpha_k sends (phi_y) to
    the family whose entry at z is projections[k].comp[z] applied to that stack.
    """
    sources = [r.sheaf] + r.cokers[: r.length - 1]
    offsets, degrees = _layout(T, sources)
    alphas = [_alpha(T, sources[k], r.projections[k], offsets, degrees, k) for k in range(r.length - 1)]
    return ExtComplex(point, degrees, alphas)


def hom_into_resolution(x: str, r: GodementResolution) -> ExtComplex:
    """The complex hom(skyscraper at x with fiber Q, C^.)."""
    T = skyscraper(r.sheaf.base, x, 1)
    return hom_complex(T, r, point=x)


def ext_dims_of_complex(c: ExtComplex, terminated: bool, max_degree: int) -> dict[int, int]:
    """Cohomology dimensions of the complex up to max_degree.

    For a terminated resolution all degrees are available (higher terms are
    genuinely zero); a truncated resolution supports degrees only up to
    length - 2, beyond which the data is silently clipped -- hence the error.
    """
    length = len(c.degrees)
    if not terminated and max_degree > length - 2:
        raise ValueError(
            f"insufficient resolution length: degree {max_degree} exceeds "
            f"available degree {length - 2} (resolution not terminated)"
        )
    ranks = [0] + [rank(a) for a in c.alphas] + [0]  # ranks[k + 1] is the rank of alpha_k
    return {k: c.degrees[k] - ranks[k + 1] - ranks[k] if k < length else 0 for k in range(max_degree + 1)}


def ext_groups(
    F: Sheaf,
    x: str,
    max_degree: int | None = None,
    *,
    max_len: int | None = None,
    resolution: GodementResolution | None = None,
) -> ExtReport:
    """Ext^k(skyscraper at x with fiber Q, F) from the Godement resolution."""
    r = resolution if resolution is not None else build_resolution(F, max_len)
    c = hom_into_resolution(x, r)
    if max_degree is None:
        max_degree = r.length - 1 if r.terminated else r.length - 2
        if max_degree < 0:
            raise ValueError("insufficient resolution length: no degree is available")
    return ExtReport(x, ext_dims_of_complex(c, r.terminated, max_degree))


# -- dimension verdicts ------------------------------------------------------------


def _deepest_first(space: FiniteSpace) -> list[str]:
    """Points by height, deepest first (hull points deepest), then in point order."""
    hts = space.heights()
    big = len(space.points) + 1
    return sorted(space.points, key=lambda x: (-hts.get(x, big), space.index(x)))


def _test_objects(space: FiniteSpace) -> list[tuple[str, Sheaf]]:
    """Skyscrapers first (closed points by height, deepest first), then simples,
    then the constant sheaf, each distinct sheaf once (see the module docstring)."""
    pts = sorted(_deepest_first(space), key=lambda x: not space.is_closed_point(x))
    firsts = [x for x in pts if x == min(space.point_class(x), key=space.index)]
    tests = [(f"skyscraper at {x}", skyscraper(space, x, 1)) for x in firsts]
    for x in pts:
        if len(space.point_class(x)) == 1 and not space.is_closed_point(x):
            tests.append((f"simple sheaf at {x}", simple_sheaf(space, x, 1)))
    if not any(all(T.stalk_dim.values()) for _, T in tests):
        tests.append(("constant sheaf", constant_sheaf(space, 1)))
    return tests


def _resolution_cap(
    space: FiniteSpace, dims: Mapping[str, int], requested: int | None, stalk_cap: int
) -> tuple[int, bool]:
    """Length of the longest resolution whose projected term stalks stay
    within stalk_cap (at least one term), and whether it terminates."""
    if requested is not None and requested < 1:
        raise ValueError("max_len must be >= 1")
    limit = requested if requested is not None else len(space.points) + 2
    terms, cokers = projected_term_dims(space, dims, limit)
    length = 0
    for term in terms:
        if max(term.values(), default=0) > stalk_cap and length >= 1:
            break
        length += 1
    return length, not any(cokers[length - 1].values())


def _top_ext(T: Sheaf, sources: list[Sheaf], projections: list[SheafMap], available: int, stop: int):
    """The highest k in [stop, available] with Ext^k(T, F) != 0 and its
    dimension, or None; sources are F and the cokernels, one per degree."""
    offsets, degrees = _layout(T, sources)
    ranks = {-1: 0, len(sources) - 1: 0}  # rank of alpha_k, each built once
    for k in range(available, stop - 1, -1):
        if degrees[k]:
            for j in (k, k - 1):
                if j not in ranks:
                    ranks[j] = rank(_alpha(T, sources[j], projections[j], offsets, degrees, j))
            if d := degrees[k] - ranks[k] - ranks[k - 1]:
                return k, d
    return None


def _scan(entries: Iterable, tests: Sequence, upper: int | None, plan: Callable) -> tuple[int, str | None]:
    """The lower bound and the witness over all (sheaf, test) pairs, in order,
    stopping when lower reaches upper.  entries yields (label, F, injective);
    plan(F) gives (L, terminated, r): F's planned resolution and None or a
    resolution of F with at least max(1, L - 1) steps.  See the module
    docstring."""
    lower, witness = 0, None
    for f_label, F, injective in entries:
        if injective and witness is not None:
            continue
        length, terminated, r = plan(F)
        available = length - 1 if terminated else length - 2
        if (lower + 1 if witness is not None else 0) > available:
            continue
        # the closed form reads cokers and projections up to step L - 2
        r = r or build_resolution(F, max(1, length - 1))
        sources = [F] + r.cokers[: length - 1]
        for t_label, T in tests:
            stop = lower + 1 if witness is not None else 0
            if stop > available:
                break
            top = _top_ext(T, sources, r.projections, available, stop)
            if top is not None:
                lower, d = top  # top >= stop, so lower never falls
                witness = f"Ext^{lower}({t_label}, {f_label}) has dimension {d}"
            if upper is not None and lower == upper:
                return lower, witness
    return lower, witness


def injective_dimension_bounds(
    F: Sheaf,
    *,
    max_len: int | None = None,
    stalk_cap: int = 600,
    resolution: GodementResolution | None = None,
) -> DimensionVerdict:
    """Bound the injective dimension of F from its Godement resolution.

    Upper bound: the terminated length minus one (unbounded when the
    resolution does not terminate), refined to zero when the unit splits and
    F is therefore itself injective.  Lower bound: the highest degree with a
    non-vanishing Ext group over the test family.  A given resolution of F
    is read, not rebuilt.
    """
    space = F.base
    length, terminated = _resolution_cap(space, F.stalk_dim, max_len, stalk_cap)
    steps = max(1, length - 1)
    if resolution is None:
        resolution = build_resolution(F, steps)
    elif resolution.length < steps:
        raise ValueError(f"the resolution has {resolution.length} terms; the scan reads {steps}")
    upper = length - 1 if terminated else None
    if upper != 0 and extend_along_mono(resolution.units[0], identity_map(F)) is not None:
        # the unit splits, so F is a direct summand of an injective sheaf
        upper = 0
    lower, witness = _scan([("F", F, False)], _test_objects(space), upper, lambda _: (length, terminated, resolution))
    if upper is not None and lower == upper:
        return DimensionVerdict.exact(upper, PROV_GODEMENT, witness)
    prov = PROV_GODEMENT if upper is not None else f"{PROV_GODEMENT} (truncated); {CONJ_PERFECT_HULL} open"
    return DimensionVerdict.bounds(lower, upper, prov, witness)


def category_dimension(
    space: FiniteSpace,
    *,
    max_len: int | None = None,
    stalk_cap: int = 600,
    random_sheaves: int = 0,
    max_random_dim: int = 2,
    seed: int = 0,
) -> DimensionVerdict:
    """The injective dimension of the whole category of sheaves on the space.

    Scattered spaces get the structural upper bound rank - 1; the lower bound
    scans the constant sheaf, the skyscrapers, the simples and optional
    random sheaves as resolved objects, each distinct sheaf once, against
    the test objects.  On a non-scattered space only bounds are reported,
    with the perfect-hull case recorded as conjectural.
    """
    if random_sheaves < 0:
        raise ValueError("random_sheaves must be >= 0")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")
    if not space.points:
        return DimensionVerdict.trivial_category()
    upper = space.cb_rank() - 1 if space.is_scattered() else None
    tests = _test_objects(space)
    objects = dict(tests)
    # the constant sheaf is scanned first under its own label; where the tests
    # hold it as the skyscraper with full support, that skyscraper is its copy
    constant = objects.get("constant sheaf") or next(T for T in objects.values() if all(T.stalk_dim.values()))
    scan = [("constant sheaf", constant, False)]
    pts = _deepest_first(space)
    for kind, injective in (("skyscraper", True), ("simple sheaf", False)):
        for x in pts:
            F = objects.get(label := f"{kind} at {x}")
            if F is not None and F is not constant:
                scan.append((label, F, injective))
    for i in range(random_sheaves):
        scan.append((f"random sheaf (seed {seed + i})", random_sheaf(space, max_random_dim, seed + i), False))
    plan = lambda F: (*_resolution_cap(space, F.stalk_dim, max_len, stalk_cap), None)
    lower, witness = _scan(scan, tests, upper, plan)
    if upper is not None:
        if lower == upper:
            return DimensionVerdict.exact(upper, f"{PROV_SUPPORT_BOUND}; witness found", witness)
        return DimensionVerdict.bounds(lower, upper, PROV_SUPPORT_BOUND, witness)
    return DimensionVerdict.bounds(
        lower, None, f"non-terminating resolutions; {CONJ_PERFECT_HULL} open", witness
    )


# -- pairing check ------------------------------------------------------------------


def _block_inclusion(r: GodementResolution, k: int, x: str) -> RatMatrix:
    """Inclusion of the x-factor of the k-th cokernel into C^k at the stalk x."""
    source = r.sheaf if k == 0 else r.cokers[k - 1]
    space = r.sheaf.base
    off = 0
    for y in space.nbhd_sorted(x):
        if y == x:
            break
        off += source.stalk_dim[y]
    d = source.stalk_dim[x]
    total = r.terms[k].stalk_dim[x]
    return RatMatrix(total, d, {(off + i, i): 1 for i in range(d)})


def hom_cokernel_check(r: GodementResolution, x: str, complex_: ExtComplex | None = None) -> dict:
    """At a closed point, match hom(skyscraper, C^k) with the cokernel stalks.

    This is where the generic hom space meets the closed form of hom_complex.
    For every degree in the resolution, the morphism space solved for by
    elimination must have the dimension of the (k-1)-st cokernel stalk at x,
    as must the closed form, and extracting the x-block of the component at x
    of each basis map must be an isomorphism onto that stalk.  Those blocks
    are the closed-form coordinates, so for each basis map f the x-block of
    f delta_(k+1) must equal alpha_k applied to the x-block of f.
    """
    space = r.sheaf.base
    if not space.is_closed_point(x):
        raise ValueError(f"point is not closed: {x!r}")
    T = skyscraper(space, x, 1)
    c = complex_ if complex_ is not None else hom_complex(T, r, point=x)
    checks = []
    ok = True
    comps = []
    isos = []
    dims_ok = []
    for k in range(r.length):
        source = r.sheaf if k == 0 else r.cokers[k - 1]
        expected = source.stalk_dim[x]
        basis = hom_basis_maps(T, r.terms[k])
        got = len(basis)
        # the components at x of the basis maps, and their x-blocks
        comp = RatMatrix.hstack([f.comp[x] for f in basis]) if basis else RatMatrix.zeros(r.terms[k].stalk_dim[x], 0)
        iso = _block_inclusion(r, k, x).transpose() @ comp
        comps.append(comp)
        isos.append(iso)
        dim_ok = expected == got == c.degrees[k]
        iso_ok = dim_ok and rank(iso) == expected
        dims_ok.append(dim_ok)
        checks.append({"degree": k, "hom_dim": got, "coker_stalk_dim": expected, "iso": iso_ok})
        ok = ok and dim_ok and iso_ok
    for k in range(r.length - 1):
        delta = r.units[k + 1].comp[x] @ r.projections[k].comp[x]
        composed = _block_inclusion(r, k + 1, x).transpose() @ (delta @ comps[k])
        match = dims_ok[k] and dims_ok[k + 1] and composed == c.alphas[k] @ isos[k]
        checks.append({"degree": k, "alpha_matches_factor_inclusion": match})
        ok = ok and match
    if r.terminated:
        checks.append({"degree": r.length, "hom_dim": 0, "coker_stalk_dim": 0, "iso": True})
    return {"point": x, "ok": ok, "checks": checks}
