"""Godement resolutions: serration sheaves, their units, and the cokernel tower.

The first term C0(F) has stalk at x the product of the stalks F_y over the
minimal neighborhood U_x; the unit sends a germ to its family of restrictions
and is injective at every stalk.  Iterating C0 on successive cokernels builds
the resolution F -> C0 -> C1 -> ...; on a scattered space it terminates, on a
space with non-empty perfect hull it may genuinely never do so, which is a
flagged outcome rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .linalg import RatMatrix
from .sheaves import _ABSENT, Sheaf, SheafMap, direct_sum, is_constant, sheaf_cokernel, sheaf_to_json, skyscraper
from .spaces import CbFiltration, FiniteSpace, point_is_branch_rich


def _c0_with_unit(F: Sheaf) -> tuple[Sheaf, SheafMap]:
    space = F.base
    dims = {}
    layout = {}
    for x in space.points:
        blocks = space.nbhd_sorted(x)
        offs = {}
        total = 0
        for y in blocks:
            offs[y] = total
            total += F.stalk_dim[y]
        layout[x] = offs
        dims[x] = total
    res = {}
    for x in space.points:
        for z in space.min_nbhd[x]:
            if z == x or not dims[z]:
                continue
            entries = {}
            for y in space.nbhd_sorted(z):
                src = layout[x][y]
                dst = layout[z][y]
                for i in range(F.stalk_dim[y]):
                    entries[(dst + i, src + i)] = Fraction(1)
            res[(x, z)] = RatMatrix._trusted(dims[z], dims[x], entries)
    C = Sheaf(space, dims, res)
    comp = {}
    for x in space.points:
        entries = {}
        for y in space.nbhd_sorted(x):
            off = layout[x][y]
            m = F.res.get((x, y), _ABSENT) if y != x else RatMatrix.identity(F.stalk_dim[x])
            for (i, j), v in m.entries.items():
                entries[(off + i, j)] = v
        comp[x] = RatMatrix._trusted(dims[x], F.stalk_dim[x], entries)
    return C, SheafMap(F, C, comp)


def c0(F: Sheaf) -> Sheaf:
    """The serration sheaf: stalk at x is the product of F_y over y in U_x."""
    return _c0_with_unit(F)[0]


def serration_unit(F: Sheaf) -> SheafMap:
    """The natural inclusion F -> C0(F), s |-> (res s)_y; stalkwise injective."""
    return _c0_with_unit(F)[1]


@dataclass
class GodementResolution:
    """The chain F -> C0 -> C1 -> ... with its cokernel tower.

    units[k] is the mono from the k-th cokernel sheaf (the original sheaf for
    k = 0) into terms[k]; projections[k] maps terms[k] onto cokers[k], the
    cokernel of delta_k.  terminated means the last cokernel is zero.
    """

    sheaf: Sheaf
    terms: list[Sheaf]
    units: list[SheafMap]
    projections: list[SheafMap]
    cokers: list[Sheaf]
    terminated: bool

    @property
    def length(self) -> int:
        return len(self.terms)

    def delta(self, k: int) -> SheafMap:
        """delta_0 : F -> C0; delta_k : C^(k-1) -> C^k for 1 <= k < length."""
        if k == 0:
            return self.units[0]
        if not 1 <= k < self.length:
            raise ValueError(f"no delta at degree {k}")
        return self.projections[k - 1].then(self.units[k])

    def to_json(self) -> dict:
        points = sorted(self.sheaf.base.points)
        return {
            "sheaf": sheaf_to_json(self.sheaf),
            "terms": [
                {"stalk_dims": {x: t.stalk_dim[x] for x in points}} for t in self.terms
            ],
            "deltas": [
                {x: self.delta(k).comp[x].to_str_rows() for x in points}
                for k in range(self.length)
            ],
            "coker_dims": [
                {x: c.stalk_dim[x] for x in points} for c in self.cokers
            ],
            "terminated": self.terminated,
            "length": self.length,
        }


def build_resolution(F: Sheaf, max_len: int | None = None) -> GodementResolution:
    """Iterate cokernel + C0 until the cokernel vanishes or max_len terms exist.

    Non-termination within max_len (default: number of points + 2) is reported
    through the terminated flag, not as an error; spaces with a non-empty
    perfect hull can produce genuinely infinite resolutions.
    """
    if max_len is None:
        max_len = len(F.base.points) + 2
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    terms: list[Sheaf] = []
    units: list[SheafMap] = []
    projections: list[SheafMap] = []
    cokers: list[Sheaf] = []
    current = F
    terminated = False
    for _ in range(max_len):
        term, unit = _c0_with_unit(current)
        coker, proj = sheaf_cokernel(unit)
        terms.append(term)
        units.append(unit)
        projections.append(proj)
        cokers.append(coker)
        if coker.is_zero():
            terminated = True
            break
        current = coker
    return GodementResolution(F, terms, units, projections, cokers, terminated)


def projected_term_dims(
    space: FiniteSpace, stalk_dims: Mapping[str, int], max_len: int
) -> tuple[list[dict[str, int]], list[dict[str, int]]]:
    """Exact stalk dimensions of terms and cokernels, without building anything.

    Because every serration unit is stalkwise injective, the cokernel
    dimensions satisfy K_(k+1)[x] = sum of K_k[y] over y in U_x minus K_k[x],
    with K_0 the input dimensions; term dimensions are neighborhood sums.
    Both are non-zero only on the closure of supp K_k, and K_(k+1) only at
    strict specializations of it, so the sums run over that closure alone.
    """
    nbhd = space.min_nbhd
    k = {x: d for x in space.points if (d := stalk_dims.get(x, 0))}
    near = space.points
    terms, cokers = [], []
    for _ in range(max_len):
        supp = set(k)
        near = [x for x in near if not nbhd[x].isdisjoint(supp)]
        term, nxt = dict.fromkeys(space.points, 0), dict.fromkeys(space.points, 0)
        for x in near:
            term[x] = sum(k[y] for y in nbhd[x] & supp)
            nxt[x] = term[x] - k.get(x, 0)
        terms.append(term)
        cokers.append(nxt)
        k = {x: nxt[x] for x in near if nxt[x]}
        if not k:
            break
    return terms, cokers


def check_support(r: GodementResolution, filt: CbFiltration | None = None) -> dict:
    """Verify each term C^k vanishes off the k-th derivative level.

    Returns a report with any violating (degree, point, dim) triples.
    """
    space = r.sheaf.base
    if filt is None:
        filt = space.cb_filtration()
    violations = []
    for k, term in enumerate(r.terms):
        level = filt.level(k)
        for x in space.points:
            if x not in level and term.stalk_dim[x] != 0:
                violations.append({"degree": k, "point": x, "dim": term.stalk_dim[x]})
    return {"ok": not violations, "violations": violations, "degrees_checked": r.length}


def coker_nonvanishing(r: GodementResolution, heights: Mapping[str, int] | None = None) -> dict:
    """Check the cokernel tower of a constant sheaf is non-zero where expected.

    At every branch-rich point of height k >= 1 the k-th cokernel stalk must
    be non-zero.  Only resolutions of a constant sheaf of dimension >= 1
    qualify; the single-branch chain is a documented boundary case and is not
    asserted.
    """
    F = r.sheaf
    if not is_constant(F) or F.total_dim() == 0:
        raise ValueError("non-vanishing check applies to a constant sheaf of dimension >= 1")
    space = F.base
    hts = dict(heights) if heights is not None else space.heights()
    checked = []
    violations = []
    for x, k in sorted(hts.items(), key=lambda item: (item[1], item[0])):
        if k < 1 or not point_is_branch_rich(space, x, hts):
            continue
        if k - 1 >= len(r.cokers):
            continue
        dim = r.cokers[k - 1].stalk_dim[x]
        entry = {"point": x, "height": k, "coker_dim": dim}
        checked.append(entry)
        if dim == 0:
            violations.append(entry)
    return {"ok": not violations, "checked": checked, "violations": violations}


def skyscraper_decomposition(F: Sheaf) -> tuple[SheafMap, Sheaf]:
    """The isomorphism C0(F) = product over y of skyscrapers at y with fiber F_y.

    Both sides have identical block layouts by construction, so the iso is the
    identity in canonical bases; it is returned as an explicit sheaf map for
    stalkwise verification.
    """
    space = F.base
    towers = [skyscraper(space, y, F.stalk_dim[y]) for y in space.points]
    prod = direct_sum(space, towers)
    C = c0(F)
    comp = {}
    for x in space.points:
        if prod.stalk_dim[x] != C.stalk_dim[x]:
            raise ValueError("skyscraper decomposition: stalk dimension mismatch")
        # product blocks run over all y in point order, with zero blocks for
        # y outside U_x; C0 blocks run over U_x in point order -- same layout.
        comp[x] = RatMatrix.identity(C.stalk_dim[x])
    iso = SheafMap(C, prod, comp)
    return iso, prod
