import random

import pytest

from cbsheaf import extdim
from cbsheaf.extdim import (
    CONJ_PERFECT_HULL,
    DimensionVerdict,
    THM_SCATTERED,
    _resolution_cap,
    _test_objects,
    category_dimension,
    ext_dims_of_complex,
    ext_groups,
    hom_complex,
    hom_cokernel_check,
    hom_into_resolution,
    injective_dimension_bounds,
)
from cbsheaf.godement import build_resolution
from cbsheaf.profinite import finite_model, parse_expr
from cbsheaf.linalg import RatMatrix, rank
from cbsheaf.sheaves import constant_sheaf, random_sheaf, skyscraper
from cbsheaf.spaces import (
    chain_space,
    discrete_space,
    disjoint_union,
    empty_space,
    indiscrete_space,
    product,
    sierpinski_space,
    star_space,
)
from corpus import random_preorder_space, space_sheaf_corpus
from oracle import adjunction_coordinates, full_scan_bounds, full_scan_category, generic_hom_complex


class TestHomIntoResolution:
    def test_discrete(self):
        s = discrete_space(2)
        F = random_sheaf(s, 3, 5)
        r = build_resolution(F)
        c = hom_into_resolution("p0", r)
        assert c.degrees == [F.stalk_dim["p0"]]

    def test_star_center(self):
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        c = hom_into_resolution("c", r)
        assert c.degrees == [1, 3]
        c.validate()

    def test_star_leaf(self):
        # the leaf is not closed: its closure is {l1, c}, so degree k counts
        # the cokernel stalks over the whole closure (adjunction oracle):
        # degree 0: F_l1 + F_c = 2; degree 1: K1_l1 + K1_c = 0 + 3 = 3
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        c = hom_into_resolution("l1", r)
        assert c.degrees == [2, 3]

    def test_alpha_composes_to_zero(self):
        rng = random.Random(17)
        for _ in range(6):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            r = build_resolution(F, 4)
            for x in s.points:
                hom_into_resolution(x, r).validate()

    def test_closed_form_matches_generic_oracle(self):
        corpus = space_sheaf_corpus(20)
        resolutions = [build_resolution(F, max_len) for _, F, max_len in corpus]
        # the corpus must reach non-T0 clusters and truncated resolutions
        assert any(len(s.point_class(x)) > 1 for s, _, _ in corpus for x in s.points)
        assert not all(r.terminated for r in resolutions)
        for i, ((s, _, _), r) in enumerate(zip(corpus, resolutions)):
            available = r.length - 1 if r.terminated else r.length - 2
            tests = _test_objects(s) + [("random sheaf", random_sheaf(s, 2, 100 + i))]
            sources = [r.sheaf] + r.cokers[: r.length - 1]
            for label, T in tests:
                c = hom_complex(T, r)
                g, bases = generic_hom_complex(T, r)
                assert c.degrees == g.degrees, (i, label)
                # the adjunction iso carries the generic alphas onto the closed form
                isos = [
                    RatMatrix.hstack([adjunction_coordinates(f, K) for f in basis])
                    if basis else RatMatrix.zeros(d, 0)
                    for basis, K, d in zip(bases, sources, c.degrees)
                ]
                assert [rank(e) for e in isos] == c.degrees, (i, label)
                for k, a in enumerate(c.alphas):
                    assert isos[k + 1] @ g.alphas[k] == a @ isos[k], (i, label, k)
                assert [rank(a) for a in c.alphas] == [rank(a) for a in g.alphas], (i, label)
                c.validate()
                if available >= 0:
                    assert ext_dims_of_complex(c, r.terminated, available) == ext_dims_of_complex(
                        g, r.terminated, available
                    ), (i, label)


class TestExtGroups:
    def test_star3(self):
        s = star_space(3)
        report = ext_groups(constant_sheaf(s, 1), "c")
        assert report.ext_dims == {0: 0, 1: 2}

    def test_star2(self):
        s = star_space(2)
        report = ext_groups(constant_sheaf(s, 1), "c")
        assert report.ext_dims == {0: 0, 1: 1}

    def test_isolated_closed_point_vanishing(self):
        s = disjoint_union(discrete_space(1), star_space(3))
        report = ext_groups(constant_sheaf(s, 1), "p0", max_degree=3)
        assert report.ext_dims == {0: 1, 1: 0, 2: 0, 3: 0}

    def test_ext_zero_is_hom(self):
        # Ext^0(T, F) = Hom(T, F) by left exactness; check against the direct solve
        from cbsheaf.sheaves import hom_sheaves

        s = star_space(3)
        F = constant_sheaf(s, 1)
        for x in s.points:
            report = ext_groups(F, x)
            assert report.ext_dims[0] == hom_sheaves(skyscraper(s, x, 1), F).dim

    def test_truncation_error(self):
        s = indiscrete_space(2)
        F = constant_sheaf(s, 1)
        r = build_resolution(F, 4)
        with pytest.raises(ValueError, match="insufficient resolution length"):
            ext_groups(F, "q0", max_degree=3, resolution=r)
        report = ext_groups(F, "q0", max_degree=2, resolution=r)
        assert set(report.ext_dims) == {0, 1, 2}

    def test_beyond_termination_is_zero(self):
        s = star_space(2)
        report = ext_groups(constant_sheaf(s, 1), "c", max_degree=4)
        assert report.ext_dims[2] == report.ext_dims[3] == report.ext_dims[4] == 0

    def test_mixed_product_top_witness(self):
        # branch-rich rank-3 space with closed top: Ext^2(skyscraper, constant)
        # is non-zero and Ext^3 vanishes
        m = product(star_space(3), star_space(2))
        assert m.cb_rank() == 3 and m.is_closed_point("(c,c)")
        report = ext_groups(constant_sheaf(m, 1), "(c,c)", max_degree=4)
        assert report.ext_dims[2] == 2
        assert report.ext_dims[3] == report.ext_dims[4] == 0
        assert report.ext_dims[0] == report.ext_dims[1] == 0


class TestInjectiveDimensionBounds:
    def test_constant_on_star(self):
        v = injective_dimension_bounds(constant_sheaf(star_space(3), 1))
        assert v.kind == "exact" and v.n == 1

    def test_any_sheaf_on_discrete(self):
        s = discrete_space(3)
        for seed in range(4):
            v = injective_dimension_bounds(random_sheaf(s, 2, seed))
            assert v.kind == "exact" and v.n == 0

    def test_constant_on_double_star(self):
        s = product(star_space(2), star_space(2))
        v = injective_dimension_bounds(constant_sheaf(s, 1))
        assert v.kind == "exact" and v.n == 2

    def test_skyscrapers_are_injective(self):
        s = star_space(3)
        for x in s.points:
            v = injective_dimension_bounds(skyscraper(s, x, 1))
            assert v.kind == "exact" and v.n == 0

    def test_cluster_constant_is_injective(self):
        # on an indiscrete cluster the skyscraper at either point IS the
        # constant sheaf, so the constant sheaf is injective: the unit splits
        # and the verdict is exact(0) despite the non-terminating resolution
        v = injective_dimension_bounds(constant_sheaf(indiscrete_space(2), 1))
        assert v.kind == "exact" and v.n == 0

    def test_non_terminating_bounds(self):
        # two open leaves under an indiscrete two-point cluster: the constant
        # sheaf is not injective and the resolution never terminates
        from cbsheaf.spaces import FiniteSpace

        s = FiniteSpace(
            ["l1", "l2", "p", "q"],
            {
                "l1": {"l1"},
                "l2": {"l2"},
                "p": {"l1", "l2", "p", "q"},
                "q": {"l1", "l2", "p", "q"},
            },
        )
        assert not s.is_scattered()
        v = injective_dimension_bounds(constant_sheaf(s, 1))
        assert v.kind == "bounds" and v.upper is None
        assert CONJ_PERFECT_HULL in v.provenance


class TestCategoryDimension:
    def test_rejects_bad_max_len(self):
        s = sierpinski_space()
        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_len must be >= 1"):
                category_dimension(s, max_len=bad)
            with pytest.raises(ValueError, match="max_len must be >= 1"):
                injective_dimension_bounds(constant_sheaf(s, 1), max_len=bad)
        with pytest.raises(ValueError, match="random_sheaves must be >= 0"):
            category_dimension(s, random_sheaves=-1)
        assert category_dimension(s, max_len=2).kind == "exact"

    def test_empty(self):
        v = category_dimension(empty_space())
        assert v.kind == "trivial_category"

    def test_star(self):
        v = category_dimension(star_space(3))
        assert v.kind == "exact" and v.n == 1
        assert "constant sheaf" in v.witness

    def test_sierpinski_needs_simple_witness(self):
        v = category_dimension(sierpinski_space())
        assert v.kind == "exact" and v.n == 1
        assert "simple sheaf at a" in v.witness

    def test_discrete(self):
        v = category_dimension(discrete_space(2))
        assert v.kind == "exact" and v.n == 0

    def test_indiscrete_pair_bounds_only(self):
        v = category_dimension(indiscrete_space(2))
        assert v.kind == "bounds" and v.upper is None
        assert CONJ_PERFECT_HULL in v.provenance

    def test_monotonic_under_extra_tests(self):
        s = star_space(2)
        base = category_dimension(s)
        more = category_dimension(s, random_sheaves=3, seed=1)
        assert more.kind == base.kind == "exact"
        assert more.n == base.n == 1


def record_scans(monkeypatch):
    """Record every call of extdim._scan: its entries, the labels the loop
    reached and the labels it planned."""
    scans = []
    scan = extdim._scan

    def recording(entries, tests, upper, plan):
        entries = list(entries)
        reached, planned = [], []

        def reach():
            for entry in entries:
                reached.append(entry[0])
                yield entry

        def recording_plan(F):
            planned.append(next(label for label, G, _ in entries if G is F))
            return plan(F)

        scans.append({"entries": entries, "reached": reached, "planned": planned})
        return scan(reach(), tests, upper, recording_plan)

    monkeypatch.setattr(extdim, "_scan", recording)
    return scans


class TestPrunedScan:
    """The pruned scan against the full scan in tests/oracle.py: same verdict,
    same witness, on non-T0, truncated and early-exit cases."""

    # the corpus's own cap keeps non-terminating towers small; the small one
    # cuts some corpus resolutions short
    CAPS = (60, 8)

    def test_plan_matches_built_resolution(self):
        cut = 0
        for s, F, _ in space_sheaf_corpus(20):
            for max_len in (None, 1, 2):
                for cap in self.CAPS:
                    length, terminated = _resolution_cap(s, F.stalk_dim, max_len, cap)
                    r = build_resolution(F, length)
                    assert (r.length, r.terminated) == (length, terminated), (s.points, max_len, cap)
                    cut += length < _resolution_cap(s, F.stalk_dim, max_len, 10**9)[0]
        assert cut

    def test_bounds_match_full_scan(self):
        unbounded = 0
        for i, (s, F, _) in enumerate(space_sheaf_corpus(20)):
            for max_len in (None, 1, 2):
                for cap in self.CAPS:
                    expected = full_scan_bounds(F, max_len=max_len, stalk_cap=cap).to_json()
                    got = injective_dimension_bounds(F, max_len=max_len, stalk_cap=cap)
                    assert got.to_json() == expected, (i, max_len, cap)
                    # a given resolution may be longer than the scan reads
                    r = build_resolution(F, _resolution_cap(s, F.stalk_dim, max_len, cap)[0])
                    given = injective_dimension_bounds(F, max_len=max_len, stalk_cap=cap, resolution=r)
                    assert given.to_json() == expected, (i, max_len, cap)
                    unbounded += expected["upper"] is None
        assert unbounded

    def test_rejects_short_resolution(self):
        F = constant_sheaf(product(star_space(2), star_space(2)), 1)
        with pytest.raises(ValueError, match="the scan reads 2"):
            injective_dimension_bounds(F, resolution=build_resolution(F, 1))

    def test_category_matches_full_scan(self):
        corpus = space_sheaf_corpus(20)
        # the corpus must reach non-T0 clusters
        assert any(len(s.point_class(x)) > 1 for s, _, _ in corpus for x in s.points)
        variants = [{}, {"max_len": 1}, {"max_len": 2}, {"random_sheaves": 2, "seed": 5}, {"stalk_cap": self.CAPS[1]}]
        verdicts = {}
        for i, (s, _, _) in enumerate(corpus):
            for j, kwargs in enumerate(variants):
                kwargs = {"stalk_cap": self.CAPS[0], **kwargs}
                got = category_dimension(s, **kwargs).to_json()
                assert got == full_scan_category(s, **kwargs).to_json(), (i, kwargs)
                verdicts[i, j] = got
        # the small stalk cap truncates enough to change some verdict
        assert any(verdicts[i, 0] != verdicts[i, len(variants) - 1] for i in range(len(corpus)))

    def test_category_early_exit_matches_full_scan(self):
        # branch-rich models reach lower == upper before the scan ends
        for text in ("P", "P^2", "D(3)*P", "P+P^2"):
            for b in (2, 3):
                m = finite_model(parse_expr(text), b)
                v = category_dimension(m)
                assert v.kind == "exact" and v.witness, (text, b)
                assert v.to_json() == full_scan_category(m).to_json(), (text, b)

    # skipped sheaves: injective ones after a witness, and later copies of
    # earlier ones
    SPACES = [
        star_space(3),
        sierpinski_space(),
        chain_space(3),
        indiscrete_space(2),
        disjoint_union(star_space(2), indiscrete_space(2)),
        product(sierpinski_space(), star_space(2)),
        product(indiscrete_space(2), chain_space(2)),
        finite_model(parse_expr("P^2"), 2),
    ]

    def test_skips_match_full_scan(self, monkeypatch):
        scans = record_scans(monkeypatch)
        # the cases need a point whose closure is the whole space, and closed
        # points that carry a simple sheaf
        assert any(s.closure(x) == set(s.points) for s in self.SPACES for x in s.points)
        assert any(s.is_closed_point(x) for s in self.SPACES for x in s.points)
        variants = [{}, {"max_len": 2}, {"random_sheaves": 2, "seed": 3}, {"stalk_cap": 3}]
        for i, s in enumerate(self.SPACES):
            for kwargs in variants:
                got = category_dimension(s, **kwargs).to_json()
                assert got == full_scan_category(s, **kwargs).to_json(), (i, kwargs)
        # skyscrapers are resolved while no witness exists and skipped after
        planned = [
            label in sc["planned"] for sc in scans for label, _, inj in sc["entries"] if inj and label in sc["reached"]
        ]
        assert any(planned) and not all(planned)

    def test_capped_constant_leaves_witness_to_a_skyscraper(self, monkeypatch):
        # the 4-branch P^3 shape, scaled down: the cap cuts the constant sheaf
        # to one term, so it has no degree to read and the first skyscraper
        # sets the witness; every later skyscraper is skipped unplanned
        m = finite_model(parse_expr("P^2"), 3)
        cap = 3
        assert _resolution_cap(m, constant_sheaf(m, 1).stalk_dim, None, cap) == (1, False)
        scans = record_scans(monkeypatch)
        v = category_dimension(m, stalk_cap=cap)
        assert v.to_json() == full_scan_category(m, stalk_cap=cap).to_json()
        (sc,) = scans
        planned_skyscrapers = [label for label in sc["planned"] if label.startswith("skyscraper")]
        assert sc["planned"][0] == "constant sheaf"
        assert planned_skyscrapers == [sc["entries"][1][0]]
        assert sum(inj for _, _, inj in sc["entries"]) > 1

    def test_no_equal_sheaves_in_tests_or_scan(self, monkeypatch):
        scans = record_scans(monkeypatch)
        for s, _, _ in space_sheaf_corpus(20):
            category_dimension(s, stalk_cap=60)
            for objects in (_test_objects(s), scans[-1]["entries"]):
                sheaves = [entry[1] for entry in objects]
                for i, F in enumerate(sheaves):
                    assert all(F != G for G in sheaves[i + 1 :]), (s.points, objects[i][0])

    def test_first_copies_keep_their_labels(self):
        # sierpinski: the skyscraper at the closed point b is the simple there,
        # and the skyscraper at a (closure {a, b}) is the constant sheaf
        labels = [label for label, _ in _test_objects(sierpinski_space())]
        assert labels == ["skyscraper at b", "skyscraper at a", "simple sheaf at a"]
        labels = [label for label, _ in _test_objects(indiscrete_space(3))]
        assert labels == ["skyscraper at q0"]

    def test_p4_model_is_exact(self):
        # 81 points: fast only while skyscrapers after the witness are skipped
        v = category_dimension(finite_model(parse_expr("P^4"), 2))
        assert (v.kind, v.n) == ("exact", 4)


class TestHomCokernelCheck:
    def test_star_center(self):
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        report = hom_cokernel_check(r, "c")
        assert report["ok"]
        degrees = {e["degree"]: e for e in report["checks"] if "hom_dim" in e}
        assert degrees[0]["hom_dim"] == 1 and degrees[1]["hom_dim"] == 3
        assert degrees[2] == {"degree": 2, "hom_dim": 0, "coker_stalk_dim": 0, "iso": True}

    def test_alpha_is_factor_inclusion(self):
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        report = hom_cokernel_check(r, "c")
        alpha_checks = [e for e in report["checks"] if "alpha_matches_factor_inclusion" in e]
        assert alpha_checks and all(e["alpha_matches_factor_inclusion"] for e in alpha_checks)

    def test_double_star_top(self):
        s = product(star_space(2), star_space(2))
        r = build_resolution(constant_sheaf(s, 1))
        assert hom_cokernel_check(r, "(c,c)")["ok"]

    def test_perturbed_alpha_fails(self):
        # the pairing check tests the closed form against composition with
        # delta, so changing any single entry of any alpha_k must be caught
        for s, x in ((star_space(3), "c"), (product(star_space(2), star_space(2)), "(c,c)")):
            r = build_resolution(constant_sheaf(s, 1))
            assert hom_cokernel_check(r, x, complex_=hom_into_resolution(x, r))["ok"]
            perturbed = 0
            for k in range(r.length - 1):
                c = hom_into_resolution(x, r)
                a = c.alphas[k]
                if not a.rows or not a.cols:
                    continue
                c.alphas[k] = a + RatMatrix(a.rows, a.cols, {(a.rows - 1, 0): 1})
                assert not hom_cokernel_check(r, x, complex_=c)["ok"], (x, k)
                perturbed += 1
            assert perturbed

    def test_rejects_open_point(self):
        s = star_space(2)
        r = build_resolution(constant_sheaf(s, 1))
        with pytest.raises(ValueError, match="not closed"):
            hom_cokernel_check(r, "l1")

    def test_random_corpus_closed_points(self):
        rng = random.Random(77)
        for _ in range(6):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            r = build_resolution(F, 4)
            if not r.terminated:
                continue
            for x in s.points:
                if s.is_closed_point(x):
                    assert hom_cokernel_check(r, x)["ok"]


class TestVerdictPlumbing:
    def test_json_round(self):
        v = DimensionVerdict.exact(2, THM_SCATTERED, "w")
        doc = v.to_json()
        assert doc["kind"] == "exact" and doc["n"] == 2 and doc["provenance"] == THM_SCATTERED

    def test_exact_requires_meeting_bounds(self):
        v = DimensionVerdict.bounds(1, 3, "p")
        assert v.kind == "bounds" and (v.lower, v.upper) == (1, 3)
