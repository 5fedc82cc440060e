import random

import pytest

from cbsheaf.linalg import RatMatrix, rank
from cbsheaf.godement import (
    build_resolution,
    c0,
    check_support,
    coker_nonvanishing,
    projected_term_dims,
    serration_unit,
    skyscraper_decomposition,
)
from cbsheaf.sheaves import (
    constant_sheaf,
    random_sheaf,
    sheaf_cokernel,
    simple_sheaf,
    skyscraper,
)
from cbsheaf.spaces import (
    discrete_space,
    disjoint_union,
    indiscrete_space,
    product,
    star_space,
)
from corpus import random_preorder_space, space_sheaf_corpus
from oracle import three_elimination_sheaf_cokernel


class TestC0:
    def test_single_point(self):
        s = discrete_space(1)
        F = random_sheaf(s, 3, 1)
        assert c0(F) == F

    def test_star_constant(self):
        C = c0(constant_sheaf(star_space(3), 1))
        assert C.stalk_dim == {"c": 4, "l1": 1, "l2": 1, "l3": 1}
        C.validate()

    def test_isolated_point_stalk(self):
        s = disjoint_union(discrete_space(2), star_space(2))
        rng = random.Random(9)
        for seed in range(5):
            F = random_sheaf(s, 3, seed)
            C = c0(F)
            for x in ("p0", "p1"):
                assert C.stalk_dim[x] == F.stalk_dim[x]


class TestSerrationUnit:
    def test_single_point_identity(self):
        s = discrete_space(1)
        F = constant_sheaf(s, 2)
        u = serration_unit(F)
        assert u.comp["p0"] == RatMatrix.identity(2)

    def test_star_diagonal(self):
        u = serration_unit(constant_sheaf(star_space(3), 1))
        assert u.comp["c"] == RatMatrix.from_rows([[1], [1], [1], [1]])
        u.validate()

    def test_skyscraper_center_unit(self):
        u = serration_unit(skyscraper(star_space(3), "c", 1))
        assert u.comp["c"] == RatMatrix.identity(1)

    def test_always_stalkwise_injective(self):
        rng = random.Random(14)
        for _ in range(12):
            s = random_preorder_space(rng, 5)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            u = serration_unit(F)
            u.validate()
            assert u.is_mono()


class TestBuildResolution:
    def test_star_constant(self):
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        assert r.terminated and r.length == 2
        assert r.terms[0].stalk_dim == {"c": 4, "l1": 1, "l2": 1, "l3": 1}
        assert r.terms[1].stalk_dim == {"c": 3, "l1": 0, "l2": 0, "l3": 0}
        assert r.cokers[-1].is_zero()

    def test_indiscrete_pair_never_terminates(self):
        s = indiscrete_space(2)
        r = build_resolution(constant_sheaf(s, 1), 6)
        assert not r.terminated and r.length == 6
        for term in r.terms:
            assert term.stalk_dim == {"q0": 2, "q1": 2}
        for K in r.cokers:
            # stationary cokernel: one-dimensional stalks, identity transits
            assert K.stalk_dim == {"q0": 1, "q1": 1}
            assert K.restriction("q0", "q1") == RatMatrix.identity(1)
            assert K.restriction("q1", "q0") == RatMatrix.identity(1)

    def test_skyscraper_at_isolated_closed_point(self):
        s = discrete_space(3)
        r = build_resolution(skyscraper(s, "p0", 1))
        assert r.terminated and r.length == 1
        assert r.terms[0].stalk_dim == {"p0": 1, "p1": 0, "p2": 0}

    def test_max_len_validation(self):
        with pytest.raises(ValueError, match="max_len"):
            build_resolution(constant_sheaf(star_space(2), 1), 0)

    def test_deltas_compose_to_zero(self):
        rng = random.Random(21)
        for _ in range(6):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            r = build_resolution(F, 4)
            for k in range(1, r.length):
                prev = r.delta(k - 1) if k >= 1 else None
                if k >= 2:
                    comp = r.delta(k - 1).then(r.delta(k))
                    assert all(m.is_zero() for m in comp.comp.values())
            d0 = r.delta(0)
            assert d0.is_mono()
            if r.length >= 2:
                comp = d0.then(r.delta(1))
                assert all(m.is_zero() for m in comp.comp.values())

    def test_exactness_of_resolution(self):
        # ker(delta_{k+1}) = im(delta_k) stalkwise, by dimension count
        rng = random.Random(22)
        for _ in range(6):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            r = build_resolution(F, 5)
            for k in range(r.length - 1):
                for x in s.points:
                    dim_ck = r.terms[k].stalk_dim[x]
                    rk_out = rank(r.delta(k + 1).comp[x])
                    rk_in = rank(r.delta(k).comp[x])
                    assert dim_ck == rk_in + rk_out

    def test_scattered_spaces_terminate_within_rank(self):
        rng = random.Random(33)
        checked = 0
        while checked < 12:
            s = random_preorder_space(rng, 5)
            if not s.is_scattered() or not s.points:
                continue
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            r = build_resolution(F)
            assert r.terminated
            assert r.length <= max(s.cb_rank(), 1)
            checked += 1

    def test_projected_dims_match(self):
        rng = random.Random(25)
        for _ in range(8):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            r = build_resolution(F, 4)
            terms, cokers = projected_term_dims(s, F.stalk_dim, 4)
            assert len(terms) >= r.length
            for k in range(r.length):
                assert terms[k] == r.terms[k].stalk_dim
                assert cokers[k] == r.cokers[k].stalk_dim


class TestCokernelTower:
    def test_one_elimination_matches_three_elimination_oracle(self):
        corpus = space_sheaf_corpus(20)
        resolutions = [build_resolution(F, max_len) for _, F, max_len in corpus]
        # the corpus must reach non-T0 clusters and truncated resolutions
        assert any(len(s.point_class(x)) > 1 for s, _, _ in corpus for x in s.points)
        assert not all(r.terminated for r in resolutions)
        for i, r in enumerate(resolutions):
            for k, unit in enumerate(r.units):
                K, proj = sheaf_cokernel(unit)
                K_ref, proj_ref = three_elimination_sheaf_cokernel(unit)
                assert K.stalk_dim == K_ref.stalk_dim, (i, k)
                assert K.res == K_ref.res, (i, k)
                assert proj.comp == proj_ref.comp, (i, k)
                assert K == r.cokers[k] and proj.comp == r.projections[k].comp, (i, k)


class TestSupport:
    def test_star(self):
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        report = check_support(r)
        assert report["ok"] and report["violations"] == []
        assert r.terms[1].stalk_dim["l1"] == 0  # C1 lives on X(1) = {c}

    def test_discrete(self):
        s = discrete_space(4)
        F = random_sheaf(s, 2, 3)
        r = build_resolution(F)
        assert check_support(r)["ok"]
        assert r.length == 1  # C1 = 0 on a discrete space

    def test_indiscrete_vacuous(self):
        s = indiscrete_space(2)
        r = build_resolution(constant_sheaf(s, 1), 4)
        assert check_support(r)["ok"]


class TestNonvanishing:
    def test_star(self):
        s = star_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        report = coker_nonvanishing(r)
        assert report["ok"]
        assert {"point": "c", "height": 1, "coker_dim": 3} in report["checked"]

    def test_double_star(self):
        s = product(star_space(2), star_space(2))
        r = build_resolution(constant_sheaf(s, 1))
        report = coker_nonvanishing(r)
        assert report["ok"]
        top = [e for e in report["checked"] if e["point"] == "(c,c)"]
        assert top and top[0]["height"] == 2 and top[0]["coker_dim"] > 0

    def test_discrete_vacuous(self):
        s = discrete_space(3)
        r = build_resolution(constant_sheaf(s, 1))
        report = coker_nonvanishing(r)
        assert report["ok"] and report["checked"] == []

    def test_requires_constant_sheaf(self):
        s = star_space(2)
        r = build_resolution(simple_sheaf(s, "l1", 1))
        with pytest.raises(ValueError, match="constant"):
            coker_nonvanishing(r)


class TestSkyscraperDecomposition:
    def test_star_constant(self):
        F = constant_sheaf(star_space(2), 1)
        iso, prod = skyscraper_decomposition(F)
        iso.validate()
        assert iso.is_mono() and iso.is_epi()
        assert prod.stalk_dim == c0(F).stalk_dim

    def test_random_sheaves(self):
        rng = random.Random(91)
        for _ in range(8):
            s = random_preorder_space(rng, 5)
            F = random_sheaf(s, 2, rng.randint(0, 9999))
            iso, prod = skyscraper_decomposition(F)
            iso.validate()
            assert iso.is_mono() and iso.is_epi()


class TestDump:
    def test_json_shape(self):
        s = star_space(2)
        r = build_resolution(constant_sheaf(s, 1))
        doc = r.to_json()
        assert doc["terminated"] is True
        assert doc["length"] == 2
        assert [t["stalk_dims"]["c"] for t in doc["terms"]] == [3, 2]
        assert len(doc["deltas"]) == 2
        assert doc["coker_dims"][-1] == {"c": 0, "l1": 0, "l2": 0}
