import random

import pytest

from cbsheaf.linalg import RatMatrix, rank
from cbsheaf.sheaves import (
    Sheaf,
    SheafMap,
    constant_sheaf,
    direct_sum,
    extend_along_mono,
    hom_basis_maps,
    hom_sheaves,
    identity_map,
    is_constant,
    load_sheaf,
    map_to_vector,
    random_sheaf,
    save_sheaf,
    sections,
    sheaf_cokernel,
    sheaf_from_json,
    sheaf_kernel,
    sheaf_to_json,
    simple_sheaf,
    skyscraper,
    zero_map,
    zero_sheaf,
)
from cbsheaf.godement import serration_unit
from cbsheaf.spaces import (
    FiniteSpace,
    discrete_space,
    disjoint_union,
    indiscrete_space,
    sierpinski_space,
    star_space,
)
from corpus import random_preorder_space, space_sheaf_corpus


def diamond_space():
    # bottom "o" open, two middles, one top: forces composite constraints
    return FiniteSpace(
        ["o", "m1", "m2", "t"],
        {"o": {"o"}, "m1": {"o", "m1"}, "m2": {"o", "m2"}, "t": {"o", "m1", "m2", "t"}},
    )


class TestBuilders:
    def test_constant_on_point(self):
        s = discrete_space(1)
        F = constant_sheaf(s, 1)
        assert F.stalk_dim == {"p0": 1}

    def test_constant_on_star(self):
        F = constant_sheaf(star_space(3), 1)
        assert all(d == 1 for d in F.stalk_dim.values())
        assert all(m == RatMatrix.identity(1) for m in F.res.values())
        F.validate()
        assert is_constant(F)

    def test_skyscraper_at_closed_isolated(self):
        s = disjoint_union(discrete_space(1), star_space(2))
        F = skyscraper(s, "p0", 2)
        assert F.stalk_dim["p0"] == 2
        assert sum(F.stalk_dim.values()) == 2

    def test_skyscraper_at_star_center(self):
        F = skyscraper(star_space(3), "c", 1)
        assert F.stalk_dim == {"c": 1, "l1": 0, "l2": 0, "l3": 0}

    def test_skyscraper_at_open_point(self):
        F = skyscraper(sierpinski_space(), "a", 1)
        assert F.stalk_dim == {"a": 1, "b": 1}
        assert F.restriction("b", "a") == RatMatrix.identity(1)
        F.validate()

    def test_simple_equals_skyscraper_on_discrete(self):
        s = discrete_space(3)
        assert simple_sheaf(s, "p1", 1) == skyscraper(s, "p1", 1)

    def test_simple_on_star(self):
        F = simple_sheaf(star_space(3), "l1", 1)
        assert F.stalk_dim == {"c": 0, "l1": 1, "l2": 0, "l3": 0}
        F.validate()

    def test_simple_on_sierpinski(self):
        F = simple_sheaf(sierpinski_space(), "a", 1)
        assert F.stalk_dim == {"a": 1, "b": 0}

    def test_simple_in_cluster_rejected(self):
        with pytest.raises(ValueError, match="non-T0 cluster"):
            simple_sheaf(indiscrete_space(2), "q0", 1)

    def test_bad_stalk_dims(self):
        with pytest.raises(ValueError, match="stalk dimension"):
            Sheaf(discrete_space(1), {"p0": -1})

    def test_bad_restriction_shape(self):
        s = sierpinski_space()
        with pytest.raises(ValueError, match="shape"):
            Sheaf(s, {"a": 1, "b": 1}, {("b", "a"): RatMatrix.identity(2)})


class TestSparseStorage:
    """Only non-zero restrictions are stored; an absent pair is the zero map."""

    def test_absent_restriction_is_zero_of_right_shape(self):
        F = Sheaf(star_space(2), {"c": 2, "l1": 3})
        assert F.res == {}
        assert F.restriction("c", "l1") == RatMatrix.zeros(3, 2)
        assert F.restriction("c", "l2") == RatMatrix.zeros(0, 2)
        assert F.restriction("c", "c") == RatMatrix.identity(2)

    def test_pair_outside_nbhd_or_unknown_point_raises(self):
        F = Sheaf(star_space(2), {"c": 2, "l1": 3})
        for x, y in (("l1", "c"), ("l1", "l2"), ("zz", "c"), ("c", "zz"), ("zz", "zz")):
            with pytest.raises(ValueError, match="no restriction"):
                F.restriction(x, y)

    def test_explicit_zero_restrictions_are_dropped(self):
        s = star_space(2)
        dims = {"c": 2, "l1": 3, "l2": 1}
        explicit = Sheaf(s, dims, {("c", "l1"): RatMatrix.zeros(3, 2), ("c", "l2"): RatMatrix.zeros(1, 2)})
        assert explicit.res == {}
        assert explicit == Sheaf(s, dims)
        assert sheaf_to_json(explicit) == sheaf_to_json(Sheaf(s, dims))

    def test_is_constant_needs_every_restriction(self):
        s = star_space(3)
        F = constant_sheaf(s, 2)
        assert is_constant(F)
        res = dict(F.res)
        del res[("c", "l2")]
        assert not is_constant(Sheaf(s, F.stalk_dim, res))
        assert is_constant(Sheaf(s, {}))

    def test_json_round_trip_on_corpus(self):
        for s, F, _ in space_sheaf_corpus(20):
            assert sheaf_from_json(s, sheaf_to_json(F)) == F
            assert all(not m.is_zero() for m in F.res.values())


class TestValidation:
    def test_functoriality_violation(self):
        s = FiniteSpace(["a", "b", "c"], {"a": {"a"}, "b": {"a", "b"}, "c": {"a", "b", "c"}})
        F = Sheaf(
            s,
            {"a": 1, "b": 1, "c": 1},
            {
                ("b", "a"): RatMatrix.identity(1),
                ("c", "b"): RatMatrix.identity(1),
                ("c", "a"): RatMatrix.from_rows([[2]]),
            },
        )
        with pytest.raises(ValueError, match="functoriality"):
            F.validate()

    def test_naturality_violation(self):
        s = sierpinski_space()
        F = constant_sheaf(s, 1)
        bad = SheafMap(F, F, {"a": RatMatrix.identity(1), "b": RatMatrix.from_rows([[2]])})
        with pytest.raises(ValueError, match="naturality"):
            bad.validate()

    def test_mono_epi(self):
        F = constant_sheaf(star_space(2), 1)
        assert identity_map(F).is_mono() and identity_map(F).is_epi()
        z = zero_map(F, F)
        assert not z.is_mono() and not z.is_epi()


class TestSections:
    def test_empty_open(self):
        F = constant_sheaf(star_space(2), 1)
        assert sections(F, []).dim == 0

    def test_two_disjoint_singletons(self):
        F = constant_sheaf(star_space(2), 1)
        assert sections(F, ["l1", "l2"]).dim == 2

    def test_connected_star(self):
        s = star_space(3)
        F = constant_sheaf(s, 1)
        assert sections(F, s.points).dim == 1

    def test_not_open(self):
        F = constant_sheaf(star_space(2), 1)
        with pytest.raises(ValueError, match="not open"):
            sections(F, ["c"])

    def test_stalk_is_sections_of_min_nbhd(self):
        rng = random.Random(2)
        for _ in range(10):
            s = random_preorder_space(rng, 5)
            F = random_sheaf(s, 2, rng.randint(0, 999))
            for x in s.points:
                assert sections(F, s.nbhd(x)).dim >= 0
                # the sheaf axiom on finite spaces: F(U_x) = F_x
                assert sections(F, s.nbhd(x)).dim == F.stalk_dim[x]


class TestKernelCokernel:
    def test_kernel_of_identity(self):
        F = constant_sheaf(star_space(2), 2)
        K, incl = sheaf_kernel(identity_map(F))
        assert K.is_zero()
        incl.validate()

    def test_cokernel_of_zero_map(self):
        F = constant_sheaf(star_space(2), 2)
        K, proj = sheaf_cokernel(zero_map(zero_sheaf(F.base), F))
        assert K == F
        proj.validate()

    def test_cokernel_of_diagonal(self):
        s = star_space(3)
        F = constant_sheaf(s, 1)
        K, proj = sheaf_cokernel(serration_unit(F))
        assert K.stalk_dim == {"c": 3, "l1": 0, "l2": 0, "l3": 0}
        proj.validate()
        K.validate()

    def test_exactness_dims(self):
        rng = random.Random(8)
        for _ in range(8):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 999))
            u = serration_unit(F)
            K, proj = sheaf_cokernel(u)
            for x in s.points:
                assert F.stalk_dim[x] - rank(u.comp[x]) == 0  # unit is mono
                assert K.stalk_dim[x] == u.comp[x].rows - rank(u.comp[x])

    def test_kernel_map_cokernel_chain(self):
        # ker -> source -> target -> coker composes to zero stalkwise, and
        # dim source_x = dim ker_x + rank(f_x)
        rng = random.Random(13)
        for _ in range(8):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 999))
            G = random_sheaf(s, 2, rng.randint(0, 999))
            maps = hom_basis_maps(F, G)
            if not maps:
                continue
            f = maps[rng.randrange(len(maps))]
            K, incl = sheaf_kernel(f)
            C, proj = sheaf_cokernel(f)
            for x in s.points:
                assert (f.comp[x] @ incl.comp[x]).is_zero()
                assert (proj.comp[x] @ f.comp[x]).is_zero()
                assert F.stalk_dim[x] == K.stalk_dim[x] + rank(f.comp[x])


class TestHom:
    def test_hom_from_zero(self):
        s = star_space(2)
        assert hom_sheaves(zero_sheaf(s), constant_sheaf(s, 1)).dim == 0

    def test_hom_constant_constant_on_star(self):
        s = star_space(3)
        assert hom_sheaves(constant_sheaf(s, 1), constant_sheaf(s, 1)).dim == 1

    def test_hom_skyscraper_to_constant(self):
        s = star_space(3)
        assert hom_sheaves(skyscraper(s, "c", 1), constant_sheaf(s, 1)).dim == 0

    def test_basis_maps_are_natural(self):
        rng = random.Random(4)
        for _ in range(6):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 999))
            G = random_sheaf(s, 2, rng.randint(0, 999))
            for f in hom_basis_maps(F, G):
                f.validate()

    def test_skyscraper_adjunction(self):
        # dim Hom(F, skyscraper(x, d)) = d * dim F_x
        rng = random.Random(6)
        for _ in range(8):
            s = random_preorder_space(rng, 4)
            F = random_sheaf(s, 2, rng.randint(0, 999))
            for x in s.points:
                for d in (1, 2):
                    got = hom_sheaves(F, skyscraper(s, x, d)).dim
                    assert got == d * F.stalk_dim[x]

    def test_map_to_vector_round_trip(self):
        s = star_space(2)
        F, G = constant_sheaf(s, 1), constant_sheaf(s, 1)
        maps = hom_basis_maps(F, G)
        assert len(maps) == 1
        v = map_to_vector(maps[0])
        assert v.rows == sum(F.stalk_dim[x] * G.stalk_dim[x] for x in s.points)


class TestExtension:
    def test_extension_along_direct_summand(self):
        s = star_space(2)
        A = constant_sheaf(s, 1)
        B = direct_sum(s, [A, skyscraper(s, "c", 1)])
        incl = SheafMap(
            A, B, {x: RatMatrix(B.stalk_dim[x], 1, {(0, 0): 1}) for x in s.points}
        )
        incl.validate()
        f = identity_map(A)
        g = extend_along_mono(incl, f)
        assert g is not None
        assert incl.then(g) == f

    def test_no_extension_into_simple(self):
        # Sierpinski: constant -> simple at a kills the b-stalk; the inclusion
        # of the simple part of the constant sheaf cannot extend
        s = sierpinski_space()
        A = simple_sheaf(s, "a", 1)
        B = constant_sheaf(s, 1)
        incl = SheafMap(A, B, {"a": RatMatrix.identity(1)})
        incl.validate()
        f = identity_map(A)
        g = extend_along_mono(incl, f)
        assert g is None  # simple sheaves are not injective here


class TestRandomSheaf:
    def test_zero_max_dim(self):
        s = star_space(2)
        assert random_sheaf(s, 0, 1).is_zero()

    def test_deterministic(self):
        s = diamond_space()
        assert random_sheaf(s, 2, 7) == random_sheaf(s, 2, 7)

    def test_functorial_on_star(self):
        random_sheaf(star_space(3), 2, 7).validate()

    def test_functorial_on_diamond(self):
        for seed in range(12):
            random_sheaf(diamond_space(), 2, seed).validate()

    def test_functorial_on_clusters(self):
        s = disjoint_union(indiscrete_space(3), star_space(2))
        for seed in range(8):
            F = random_sheaf(s, 2, seed)
            F.validate()
            assert F.stalk_dim["q0"] == F.stalk_dim["q1"] == F.stalk_dim["q2"]

    def test_functorial_random_spaces(self):
        rng = random.Random(31)
        for _ in range(15):
            s = random_preorder_space(rng, 6)
            random_sheaf(s, 2, rng.randint(0, 10_000)).validate()


class TestJson:
    def test_round_trip(self, tmp_path):
        s = diamond_space()
        F = random_sheaf(s, 2, 3)
        path = tmp_path / "sheaf.json"
        save_sheaf(F, path)
        loaded = load_sheaf(s, path)
        assert loaded == F

    def test_zero_blocks_omitted(self):
        s = star_space(2)
        doc = sheaf_to_json(simple_sheaf(s, "l1", 1))
        assert doc["res"] == {}

    def test_rational_strings(self):
        s = sierpinski_space()
        F = Sheaf(s, {"a": 1, "b": 1}, {("b", "a"): RatMatrix.from_rows([["-2/3"]])})
        doc = sheaf_to_json(F)
        assert doc["res"]["b->a"] == [["-2/3"]]
        assert sheaf_from_json(s, doc) == F

    def test_identity_diagonal_rejected(self):
        s = sierpinski_space()
        doc = {"stalk_dims": {"a": 1, "b": 1}, "res": {"a->a": [["2"]]}}
        with pytest.raises(ValueError, match="identity"):
            sheaf_from_json(s, doc)
