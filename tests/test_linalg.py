from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsheaf.extdim import _test_objects, hom_complex
from cbsheaf.godement import build_resolution
from cbsheaf.linalg import (
    RatMatrix,
    SubspacePresentation,
    _cokernel_parts,
    cokernel,
    image_basis,
    induced_map,
    kernel_basis,
    rank,
    rat_from,
    rat_str,
    rref,
    right_inverse,
    solve_matrix,
)
from corpus import space_sheaf_corpus


def M(rows, cols=None):
    return RatMatrix.from_rows(rows, cols=cols)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entries = {}
    for i in range(r):
        for j in range(c):
            if draw(st.booleans()):
                entries[(i, j)] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return RatMatrix(r, c, entries)


@st.composite
def sparse_matrices(draw, rows=None, cols=None, max_dim=6):
    """Non-unit denominators, whole zero rows and columns, and (half the time)
    a product through a small inner dimension, so that rank drops."""
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        return draw(sparse_matrices(r, k)) @ draw(sparse_matrices(k, c))
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0))))
    entries = {}
    for i in range(r):
        for j in range(c):
            if i not in zero_rows and j not in zero_cols and draw(st.booleans()):
                entries[(i, j)] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
    return RatMatrix(r, c, entries)


def assert_invariant(m):
    """m stores only nonzero Fractions at in-bounds keys, as validation would."""
    assert all(type(v) is Fraction and v for v in m.entries.values())
    assert m == RatMatrix(m.rows, m.cols, m.entries)


class TestLeanKernel:
    @given(sparse_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_rref(self, m):
        assert rank(m) == len(rref(m)[1])

    def test_rank_examples(self):
        assert rank(RatMatrix.zeros(3, 4)) == 0
        assert rank(M([["1/2", "1/3"], ["3/2", 1]])) == 1
        assert rank(M([[0, 0, 0], [0, "2/7", 1], [0, 0, "-5/3"]])) == 2

    @given(sparse_matrices())
    @settings(max_examples=100, deadline=None)
    def test_cokernel_parts(self, m):
        q, s, img = _cokernel_parts(m)
        assert (q @ img).is_zero()
        assert q @ s == RatMatrix.identity(q.rows)
        assert rank(img) == img.cols == rank(m)
        assert (q, q.rows) == cokernel(m)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_internal_results_keep_invariant(self, data):
        a = data.draw(sparse_matrices())
        b = data.draw(sparse_matrices(rows=a.cols))
        c = data.draw(sparse_matrices(rows=a.rows, cols=a.cols))
        rows = data.draw(st.lists(st.integers(0, a.rows - 1), unique=True)) if a.rows else []
        cols = data.draw(st.lists(st.integers(0, a.cols - 1), unique=True)) if a.cols else []
        k = data.draw(st.integers(-3, 3))
        results = [
            a @ b, a + c, a - c, a - a, -a, a.scaled(k), a.transpose(),
            a.take_rows(rows), a.take_columns(cols),
            RatMatrix.hstack([a, c]), RatMatrix.vstack([a, c]), RatMatrix.identity(a.rows),
            rref(a)[0], rref(a, force="dense")[0], kernel_basis(a).matrix, cokernel(a)[0],
            *_cokernel_parts(a), solve_matrix(a, a @ b),
        ]
        for r in results:
            assert_invariant(r)

    def test_cancelling_sums_are_dropped(self):
        assert (M([[1, 1]]) @ M([[1], [-1]])).nnz == 0
        assert (M([[1, 2]]) + M([[-1, 3]])).entries == {(0, 1): Fraction(5)}

    def test_resolution_matrices_keep_invariant(self):
        for s, F, max_len in space_sheaf_corpus(6):
            r = build_resolution(F, max_len)
            # the C0 restrictions, the units and the alphas are built without checks
            matrices = [m for term in r.terms for m in term.res.values()]
            matrices += [m for unit in r.units for m in unit.comp.values()]
            matrices += [a for _, T in _test_objects(s) for a in hom_complex(T, r).alphas]
            for m in matrices:
                assert_invariant(m)


class TestRational:
    def test_round_trip(self):
        for text in ["3", "-2/5", "0", "7/3"]:
            assert rat_str(rat_from(text)) == text

    def test_denominator_one_omitted(self):
        assert rat_str(Fraction(6, 2)) == "3"

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            rat_from("1.5x")
        with pytest.raises(ValueError):
            rat_from(True)


class TestRref:
    def test_empty(self):
        reduced, pivots = rref(RatMatrix.zeros(0, 0))
        assert (reduced.rows, reduced.cols) == (0, 0)
        assert pivots == ()

    def test_identity(self):
        reduced, pivots = rref(RatMatrix.identity(3))
        assert reduced == RatMatrix.identity(3)
        assert pivots == (0, 1, 2)

    def test_rank_one(self):
        reduced, pivots = rref(M([[1, 2], [2, 4]]))
        assert reduced == M([[1, 2], [0, 0]])
        assert pivots == (0,)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_dense_and_sparse_agree(self, m):
        assert rref(m, force="sparse") == rref(m, force="dense")

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + kernel_basis(m).dim == m.cols


class TestKernelImage:
    def test_kernel_of_identity(self):
        assert kernel_basis(RatMatrix.identity(4)).dim == 0

    def test_kernel_of_zero(self):
        assert kernel_basis(RatMatrix.zeros(2, 3)).dim == 3

    def test_kernel_line(self):
        basis = kernel_basis(M([[1, 1]]))
        assert basis.dim == 1
        (v,) = basis.vectors()
        assert v[0] == -v[1] != 0

    def test_image_of_zero(self):
        assert image_basis(RatMatrix.zeros(3, 2)).dim == 0

    def test_image_of_identity(self):
        b = image_basis(RatMatrix.identity(3))
        assert b.matrix == RatMatrix.identity(3)

    def test_image_rank_one(self):
        b = image_basis(M([[1, 2], [2, 4]]))
        assert b.dim == 1
        assert b.vectors() == [(Fraction(1), Fraction(2))]

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_presentations_independent(self, m):
        kernel_basis(m).validate()
        image_basis(m).validate()


class TestCokernel:
    def test_identity_has_no_cokernel(self):
        q, dim = cokernel(RatMatrix.identity(3))
        assert dim == 0 and q.rows == 0

    def test_zero_map(self):
        q, dim = cokernel(RatMatrix.zeros(4, 2))
        assert dim == 4
        assert q == RatMatrix.identity(4)

    def test_diagonal_embedding(self):
        diag = M([[1], [1], [1], [1]])
        q, dim = cokernel(diag)
        assert dim == 3
        assert (q @ diag).is_zero()

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_projection_properties(self, m):
        q, dim = cokernel(m)
        assert dim == m.rows - rank(m)
        assert (q @ m).is_zero()
        assert rank(q) == dim


class TestSolve:
    def test_consistent(self):
        a = M([[1, 2], [3, 4]])
        b = M([[5], [11]])
        x = solve_matrix(a, b)
        assert a @ x == b

    def test_inconsistent(self):
        a = M([[1, 1], [1, 1]])
        b = M([[0], [1]])
        assert solve_matrix(a, b) is None

    def test_right_inverse(self):
        q = M([[1, 1, 0], [0, 1, 1]])
        s = right_inverse(q)
        assert q @ s == RatMatrix.identity(2)

    def test_right_inverse_needs_surjectivity(self):
        with pytest.raises(ValueError, match="not surjective"):
            right_inverse(M([[1, 1], [1, 1]]))


class TestInducedMap:
    def test_identity_square(self):
        q, _ = cokernel(M([[1], [1]]))
        g = induced_map(RatMatrix.identity(2), q, q)
        assert g == RatMatrix.identity(1)

    def test_zero_dimensional_target(self):
        qa, _ = cokernel(M([[1], [1]]))
        qb, dim = cokernel(RatMatrix.identity(2))
        assert dim == 0
        g = induced_map(RatMatrix.identity(2), qa, qb)
        assert g.rows == 0 and g.is_zero()

    def test_swap_on_quotient_by_antidiagonal(self):
        # coker of t |-> (t, -t); classes are indexed by u + v, swap fixes them
        q, _ = cokernel(M([[1], [-1]]))
        swap = M([[0, 1], [1, 0]])
        assert induced_map(swap, q, q) == RatMatrix.identity(1)

    def test_swap_on_quotient_by_diagonal(self):
        # on Q^2 / diag the swap acts by -1 on the antidiagonal class
        q, _ = cokernel(M([[1], [1]]))
        swap = M([[0, 1], [1, 0]])
        assert induced_map(swap, q, q) == M([[-1]])

    def test_not_well_defined(self):
        qa, _ = cokernel(M([[1], [1]]))  # kernel spanned by (1,1)
        qb, _ = cokernel(M([[1], [0]]))  # kernel spanned by (1,0)
        f = RatMatrix.identity(2)
        with pytest.raises(ValueError, match="not well-defined"):
            induced_map(f, qa, qb)

def test_induced_map_composition_random():
    import random

    rng = random.Random(5)
    for _ in range(30):
        a, b, c, k = (rng.randint(1, 4) for _ in range(4))
        ma = RatMatrix(a, k, {(i, j): rng.randint(-2, 2) for i in range(a) for j in range(k)})
        f = RatMatrix(b, a, {(i, j): rng.randint(-2, 2) for i in range(b) for j in range(a)})
        g = RatMatrix(c, b, {(i, j): rng.randint(-2, 2) for i in range(c) for j in range(b)})
        mb = f @ ma
        mc = g @ mb
        qa, _ = cokernel(ma)
        qb, _ = cokernel(mb)
        qc, _ = cokernel(mc)
        lhs = induced_map(g @ f, qa, qc)
        rhs = induced_map(g, qb, qc) @ induced_map(f, qa, qb)
        assert lhs == rhs


class TestMatrixOps:
    def test_matmul_shape_error(self):
        with pytest.raises(ValueError, match="shape"):
            M([[1, 2]]) @ M([[1, 2]])

    def test_stacking(self):
        a = M([[1, 2]])
        b = M([[3, 4]])
        assert RatMatrix.vstack([a, b]) == M([[1, 2], [3, 4]])
        assert RatMatrix.hstack([a, b]) == M([[1, 2, 3, 4]])

    def test_no_stored_zeros(self):
        m = RatMatrix(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(2)})
        assert m.nnz == 1

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            RatMatrix(1, 1, {(1, 0): 1})

    def test_presentation_validates_shape(self):
        with pytest.raises(ValueError):
            SubspacePresentation(3, RatMatrix.identity(2))
