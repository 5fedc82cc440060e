"""Exact linear algebra over the rationals.

Matrices are sparse maps (row, col) -> Fraction with no stored zeros.  All
arithmetic is exact: there are no floats and no tolerances anywhere, so any
pipeline built on these routines is bit-for-bit reproducible.

Invariant: `entries` maps in-bounds keys to nonzero `Fraction`s.  Validation
happens only at the boundary: the public `RatMatrix(...)` constructor,
`from_rows` and the JSON loaders check every entry.  Results computed here
satisfy the invariant by construction and are built by `RatMatrix._trusted`
without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Rat = Fraction

# Density at or above which elimination switches to dense row lists.  Purely a
# performance knob: both paths compute the same (unique) reduced echelon form.
DENSE_THRESHOLD = 0.25


def rat_from(value: int | str | Rat) -> Rat:
    """Coerce an int, a Fraction, or a "p/q" string to an exact rational."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def rat_str(value: int | Rat) -> str:
    """Serialize a rational as "p" or "p/q" (lowest terms, q > 0)."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RatMatrix:
    """A rows x cols matrix over Q, stored sparsely.

    Instances are treated as immutable: no public operation mutates entries,
    and all operations return fresh matrices.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Rat] = {}
        if entries:
            for (i, j), value in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols}")
                v = rat_from(value)
                if v:
                    clean[(i, j)] = v
        self.entries = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "RatMatrix":
        """Wrap entries that already satisfy the invariant, without checking."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        if n < 0:
            raise ValueError("negative matrix dimension")
        return cls._trusted(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        nrows = len(data)
        if cols is None:
            cols = len(data[0]) if nrows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(nrows, cols, {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)})

    @classmethod
    def hstack(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        if not blocks:
            return cls.zeros(0, 0)
        rows = blocks[0].rows
        entries = {}
        off = 0
        for b in blocks:
            if b.rows != rows:
                raise ValueError("hstack: row mismatch")
            for (i, j), v in b.entries.items():
                entries[(i, off + j)] = v
            off += b.cols
        return cls._trusted(rows, off, entries)

    @classmethod
    def vstack(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        if not blocks:
            return cls.zeros(0, 0)
        cols = blocks[0].cols
        entries = {}
        off = 0
        for b in blocks:
            if b.cols != cols:
                raise ValueError("vstack: column mismatch")
            for (i, j), v in b.entries.items():
                entries[(off + i, j)] = v
            off += b.rows
        return cls._trusted(off, cols, entries)

    # -- access -------------------------------------------------------------

    def get(self, i: int, j: int) -> Rat:
        return self.entries.get((i, j), Fraction(0))

    def row_dicts(self) -> list[dict[int, Rat]]:
        rows: list[dict[int, Rat]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def to_rows(self) -> list[list[Rat]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def to_str_rows(self) -> list[list[str]]:
        return [[rat_str(v) for v in row] for row in self.to_rows()]

    def take_columns(self, indices: Sequence[int]) -> "RatMatrix":
        pos = {j: t for t, j in enumerate(indices)}
        entries = {}
        for (i, j), v in self.entries.items():
            t = pos.get(j)
            if t is not None:
                entries[(i, t)] = v
        return RatMatrix._trusted(self.rows, len(indices), entries)

    def take_rows(self, indices: Sequence[int]) -> "RatMatrix":
        pos = {i: t for t, i in enumerate(indices)}
        entries = {}
        for (i, j), v in self.entries.items():
            t = pos.get(i)
            if t is not None:
                entries[(t, j)] = v
        return RatMatrix._trusted(len(indices), self.cols, entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def density(self) -> float:
        size = self.rows * self.cols
        return len(self.entries) / size if size else 0.0

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic ---------------------------------------------------------

    def transpose(self) -> "RatMatrix":
        return RatMatrix._trusted(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        other_rows: list[list[tuple[int, Rat]]] = [[] for _ in range(other.rows)]
        for (k, j), v in other.entries.items():
            other_rows[k].append((j, v))
        acc: dict[tuple[int, int], Rat] = {}
        for (i, k), a in self.entries.items():
            for j, b in other_rows[k]:
                key = (i, j)
                s = acc.get(key)
                acc[key] = a * b if s is None else s + a * b
        return RatMatrix._trusted(self.rows, other.cols, {k: v for k, v in acc.items() if v})

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            s = acc.get(key)
            acc[key] = v if s is None else s + v
        return RatMatrix._trusted(self.rows, self.cols, {k: v for k, v in acc.items() if v})

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + other.scaled(-1)

    def __neg__(self) -> "RatMatrix":
        return self.scaled(-1)

    def scaled(self, c) -> "RatMatrix":
        c = rat_from(c)
        return RatMatrix._trusted(self.rows, self.cols, {k: c * v for k, v in self.entries.items()} if c else {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class SubspacePresentation:
    """A subspace of Q^ambient_dim given by a basis (the matrix columns)."""

    ambient_dim: int
    matrix: RatMatrix

    def __post_init__(self):
        if self.matrix.rows != self.ambient_dim:
            raise ValueError("basis matrix has wrong ambient dimension")

    @property
    def dim(self) -> int:
        return self.matrix.cols

    def vectors(self) -> list[tuple[Rat, ...]]:
        cols = [[Fraction(0)] * self.ambient_dim for _ in range(self.dim)]
        for (i, j), v in self.matrix.entries.items():
            cols[j][i] = v
        return [tuple(c) for c in cols]

    def validate(self) -> None:
        if rank(self.matrix) != self.dim:
            raise ValueError("basis vectors are linearly dependent")


# -- elimination ------------------------------------------------------------


def _rref_sparse(rows: list[dict[int, Rat]], ncols: int) -> tuple[list[dict[int, Rat]], list[int]]:
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        k = None
        for i in range(r, nrows):
            if rows[i].get(c):
                k = i
                break
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            rows[r] = {j: v / pivot for j, v in rows[r].items()}
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i].get(c)
            if factor:
                target = rows[i]
                for j, v in prow.items():
                    nv = target.get(j, 0) - factor * v
                    if nv:
                        target[j] = nv
                    elif j in target:
                        del target[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_dense(rows: list[list[Rat]], ncols: int) -> tuple[list[dict[int, Rat]], list[int]]:
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        k = None
        for i in range(r, nrows):
            if rows[i][c]:
                k = i
                break
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            rows[r] = [v / pivot for v in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if factor:
                target = rows[i]
                for j in range(c, ncols):
                    if prow[j]:
                        target[j] -= factor * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return sparse, pivots


def rref(m: RatMatrix, force: str | None = None) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form of m and the pivot column indices."""
    use_dense = force == "dense" or (force is None and m.density() >= DENSE_THRESHOLD)
    if use_dense:
        rows, pivots = _rref_dense(m.to_rows(), m.cols)
    else:
        rows, pivots = _rref_sparse(m.row_dicts(), m.cols)
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return RatMatrix._trusted(m.rows, m.cols, entries), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """Rank by fraction-free forward elimination (Bareiss 1968), with no reduced form.

    Rows are scaled to integers by the lcm of their denominators and filed
    under their leading column.  Column by column, one row p filed there is
    the pivot; every other row r there becomes b r - a p (a, b the two leading
    entries over their gcd), has its content divided out, and is filed again
    under its new leading column, which lies further right.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in m.row_dicts():
        if row:
            den = lcm(*(v.denominator for v in row.values()))
            buckets.setdefault(min(row), []).append({j: v.numerator * (den // v.denominator) for j, v in row.items()})
    pivots = 0
    for c in range(m.cols):
        if c not in buckets:
            continue
        pivot, *others = sorted(buckets.pop(c), key=len)
        pivots += 1
        for row in others:
            g = gcd(row[c], pivot[c])
            a, b = row[c] // g, pivot[c] // g
            new = {j: b * v for j, v in row.items()}
            for j, v in pivot.items():
                new[j] = new.get(j, 0) - a * v
            new = {j: v for j, v in new.items() if v}
            if new:
                g = gcd(*new.values())
                buckets.setdefault(min(new), []).append({j: v // g for j, v in new.items()})
    return pivots


def kernel_basis(m: RatMatrix) -> SubspacePresentation:
    """Basis of the null space {v : m v = 0}, parametrized by free columns.

    It is the transpose of the cokernel projection of m^T.
    """
    return SubspacePresentation(m.cols, _cokernel_parts(m.transpose())[0].transpose())


def image_basis(m: RatMatrix) -> SubspacePresentation:
    """Basis of the column space: the original columns at the pivot indices."""
    _, pivots = rref(m)
    return SubspacePresentation(m.rows, m.take_columns(pivots))


def _cokernel_parts(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """q, a section s with q s = I, and a basis of im m, from one rref of m^T.

    q projects onto the non-pivot coordinates of the row-reduced image basis,
    so the quotient bases are canonical.  Column j_t of q is e_t for the t-th
    free coordinate j_t, so s is the inclusion of the free coordinates.  The
    nonzero reduced rows span im m; transposed, they are the image basis.
    """
    reduced, pivots = rref(m.transpose())
    pivot_set = set(pivots)
    free = [j for j in range(m.rows) if j not in pivot_set]
    slot = {j: t for t, j in enumerate(free)}
    q = {(t, j): Fraction(1) for j, t in slot.items()}
    img = {}
    for (i, j), v in reduced.entries.items():
        img[(j, i)] = v
        t = slot.get(j)
        if t is not None:
            q[(t, pivots[i])] = -v
    section = RatMatrix._trusted(m.rows, len(free), {(j, t): Fraction(1) for j, t in slot.items()})
    return RatMatrix._trusted(len(free), m.rows, q), section, RatMatrix._trusted(m.rows, len(pivots), img)


def cokernel(m: RatMatrix) -> tuple[RatMatrix, int]:
    """A canonical surjection q from the codomain of m with kernel image(m)."""
    q = _cokernel_parts(m)[0]
    return q, q.rows


def solve_matrix(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """Solve a X = b exactly; None when inconsistent.

    Free variables are set to zero, so the solution is canonical.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    reduced, pivots = rref(RatMatrix.hstack([a, b]))
    for p in pivots:
        if p >= a.cols:
            return None
    entries = {}
    for i, p in enumerate(pivots):
        for j in range(b.cols):
            v = reduced.get(i, a.cols + j)
            if v:
                entries[(p, j)] = v
    return RatMatrix._trusted(a.cols, b.cols, entries)


def right_inverse(m: RatMatrix) -> RatMatrix:
    """A section s with m s = identity; requires m surjective."""
    s = solve_matrix(m, RatMatrix.identity(m.rows))
    if s is None:
        raise ValueError("matrix is not surjective: no right inverse")
    return s


def induced_map(
    f: RatMatrix,
    q_source: RatMatrix,
    q_target: RatMatrix,
    *,
    kernel: RatMatrix | None = None,
    section: RatMatrix | None = None,
) -> RatMatrix:
    """The unique g with g q_source = q_target f, for cokernel projections q.

    Requires f to carry ker(q_source) into ker(q_target); otherwise the
    square does not commute for any g and a "not well-defined" error is
    raised.  kernel/section may be supplied when the caller already has them.
    """
    if f.cols != q_source.cols or f.rows != q_target.cols:
        raise ValueError("shape mismatch in induced_map")
    ker = kernel if kernel is not None else kernel_basis(q_source).matrix
    if not (q_target @ (f @ ker)).is_zero():
        raise ValueError("not well-defined: map does not respect the quotient kernels")
    sec = section if section is not None else right_inverse(q_source)
    return q_target @ (f @ sec)
