"""Symbolic space expressions: profinite-style examples and their invariants.

The grammar covers the standard cast: finite discrete spaces D(n), the
convergent sequence P = {1/n} u {0}, the Cantor set F, the Cantor set with
reinserted midpoints B, the unbounded coproduct E of the powers of P, and
aliases for the subgroup spaces S(Z_p) = P, S(prod Z_q) = P^n and the perfect
S(Z-hat).  Ranks are computed by structural recursion (values in N u {omega})
and the injective-dimension verdict follows from the rank data; scattered
finite-rank expressions can be compiled to finite surrogate models for
cross-validation against the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .extdim import (
    CONJ_PERFECT_HULL,
    THM_INFINITE_RANK,
    THM_SCATTERED,
    DimensionVerdict,
)
from .spaces import (
    FiniteSpace,
    disjoint_union,
    discrete_space,
    empty_space,
    indiscrete_space,
    is_branch_rich,
    product,
    star_space,
)

OMEGA = "omega"

Rank = Union[int, str]


@dataclass(frozen=True)
class Empty:
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Disc:
    n: int

    def __str__(self) -> str:
        return f"D({self.n})"


@dataclass(frozen=True)
class Leaf:
    # "P" convergent sequence, "F" Cantor set, "B" Cantor set with midpoints,
    # "SZhat" perfect subgroup space, "E" unbounded coproduct of P^n.
    kind: str

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Prod:
    left: "SpaceExpr"
    right: "SpaceExpr"

    def __str__(self) -> str:
        def wrap(e):
            return f"({e})" if isinstance(e, Coprod) else str(e)

        return f"{wrap(self.left)}*{wrap(self.right)}"


@dataclass(frozen=True)
class Coprod:
    left: "SpaceExpr"
    right: "SpaceExpr"

    def __str__(self) -> str:
        return f"{self.left}+{self.right}"


SpaceExpr = Union[Empty, Disc, Leaf, Prod, Coprod]


@dataclass(frozen=True)
class CbSummary:
    """Rank (natural number or "omega"), scatteredness, and hull emptiness."""

    rank: Rank
    scattered: bool
    hull_nonempty: bool

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "scattered": self.scattered,
            "hull_nonempty": self.hull_nonempty,
        }


# -- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ValueError(f"syntax error at position {self.pos}: {message}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos]

    def expr(self) -> SpaceExpr:
        terms = [self.term()]
        while self.peek() == "+":
            self.take("+")
            terms.append(self.term())
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = Coprod(t, out)
        return out

    def term(self) -> SpaceExpr:
        factors = [self.factor()]
        while self.peek() == "*":
            self.take("*")
            factors.append(self.factor())
        out = factors[-1]
        for f in reversed(factors[:-1]):
            out = Prod(f, out)
        return out

    def factor(self) -> SpaceExpr:
        atom = self.atom()
        if self.peek() == "^":
            self.take("^")
            n = self.nat()
            if n < 1:
                self.error("exponent must be >= 1")
            out = atom
            for _ in range(n - 1):
                out = Prod(atom, out)
            return out
        return atom

    def atom(self) -> SpaceExpr:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        if ch == "0":
            self.pos += 1
            return Empty()
        if not ch:
            self.error("unexpected end of input")
        name = self.word()
        if not name:
            self.error(f"unexpected character {ch!r}")
        if name == "P" or name == "SZp":
            return Leaf("P")
        if name in ("F", "B", "E"):
            return Leaf(name)
        if name == "SZhat":
            return Leaf("SZhat")
        if name == "D":
            self.take("(")
            n = self.nat()
            self.take(")")
            if n < 1:
                raise ValueError("syntax error: D(0) is not allowed, use the empty literal '0'")
            return Disc(n)
        if name == "SProd":
            self.take("(")
            n = self.nat()
            self.take(")")
            if n < 1:
                self.error("SProd needs a positive argument")
            out: SpaceExpr = Leaf("P")
            for _ in range(n - 1):
                out = Prod(Leaf("P"), out)
            return out
        self.error(f"unknown atom {name!r}")


def parse_expr(text: str) -> SpaceExpr:
    """Parse a space expression.

    Grammar: expr := term ('+' term)*; term := factor ('*' factor)*;
    factor := atom ('^' nat)?; atom := 'P' | 'D(nat)' | 'F' | 'B' | 'E' |
    'SZp' | 'SZhat' | 'SProd(nat)' | '0' | '(' expr ')'.  Aliases are
    expanded during parsing.
    """
    p = _Parser(text)
    e = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return e


def print_expr(e: SpaceExpr) -> str:
    return str(e)


# -- rank rules ------------------------------------------------------------------


def _is_empty(s: CbSummary) -> bool:
    return s.rank == 0 and not s.hull_nonempty


def _rank_sum_minus_one(a: Rank, b: Rank) -> Rank:
    if a == OMEGA or b == OMEGA:
        return OMEGA
    return a + b - 1

def _rank_max(a: Rank, b: Rank) -> Rank:
    if a == OMEGA or b == OMEGA:
        return OMEGA
    return max(a, b)


def cb_summary(e: SpaceExpr) -> CbSummary:
    """Cantor-Bendixson data by structural recursion.

    Products obey rank(X x Y) = rank(X) + rank(Y) - 1 for ranks >= 1; a
    factor with empty scattered part makes the whole product perfect, and an
    empty factor gives the empty space.  Coproducts take the maximum rank.
    """
    if isinstance(e, Empty):
        return CbSummary(0, True, False)
    if isinstance(e, Disc):
        return CbSummary(1, True, False)
    if isinstance(e, Leaf):
        if e.kind == "P":
            return CbSummary(2, True, False)
        if e.kind == "F":
            return CbSummary(0, False, True)
        if e.kind == "B":
            return CbSummary(1, False, True)
        if e.kind == "SZhat":
            return CbSummary(0, False, True)
        if e.kind == "E":
            return CbSummary(OMEGA, True, False)
        raise ValueError(f"unknown leaf kind {e.kind!r}")
    if isinstance(e, Prod):
        a, b = cb_summary(e.left), cb_summary(e.right)
        if _is_empty(a) or _is_empty(b):
            return CbSummary(0, True, False)
        if a.rank == 0 or b.rank == 0:
            # one factor is perfect and non-empty: no isolated points anywhere
            return CbSummary(0, False, True)
        hull = a.hull_nonempty or b.hull_nonempty
        return CbSummary(_rank_sum_minus_one(a.rank, b.rank), not hull, hull)
    if isinstance(e, Coprod):
        a, b = cb_summary(e.left), cb_summary(e.right)
        if _is_empty(a):
            return b
        if _is_empty(b):
            return a
        hull = a.hull_nonempty or b.hull_nonempty
        return CbSummary(_rank_max(a.rank, b.rank), not hull, hull)
    raise ValueError(f"not a space expression: {e!r}")


def dimension_verdict(e: SpaceExpr) -> DimensionVerdict:
    """Injective-dimension verdict for the sheaf category over the expression."""
    s = cb_summary(e)
    if _is_empty(s):
        return DimensionVerdict.trivial_category()
    if s.rank == OMEGA:
        return DimensionVerdict.infinite(THM_INFINITE_RANK)
    if s.hull_nonempty:
        return DimensionVerdict.conjectured_infinite(CONJ_PERFECT_HULL)
    return DimensionVerdict.exact(s.rank - 1, THM_SCATTERED)


# -- finite surrogate models --------------------------------------------------------


def finite_model(e: SpaceExpr, branches: int = 2, *, surrogate_hull: bool = False) -> FiniteSpace:
    """A finite model with the same Cantor-Bendixson data as the expression.

    P becomes a star with `branches` leaves, D(n) a discrete space, products
    and coproducts are carried over.  Only scattered finite-rank expressions
    are modelable; with surrogate_hull the perfect constructors are replaced
    by indiscrete clusters (non-Hausdorff stand-ins, rank data preserved).
    """
    if branches < 2:
        raise ValueError("branches must be >= 2 (branch-rich models)")
    summary = cb_summary(e)
    if summary.rank == OMEGA or (summary.hull_nonempty and not surrogate_hull):
        raise ValueError(f"not finitely modelable: {print_expr(e)}")
    model = _build_model(e, branches, surrogate_hull)
    found = (model.cb_rank(), bool(model.cb_filtration().stable), is_branch_rich(model))
    if found != (summary.rank, summary.hull_nonempty, True):
        raise ValueError(f"finite model does not match the Cantor-Bendixson data of {print_expr(e)}")
    return model


def _build_model(e: SpaceExpr, branches: int, surrogate: bool) -> FiniteSpace:
    if isinstance(e, Empty):
        return empty_space()
    if isinstance(e, Disc):
        return discrete_space(e.n)
    if isinstance(e, Leaf):
        if e.kind == "P":
            return star_space(branches)
        if e.kind in ("F", "SZhat") and surrogate:
            return indiscrete_space(2)
        if e.kind == "B" and surrogate:
            return disjoint_union(discrete_space(branches), indiscrete_space(2))
        raise ValueError(f"not finitely modelable: {e.kind}")
    if isinstance(e, Prod):
        return product(_build_model(e.left, branches, surrogate), _build_model(e.right, branches, surrogate))
    if isinstance(e, Coprod):
        return disjoint_union(
            _build_model(e.left, branches, surrogate), _build_model(e.right, branches, surrogate)
        )
    raise ValueError(f"not a space expression: {e!r}")
