"""Command-line front end.

Human-readable reports go to stdout; JSON goes to --out or replaces the text
with --format json.  Identical invocations produce byte-identical output:
all randomness is seeded (default 0), bases are canonical, JSON keys sorted.
Exit status is 0 whenever the computation completed (including flagged
non-termination) and 1 on invalid input.

`main(argv)` may be called repeatedly in one process: it builds its parser
once, on the first call, and reuses it for every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .extdim import category_dimension, ext_groups, hom_cokernel_check, injective_dimension_bounds
from .godement import build_resolution, check_support, coker_nonvanishing
from .profinite import cb_summary, dimension_verdict, finite_model, parse_expr, print_expr
from .sheaves import Sheaf, constant_sheaf, load_sheaf, simple_sheaf, skyscraper
from .spaces import FiniteSpace, load_space, save_space, space_to_json


def _emit(doc: dict, lines: list[str], args) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(payload)
    else:
        for line in lines:
            print(line)


def _load_input_space(args) -> FiniteSpace:
    return load_space(args.space)


def _resolve_sheaf(spec: str, space: FiniteSpace) -> tuple[Sheaf, str]:
    if spec == "constant":
        return constant_sheaf(space, 1), "constant"
    if spec.startswith("skyscraper:"):
        x = spec.split(":", 1)[1]
        return skyscraper(space, x, 1), spec
    if spec.startswith("simple:"):
        x = spec.split(":", 1)[1]
        return simple_sheaf(space, x, 1), spec
    return load_sheaf(space, spec), spec


def _fmt_set(points) -> str:
    return "{" + ", ".join(sorted(points)) + "}"


def _verdict_lines(v) -> list[str]:
    lines = [f"verdict: {v.kind}"]
    if v.kind == "exact":
        lines.append(f"injective dimension: {v.n}")
    elif v.kind == "bounds":
        upper = "unbounded" if v.upper is None else v.upper
        lines.append(f"bounds: lower {v.lower}, upper {upper}")
    lines.append(f"provenance: {v.provenance}")
    if v.witness:
        lines.append(f"witness: {v.witness}")
    return lines


def cmd_rank(args) -> int:
    if args.space:
        space = _load_input_space(args)
        filt = space.cb_filtration()
        scattered, hull = space.decompose()
        heights = space.heights()
        doc = {
            "points": len(space.points),
            "rank": filt.rank,
            "levels": [sorted(level) for level in filt.levels],
            "scattered_part": sorted(scattered),
            "perfect_hull": sorted(hull),
            "heights": heights,
        }
        lines = [f"space: {args.space} ({len(space.points)} points)", f"rank: {filt.rank}", "levels:"]
        lines += [f"  X({k}) = {_fmt_set(level)}" for k, level in enumerate(filt.levels)]
        lines.append(f"scattered part: {_fmt_set(scattered)}")
        lines.append(f"perfect hull: {_fmt_set(hull)}")
        if heights:
            lines.append("heights: " + " ".join(f"{x}={heights[x]}" for x in sorted(heights)))
        _emit(doc, lines, args)
        return 0
    expr = parse_expr(args.expr)
    s = cb_summary(expr)
    doc = {"expression": print_expr(expr), "summary": s.to_json()}
    lines = [
        f"expression: {print_expr(expr)}",
        f"rank: {s.rank}",
        f"scattered: {'yes' if s.scattered else 'no'}",
        f"perfect hull: {'non-empty' if s.hull_nonempty else 'empty'}",
    ]
    _emit(doc, lines, args)
    return 0


def cmd_decompose(args) -> int:
    if args.space:
        space = _load_input_space(args)
        scattered, hull = space.decompose()
        doc = {"scattered_part": sorted(scattered), "perfect_hull": sorted(hull)}
        lines = [
            f"scattered part: {_fmt_set(scattered)}",
            f"perfect hull: {_fmt_set(hull)}",
        ]
        _emit(doc, lines, args)
        return 0
    expr = parse_expr(args.expr)
    s = cb_summary(expr)
    doc = {"expression": print_expr(expr), "summary": s.to_json()}
    lines = [
        f"expression: {print_expr(expr)}",
        f"scattered: {'yes' if s.scattered else 'no'}",
        f"perfect hull: {'non-empty' if s.hull_nonempty else 'empty'}",
    ]
    _emit(doc, lines, args)
    return 0


def cmd_dim(args) -> int:
    expr = parse_expr(args.expr)
    v = dimension_verdict(expr)
    doc = {"expression": print_expr(expr), "verdict": v.to_json()}
    _emit(doc, [f"expression: {print_expr(expr)}"] + _verdict_lines(v), args)
    return 0


def cmd_category_dim(args) -> int:
    space = _load_input_space(args)
    v = category_dimension(
        space,
        max_len=args.max_len,
        random_sheaves=args.random_sheaves,
        seed=args.seed,
    )
    doc = {"space": space_to_json(space), "verdict": v.to_json()}
    lines = [f"space: {args.space} ({len(space.points)} points)"] + _verdict_lines(v)
    _emit(doc, lines, args)
    return 0


def cmd_model(args) -> int:
    expr = parse_expr(args.expr)
    model = finite_model(expr, args.branches, surrogate_hull=args.surrogate)
    doc = space_to_json(model)
    if args.out:
        save_space(model, args.out)
    lines = [
        f"expression: {print_expr(expr)}",
        f"model: {len(model.points)} points, rank {model.cb_rank()}",
    ]
    if args.surrogate:
        lines.append("note: perfect parts replaced by non-Hausdorff indiscrete clusters")
    if args.out:
        lines.append(f"written to {args.out}")
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_resolve(args) -> int:
    space = _load_input_space(args)
    sheaf, label = _resolve_sheaf(args.sheaf, space)
    r = build_resolution(sheaf, args.max_len)
    doc = r.to_json()
    doc["sheaf_ref"] = label
    lines = [
        f"sheaf: {label} on {args.space}",
        f"terms: {r.length}",
        f"terminated: {'true' if r.terminated else 'false'}",
    ]
    for k, term in enumerate(r.terms):
        dims = " ".join(f"{x}:{term.stalk_dim[x]}" for x in sorted(space.points))
        lines.append(f"  C{k}: {dims}")
    _emit(doc, lines, args)
    return 0


def cmd_ext(args) -> int:
    space = _load_input_space(args)
    sheaf, label = _resolve_sheaf(args.sheaf, space)
    r = build_resolution(sheaf, args.max_len)
    report = ext_groups(sheaf, args.point, args.max_degree, resolution=r)
    verdict = injective_dimension_bounds(sheaf, max_len=args.max_len, resolution=r)
    doc = {
        "point": args.point,
        "sheaf": label,
        "ext_dims": report.to_json(),
        "verdict": verdict.to_json(),
    }
    lines = [
        f"sheaf: {label} on {args.space}",
        f"point: {args.point}",
        "ext dims: " + " ".join(f"{k}:{report.ext_dims[k]}" for k in sorted(report.ext_dims)),
    ] + _verdict_lines(verdict)
    _emit(doc, lines, args)
    return 0


def cmd_check(args) -> int:
    space = _load_input_space(args)
    sheaf, label = _resolve_sheaf(args.sheaf, space)
    r = build_resolution(sheaf, args.max_len)
    support = check_support(r)
    pairing = {}
    for x in sorted(space.points):
        if space.is_closed_point(x):
            pairing[x] = hom_cokernel_check(r, x)
    try:
        nonvanishing = coker_nonvanishing(r)
    except ValueError as exc:
        nonvanishing = {"ok": True, "skipped": str(exc)}
    ok = support["ok"] and nonvanishing["ok"] and all(p["ok"] for p in pairing.values())
    doc = {
        "sheaf": label,
        "terminated": r.terminated,
        "support": support,
        "hom_pairing": {x: p["ok"] for x, p in pairing.items()},
        "nonvanishing": nonvanishing,
        "ok": ok,
    }
    lines = [
        f"sheaf: {label} on {args.space}",
        f"support check: {'ok' if support['ok'] else 'FAIL'}",
        f"hom pairing at closed points: {'ok' if all(p['ok'] for p in pairing.values()) else 'FAIL'}"
        f" ({', '.join(sorted(pairing)) or 'none'})",
        f"cokernel non-vanishing: {'ok' if nonvanishing['ok'] else 'FAIL'}"
        + (f" [{nonvanishing['skipped']}]" if "skipped" in nonvanishing else ""),
        f"overall: {'ok' if ok else 'FAIL'}",
    ]
    _emit(doc, lines, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbsheaf",
        description="Cantor-Bendixson ranks and injective dimensions of sheaves of Q-vector spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, out=True):
        p.add_argument("--format", choices=["text", "json"], default="text")
        if out:
            p.add_argument("--out", help="write the JSON report to this file")

    p_rank = sub.add_parser("rank", help="Cantor-Bendixson rank and filtration")
    p_rank.add_argument("expr", nargs="?", help="space expression, e.g. \"P^3\"")
    p_rank.add_argument("--space", help="finite space JSON file")
    common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_dec = sub.add_parser("decompose", help="scattered / perfect-hull decomposition")
    p_dec.add_argument("expr", nargs="?")
    p_dec.add_argument("--space")
    common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_dim = sub.add_parser("dim", help="injective-dimension verdict for an expression")
    p_dim.add_argument("expr")
    common(p_dim)
    p_dim.set_defaults(func=cmd_dim)

    p_cat = sub.add_parser("category-dim", help="injective dimension of the sheaf category on a finite space")
    p_cat.add_argument("--space", required=True)
    p_cat.add_argument("--max-len", type=int, default=None, dest="max_len")
    p_cat.add_argument("--random-sheaves", type=int, default=0, dest="random_sheaves")
    p_cat.add_argument("--seed", type=int, default=0)
    common(p_cat)
    p_cat.set_defaults(func=cmd_category_dim)

    p_model = sub.add_parser("model", help="finite surrogate model for an expression")
    p_model.add_argument("expr")
    p_model.add_argument("--branches", type=int, default=2)
    p_model.add_argument("--surrogate", action="store_true", help="replace perfect parts by indiscrete clusters")
    common(p_model)
    p_model.set_defaults(func=cmd_model)

    p_res = sub.add_parser("resolve", help="build the Godement resolution of a sheaf")
    p_res.add_argument("--space", required=True)
    p_res.add_argument("--sheaf", default="constant", help="constant | skyscraper:<pt> | simple:<pt> | <file>")
    p_res.add_argument("--max-len", type=int, default=None, dest="max_len")
    common(p_res)
    p_res.set_defaults(func=cmd_resolve)

    p_ext = sub.add_parser("ext", help="Ext groups of a skyscraper against a sheaf")
    p_ext.add_argument("--space", required=True)
    p_ext.add_argument("--sheaf", default="constant")
    p_ext.add_argument("--point", required=True)
    p_ext.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    p_ext.add_argument("--max-len", type=int, default=None, dest="max_len")
    common(p_ext)
    p_ext.set_defaults(func=cmd_ext)

    p_chk = sub.add_parser("check", help="support, hom-pairing, and non-vanishing suites")
    p_chk.add_argument("--space", required=True)
    p_chk.add_argument("--sheaf", default="constant")
    p_chk.add_argument("--max-len", type=int, default=None, dest="max_len")
    common(p_chk)
    p_chk.set_defaults(func=cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser and every default is immutable,
    # so one parser serves every call in the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("rank", "decompose") and bool(args.expr) == bool(args.space):
        print("error: give exactly one of an expression or --space", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
