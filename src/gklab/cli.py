"""Command line surface: analyze, graph, verify, classify.

Exit codes: 0 success / all pass, 1 suite failure, 2 input error or an
output file that cannot be written, 3 enumeration cap exceeded, 4 Frobenius
complement search exhausted.
Diagnostics go to stderr; machine output (JSON, DOT) goes to stdout or the
requested file.
"""

from __future__ import annotations

import argparse
import json
import sys

from sympy import factorint

from . import __version__
from . import catalog as cat
from . import elements as el
from .frobenius import SearchExhausted, frobenius_kind
from .groups import (CapExceeded, GroupHandle, direct_product,
                     element_orders_multiset, enumerate_group,
                     semidirect_product)
from .primegraph import (SOLVABLE_CUT, SOLVABLE_RATIONAL, classify, gk_graph,
                         parse_graph_literal, to_dot)
from .rationality import rationality_report
from .structure import class_predicates, fitting_series, sylow
from .verify import SUITES


class SpecError(ValueError):
    pass


def load_spec(path: str) -> dict[str, GroupHandle]:
    """Build every group of a JSON group-specification file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec file: {exc}")
    if not isinstance(doc, dict):
        raise SpecError("spec file must hold a JSON object")
    recipes = doc.get("groups")
    if not isinstance(recipes, dict) or not recipes:
        raise SpecError('spec file needs a non-empty "groups" map')
    built: dict[str, GroupHandle] = {}

    def build(name: str, stack=()) -> GroupHandle:
        if name in built:
            return built[name]
        if name in stack:
            raise SpecError(f"cyclic recipe reference through {name!r}")
        if name not in recipes:
            raise SpecError(f"undefined group name {name!r}")
        built[name] = _build_recipe(name, recipes[name],
                                    lambda n: build(n, stack + (name,)))
        return built[name]

    for name in recipes:
        build(name)
    return built


def _build_recipe(name, recipe, resolve) -> GroupHandle:
    if not isinstance(recipe, dict) or "type" not in recipe:
        raise SpecError(f"recipe {name!r} needs a type")
    kind = recipe["type"]
    try:
        if kind == "perm":
            degree = int(recipe["degree"])
            gens = [el.perm_from_cycles(degree, cycles)
                    for cycles in recipe["gens"]]
            return enumerate_group(gens, name)
        if kind == "matgrp":
            p = int(recipe["p"])
            gens = [el.mat(p, rows) for rows in recipe["gens"]]
            return enumerate_group(gens, name)
        if kind == "builtin":
            fn = cat.BUILTINS.get(recipe["name"])
            if fn is None:
                raise SpecError(f"unknown builtin {recipe['name']!r}")
            return fn(*recipe.get("args", [])).relabel(name)
        if kind == "catalog":
            return cat.catalog_entry(recipe["name"]).build().relabel(name)
        if kind == "direct":
            factors = [resolve(f) for f in recipe["factors"]]
            if len(factors) < 2:
                raise SpecError("direct product needs at least 2 factors")
            G = factors[0]
            for H in factors[1:]:
                G = direct_product(G, H)
            return G.relabel(name)
        if kind == "semidirect":
            N = resolve(recipe["kernel"])
            H = resolve(recipe["acting"])
            if "action_matrices" in recipe:
                p = int(recipe["p"])
                mats = [el.mat(p, rows) for rows in recipe["action_matrices"]]
                action = cat.matrix_action(N, mats)
            else:
                action = [[_word(N, w) for w in images]
                          for images in recipe["action_images"]]
            return semidirect_product(N, H, action, name)
    except SpecError:
        raise
    except CapExceeded:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SpecError(f"bad recipe {name!r}: {exc}")
    raise SpecError(f"unknown recipe type {kind!r}")


def _word(N: GroupHandle, indices) -> tuple:
    acc = N.identity
    for i in indices:
        acc = N.mult(acc, N.generators[int(i)])
    return acc


def analysis_report(groups: dict[str, GroupHandle], config: dict) -> dict:
    return {
        "version": __version__,
        "config": config,
        "groups": {name: _group_report(G) for name, G in sorted(groups.items())},
    }


def _group_report(G: GroupHandle) -> dict:
    graph = gk_graph(G)
    rep = rationality_report(G)
    fs = fitting_series(G)
    preds = class_predicates(G)
    classes = sorted((v.order, v.bg_order, v.verdict) for v in rep.per_class)
    out = {
        "order": G.order,
        "element_orders": {str(k): v for k, v in
                           sorted(element_orders_multiset(G).items())},
        "gk_graph": {
            "vertices": list(graph.vertices),
            "edges": [list(e) for e in graph.edges],
            "literal": graph.literal(),
        },
        "rationality": {
            "is_rational": rep.is_rational,
            "is_cut": rep.is_cut,
            "non_rational_orders": sorted(rep.non_rational_orders),
            "classes": [{"order": o, "bg_order": b, "verdict": v}
                        for o, b, v in classes],
        },
        "structure": {
            "sylow_orders": {str(p): sylow(G, p).order
                             for p in sorted(factorint(G.order))},
            "fitting_orders": [s.order for s in fs.series],
            "fitting_length": fs.length,
            "solvable": fs.solvable,
            "predicates": preds,
        },
        "frobenius_kind": frobenius_kind(G),
        "classification": {},
    }
    if fs.solvable and rep.is_cut:
        v = classify(graph, SOLVABLE_CUT)
        out["classification"][SOLVABLE_CUT] = {"status": v.status,
                                               "citation": v.citation}
    if fs.solvable and rep.is_rational:
        v = classify(graph, SOLVABLE_RATIONAL)
        out["classification"][SOLVABLE_RATIONAL] = {"status": v.status,
                                                    "citation": v.citation}
    return out


def _emit(text: str, out_path) -> int:
    """Write text to out_path, or stdout when unset; the exit code."""
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def cmd_analyze(args) -> int:
    groups = load_spec(args.spec)
    report = analysis_report(groups, {"spec": args.spec})
    return _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def _resolve_group(name_or_path: str, member) -> GroupHandle:
    try:
        return cat.catalog_entry(name_or_path).build()
    except KeyError:
        pass
    groups = load_spec(name_or_path)
    if member:
        if member not in groups:
            raise SpecError(f"no group named {member!r} in spec")
        return groups[member]
    if len(groups) == 1:
        return next(iter(groups.values()))
    raise SpecError("spec defines several groups; pick one with --name")


def cmd_graph(args) -> int:
    G = _resolve_group(args.group, args.name)
    return _emit(to_dot(gk_graph(G), G.label), args.dot)


def cmd_verify(args) -> int:
    fn = SUITES[args.suite]
    if args.suite == "invariants":
        rows = fn(seed=args.seed, count=args.count, max_order=args.max_order)
    else:
        rows = fn()
    passed = sum(1 for _, ok, _ in rows if ok)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"{passed}/{len(rows)} pass")
    return 0 if passed == len(rows) else 1


def cmd_classify(args) -> int:
    cls = SOLVABLE_CUT if args.cls == "cut" else SOLVABLE_RATIONAL
    graph = parse_graph_literal(args.literal)
    v = classify(graph, cls)
    print(f"{graph.literal() or '(empty)'} [{v.class_queried}]: "
          f"{v.status} ({v.citation})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gklab",
        description="rational/cut status, GK prime graphs, and Frobenius "
                    "structure of small finite groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze groups from a JSON spec file")
    p.add_argument("spec")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("graph", help="emit the GK-graph of a group as DOT")
    p.add_argument("group", help="catalog name (e.g. fig3.e) or spec path")
    p.add_argument("--name", default=None, help="group name within the spec")
    p.add_argument("--dot", default=None, metavar="OUT",
                   help="write DOT here instead of stdout")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-order", type=int, default=2000)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="classify a prime-graph literal")
    p.add_argument("literal", help='e.g. "2-3,5"')
    p.add_argument("--class", dest="cls", choices=["cut", "rational"],
                   required=True)
    p.set_defaults(fn=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
