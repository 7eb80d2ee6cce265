"""Command line surface: analyze, graph, verify, classify.

Exit codes: 0 success / all pass, 1 suite failure, 2 input error or an
output file that cannot be written, 3 enumeration cap exceeded, 5 internal
invariant failed (``structure.InvariantFailed``: a computation reached a
state the theory rules out, such as a Sylow growth that stalls or a
Frobenius kernel without a complement).  Code 4 (Frobenius complement search
exhausted) is retired with that search and is not reused.
Diagnostics go to stderr; machine output (JSON, DOT) goes to stdout or the
requested file.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from inspect import signature

from . import __version__
from . import catalog as cat
from . import elements as el
from .frobenius import frobenius_kind
from .groups import (CapExceeded, GroupHandle, default_cap, direct_product,
                     element_orders_multiset, enumerate_group,
                     semidirect_product)
from .numtheory import factorint
from .primegraph import (CLASSES, SOLVABLE_CUT, SOLVABLE_RATIONAL, classify,
                         gk_graph, parse_graph_literal, to_dot)
from .rationality import rationality_report
from .structure import (InvariantFailed, class_predicates, fitting_series,
                        sylow)
from .verify import SUITES


class SpecError(ValueError):
    pass


class RecipeError(SpecError):
    """A fault in one recipe of a spec file, which the message names."""

    def __init__(self, name: str, message) -> None:
        super().__init__(f"bad recipe {name!r}: {message}")


MAX_PRODUCT_DEPTH = 64  # only products of trivial groups get near it

# the keys each recipe type needs, besides "type", and those it may also take
RECIPE_KEYS = {"perm": {"degree", "gens"}, "matgrp": {"p", "gens"},
               "builtin": {"name"}, "catalog": {"name"},
               "direct": {"factors"}, "semidirect": {"kernel", "acting"}}
OPTIONAL_KEYS = {"builtin": {"args"},
                 "semidirect": {"action_matrices", "p", "action_images"}}


def load_spec(path: str) -> dict[str, GroupHandle]:
    """Build every group of a JSON group-specification file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SpecError(f"cannot read spec file: {exc}")
    if not isinstance(doc, dict):
        raise SpecError("spec file must hold a JSON object")
    recipes = doc.get("groups")
    if not isinstance(recipes, dict) or not recipes:
        raise SpecError('spec file needs a non-empty "groups" map')
    built: dict[str, GroupHandle] = {}
    depth: dict[str, int] = {}  # product depth of each built recipe

    def build(name: str, stack=()) -> GroupHandle:
        if name in built:
            return built[name]
        # a name that is on the stack, or is no recipe, was read by the
        # recipe on top of the stack
        if name in stack:
            raise RecipeError(stack[-1], "cyclic recipe reference through "
                              f"{name!r}")
        if name not in recipes:
            raise RecipeError(stack[-1], f"undefined group name {name!r}")

        def resolve(names, own_depth: int) -> list[GroupHandle]:
            # every recipe on the stack is a product, one level deep or more
            if len(stack) >= MAX_PRODUCT_DEPTH:
                raise RecipeError(stack[0], "products nest more than "
                                  f"{MAX_PRODUCT_DEPTH} deep")
            groups = [build(n, stack + (name,)) for n in names]
            depth[name] = own_depth + max(map(depth.__getitem__, names))
            if depth[name] > MAX_PRODUCT_DEPTH:
                raise RecipeError(name, "products nest more than "
                                  f"{MAX_PRODUCT_DEPTH} deep")
            return groups
        built[name] = _build_recipe(name, recipes[name], resolve)
        depth.setdefault(name, 0)
        return built[name]

    for name in recipes:
        build(name)
    return built


def _build_recipe(name, recipe, resolve) -> GroupHandle:
    """Build one recipe; resolve(names, own_depth) builds those it names."""
    if not isinstance(recipe, dict) or "type" not in recipe:
        raise RecipeError(name, "needs a type")
    kind = recipe["type"]
    if not isinstance(kind, str) or kind not in RECIPE_KEYS:
        raise RecipeError(name, f"unknown recipe type {json.dumps(kind)}")
    if extra := sorted(recipe.keys() - RECIPE_KEYS[kind] - {"type"}
                       - OPTIONAL_KEYS.get(kind, set())):
        raise RecipeError(name, f"a {kind} recipe takes no key "
                          f"{', '.join(map(repr, extra))}")
    if missing := sorted(RECIPE_KEYS[kind] - recipe.keys()):
        raise RecipeError(name, f"a {kind} recipe needs key "
                          f"{', '.join(map(repr, missing))}")
    for key in ("name", "kernel", "acting"):  # read as names of other things
        if key in recipe and not isinstance(recipe[key], str):
            raise RecipeError(name, f"{key} needs a "
                              f"{kind if key == 'name' else 'recipe'} name, "
                              f"got {json.dumps(recipe[key])}")
    try:
        if kind == "perm":
            degree = _ints(name, "degree", recipe["degree"])
            if degree < 1:
                raise RecipeError(name, "degree needs an integer of at "
                                  f"least 1, got {degree}")
            if degree > (cap := default_cap()):
                raise CapExceeded(f"recipe {name!r}: degree {degree} exceeds "
                                  f"cap {cap}")
            gens = [el.perm_from_cycles(degree, cycles)
                    for cycles in _ints(name, "gens", recipe["gens"], depth=3)]
            return enumerate_group(gens, name)
        if kind == "matgrp":
            p = _ints(name, "p", recipe["p"])
            gens = [el.mat(p, rows)
                    for rows in _ints(name, "gens", recipe["gens"], depth=3)]
            return enumerate_group(gens, name)
        if kind == "builtin":
            if (fn := cat.BUILTINS.get(builtin := recipe["name"])) is None:
                raise RecipeError(name, f"unknown builtin {builtin!r}")
            args = _ints(name, "args", recipe.get("args", []), depth=1)
            # every builtin takes its arguments by position, none optional
            if len(args) != (n := len(params := signature(fn).parameters)):
                names = f" ({', '.join(params)})" if n else ""
                raise RecipeError(name, f"builtin {builtin!r} takes {n} "
                                  f"argument{'s' * (n != 1)}{names}, "
                                  f"got {len(args)}")
            return fn(*args).relabel(name)
        if kind == "catalog":
            return cat.catalog_entry(recipe["name"]).build().relabel(name)
        if kind == "direct":
            names = recipe["factors"]
            if not (isinstance(names, list)
                    and all(isinstance(n, str) for n in names)):
                raise RecipeError(name, "factors needs a list of recipe "
                                  f"names, got {json.dumps(names)}")
            if len(names) < 2:
                raise RecipeError(name, "needs 2 factors or more")
            factors = resolve(names, len(names) - 1)
            return reduce(direct_product, factors).relabel(name)
        # the one type left: semidirect, with exactly one form of action
        form = recipe.keys() & OPTIONAL_KEYS["semidirect"]
        if form not in ({"action_matrices", "p"}, {"action_images"}):
            raise RecipeError(name, "a semidirect recipe takes "
                              "action_matrices with p, or action_images "
                              "without p")
        N, H = resolve([recipe["kernel"], recipe["acting"]], 1)
        if "p" in form:
            p = _ints(name, "p", recipe["p"])
            rows = _ints(name, "action_matrices",
                         recipe["action_matrices"], depth=3)
            action = cat.matrix_action(N, [el.mat(p, r) for r in rows])
        else:
            words = _ints(name, "action_images", recipe["action_images"],
                          depth=3)
            gens = N.generators
            if bad := [i for images in words for w in images for i in w
                       if not 0 <= i < len(gens)]:
                raise RecipeError(name, f"generator index {bad[0]} is outside "
                                  f"the valid range 0..{len(gens) - 1}")
            action = [[reduce(N.mult, map(gens.__getitem__, w), N.identity)
                       for w in images] for images in words]
        return semidirect_product(N, H, action, name)
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # a KeyError's str() is the repr of its message
        raise RecipeError(name, exc.args[0] if isinstance(exc, KeyError)
                          else exc)


def _ints(name: str, field: str, value, depth: int = 0):
    """A recipe field's value as JSON integers nested ``depth`` lists deep.

    Bools, floats and strings are refused rather than read as integers.
    """
    if depth:
        if not isinstance(value, list):
            raise RecipeError(name, f"{field} needs a list, got "
                              f"{json.dumps(value)}")
        return [_ints(name, field, v, depth - 1) for v in value]
    if type(value) is not int:
        raise RecipeError(name, f"{field} needs a JSON integer, got "
                          f"{json.dumps(value)}")
    return value


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
    for cls, member in ((SOLVABLE_CUT, rep.is_cut),
                        (SOLVABLE_RATIONAL, rep.is_rational)):
        if fs.solvable and member:
            v = classify(graph, cls)
            out["classification"][cls] = {"status": v.status,
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
        entry = cat.catalog_entry(name_or_path)
    except KeyError:
        groups = load_spec(name_or_path)
    else:
        if member:
            raise SpecError("--name applies to a spec file only")
        return entry.build()
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
    options = {k: getattr(args, k) for k in ("seed", "count", "max_order")
               if getattr(args, k) is not None}
    if options and args.suite != "invariants":
        raise SpecError("--seed, --count and --max-order apply to the "
                        "invariants suite only")
    rows = SUITES[args.suite](**options)
    passed = sum(1 for _, ok, _ in rows if ok)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"{passed}/{len(rows)} pass")
    return 0 if passed == len(rows) else 1


def cmd_classify(args) -> int:
    graph = parse_graph_literal(args.literal)
    v = classify(graph, CLASSES[args.cls])
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
    p.add_argument("--seed", type=int, help="invariants only (default 1)")
    p.add_argument("--count", type=int, help="invariants only (default 200)")
    p.add_argument("--max-order", type=int,
                   help="invariants only (default 2000)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="classify a prime-graph literal")
    p.add_argument("literal", help='e.g. "2-3,5"')
    p.add_argument("--class", dest="cls", choices=list(CLASSES), required=True)
    p.set_defaults(fn=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantFailed as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
