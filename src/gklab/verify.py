"""Named verification suites: the figure catalog, the 2-Frobenius witnesses,
the Frobenius family sweep, the corpus invariant scan, and the classifier
table.  Each suite returns (name, passed, detail) rows; the CLI renders them.

The suites state no classification fact of their own: the figure graphs
and the statuses the classifier must give them (``FIGURE_GRAPHS``,
``FIGURE_VERDICTS``) and the allowed prime spectra (``CUT_SPECTRA``,
``CUT_PRIMES``, ``RATIONAL_PRIMES``) are read from ``primegraph``, the
spectra through the module on every check.

The figure and 2-Frobenius suites share one catalog check (``_catalog_rows``):
every fact a catalog entry records, and for a 2-Frobenius group the three
consequences of that structure, which the detection itself does not compute.
"""

from __future__ import annotations

import random

from . import catalog as cat
from . import primegraph as pg
from .frobenius import (FROBENIUS, NONE_KIND, TWO_FROBENIUS, fingerprint,
                        frobenius_kind, is_frobenius,
                        match_frobenius_cut_family)
from .groups import GroupHandle, direct_product, element_orders_multiset
from .numtheory import factorint
from .primegraph import (CLASSES, FIGURE_GRAPHS, FIGURE_VERDICTS, FORBIDDEN,
                         SOLVABLE_CUT, SOLVABLE_RATIONAL, classify,
                         component_diameters, components, gk_graph,
                         higman_check, lemma_edge_implications,
                         parse_graph_literal, product_graph)
from .rationality import (cut_oracle_via_bg, is_cut_group, is_rational_group,
                          product_cut_predicate)
from .structure import (class_predicates, exponent, fitting,
                        fitting_series, is_abelian, is_cyclic, is_solvable,
                        minimal_normal_subgroups, quotient, sylow)

Row = tuple[str, bool, str]

FORBIDDEN_CASES = [
    ("2,3,5", SOLVABLE_CUT),
    ("2-5,3", SOLVABLE_CUT),
    ("3-7", SOLVABLE_CUT),
    ("5-7,2-3", SOLVABLE_CUT),
    ("2,3,5,7", SOLVABLE_CUT),
    ("2-3,11", SOLVABLE_CUT),
    ("3-5", SOLVABLE_CUT),
    ("2-7", SOLVABLE_CUT),
    ("2-3,3-7", SOLVABLE_RATIONAL),
    ("2-3,5", SOLVABLE_RATIONAL),
]


def suite_figure3() -> list[Row]:
    return _catalog_rows("fig3.")


def suite_twofrobenius() -> list[Row]:
    return _catalog_rows("twofrob.")


def _catalog_rows(prefix: str) -> list[Row]:
    """One row per catalog entry named prefix*: the built group against its
    recorded order, rational verdict and Frobenius kind, against the
    classifier's graph of the figure letter it names (``FIGURE_GRAPHS``),
    and cut, as every entry is; for a 2-Frobenius group, the consequences
    of that structure too."""
    rows = []
    for entry in cat.catalog():
        if not entry.name.startswith(prefix):
            continue
        G = entry.build()
        problems = []
        if G.order != entry.order:
            problems.append(f"order {G.order} != {entry.order}")
        if (graph := gk_graph(G)) != (want := FIGURE_GRAPHS[entry.figure]):
            problems.append(f"graph {graph.literal()} != {want.literal()}")
        if not is_cut_group(G):
            problems.append("cut verdict differs")
        if is_rational_group(G) != entry.is_rational:
            problems.append("rational verdict differs")
        if (kind := frobenius_kind(G)) != entry.frobenius_kind:
            problems.append(f"kind {kind} != {entry.frobenius_kind}")
        if kind == TWO_FROBENIUS:
            problems += [f"not {fact}" for fact, holds
                         in _two_frobenius_consequences(G).items() if not holds]
        if entry.name == "twofrob.c" and fingerprint(G) != fingerprint(cat.sym(4)):
            problems.append("fingerprint differs from S4")
        rows.append((entry.name, not problems,
                     "; ".join(problems) or f"order {G.order}"))
    return rows


def _two_frobenius_consequences(G: GroupHandle) -> dict[str, bool]:
    """What the structure of a 2-Frobenius group G forces, fact -> holds:
    G/F_2 is cyclic, F_2/F_1 (the Frobenius kernel of G/F_1) is cyclic of odd
    order, and F_1 is not cyclic."""
    fs = fitting_series(G)
    Q1, top = fs.quotients
    middle = fitting(Q1).as_group()
    return {"G/F2 cyclic": is_cyclic(top),
            "F2/F1 cyclic of odd order": is_cyclic(middle) and middle.order % 2 == 1,
            "F1 non-cyclic": not is_cyclic(fs.series[1].as_group())}


def suite_frobenius_families() -> list[Row]:
    rows = []
    for name, tag, build in cat.frobenius_family_sweep():
        G = build()
        problems = []
        if not is_frobenius(G):
            problems.append("not Frobenius")
        if not is_cut_group(G):
            problems.append("not cut")
        got = match_frobenius_cut_family(G)
        if got != tag:
            problems.append(f"family {got!r} != {tag!r}")
        rows.append((name, not problems, "; ".join(problems) or tag))
    return rows


def _check_group_invariants(G: GroupHandle) -> list[str]:
    """All per-group lemma and theorem invariants; returns violations."""
    bad = []
    graph = gk_graph(G)
    cut = is_cut_group(G)
    rational = is_rational_group(G)
    solvable = is_solvable(G)
    if cut_oracle_via_bg(G) != cut:
        bad.append("dual cut oracles disagree")
    for p, k in factorint(G.order).items():
        if sylow(G, p).order != p ** k:
            bad.append(f"sylow {p} order wrong")
    if solvable:
        comps = components(graph)
        if len(comps) > 2:
            bad.append("more than 2 graph components")
        kind = frobenius_kind(G)
        if (len(comps) == 2) != (kind in (FROBENIUS, TWO_FROBENIUS)):
            bad.append(f"2 components <-> frobenius mismatch (kind {kind})")
        if any(d > 3 for d in component_diameters(graph)):
            bad.append("component diameter > 3")
        if cut and kind != NONE_KIND and len(factorint(G.order)) > 3:
            bad.append("Frobenius/2-Frobenius cut group with |pi| > 3")
    if solvable and cut:
        spectrum = set(factorint(G.order))
        if not spectrum <= pg.CUT_PRIMES:
            bad.append("cut spectrum outside {2,3,5,7}")
        if spectrum not in pg.CUT_SPECTRA:
            bad.append(f"spectrum {sorted(spectrum)} not in the allowed list")
        if len(graph.vertices) > 4:
            bad.append("more than 4 graph vertices")
        if not higman_check(graph):
            bad.append("three mutually non-adjacent vertices")
        if not lemma_edge_implications(graph):
            bad.append("edge implications violated")
        if classify(graph, SOLVABLE_CUT).status == FORBIDDEN:
            bad.append("realized graph classified forbidden (cut)")
    if solvable and rational:
        if not set(factorint(G.order)) <= pg.RATIONAL_PRIMES:
            bad.append("rational spectrum outside {2,3,5}")
        if classify(graph, SOLVABLE_RATIONAL).status == FORBIDDEN:
            bad.append("realized graph classified forbidden (rational)")
        # Hegedűs, "Structure of solvable rational groups", Proc. London
        # Math. Soc. 90 (2005): the Sylow 5-subgroup is normal, read as in
        # _cut_sylow_invariants, and elementary abelian
        if G.order % 5 == 0:
            P5 = sylow(G, 5)
            if fitting(G).order % P5.order:
                bad.append("rational Sylow 5 not normal")
            V = P5.as_group()
            if not (is_abelian(V) and exponent(V) == 5):
                bad.append("rational Sylow 5 not elementary abelian")
    if cut:
        bad += _cut_sylow_invariants(G)
    if solvable:
        bad += _quotient_closure(G, cut, rational)
    bad += _predicate_chain(G)
    return bad


# order -> count: Q8 is the one group of order 8 with these element orders
_Q8_ORDERS = {1: 1, 2: 1, 4: 6}


def _cut_sylow_invariants(G: GroupHandle) -> list[str]:
    """The Sylow subgroup facts a cut group satisfies.  Sylow p is normal
    iff its order divides |F(G)|, since |F(G)|_p = |O_p(G)|."""
    bad = []
    orders = set(element_orders_multiset(G))
    primes = sorted(factorint(G.order))
    syl = {p: sylow(G, p) for p in primes}
    fit = fitting(G).order
    groups = {p: syl[p].as_group() for p in primes}
    for p in primes:
        Sp = groups[p]
        if is_abelian(Sp):
            e = exponent(Sp)
            if e != 1 and e != p and 4 % e:
                bad.append(f"abelian Sylow {p} exponent {e}")
        for q in primes:
            if q == p or fit % syl[p].order or p * q in orders:
                continue
            Sq = groups[q]
            small_cyclic = is_cyclic(Sq) and (4 % Sq.order == 0 or Sq.order == q)
            if not (element_orders_multiset(Sq) == _Q8_ORDERS or small_cyclic):
                bad.append(f"Sylow {q} not Q8 or small cyclic (p={p})")
    if 2 in primes:
        S2 = groups[2]
        if is_cyclic(S2):
            if any(n % 4 == 0 and (n // 4) in primes and (n // 4) % 2 == 1
                   for n in orders):
                bad.append("cyclic Sylow 2 with an element of order 4p")
        elif element_orders_multiset(S2) == _Q8_ORDERS:
            for n in orders:
                if n % 2 == 0 and (n // 2) in primes and (n // 2) % 4 == 1:
                    bad.append(f"Q8 Sylow 2 with element of order {n}")
    if 3 in primes and is_cyclic(groups[3]) and 21 in orders:
        bad.append("cyclic Sylow 3 with an element of order 21")
    return bad


def _quotient_closure(G: GroupHandle, cut: bool, rational: bool) -> list[str]:
    """Cut and rational pass to the quotients by minimal normal subgroups.
    A rational group is cut, so a group that is not cut has nothing to
    check and builds no quotient."""
    if not cut:
        return []
    bad = []
    for N in minimal_normal_subgroups(G):
        Q = quotient(G, N)
        if not is_cut_group(Q):
            bad.append(f"cut not inherited by quotient of order {Q.order}")
        if rational and not is_rational_group(Q):
            bad.append(f"rationality not inherited by quotient of order {Q.order}")
    return bad


def _predicate_chain(G: GroupHandle) -> list[str]:
    """Implications between ``class_predicates``' memberships that a
    faulty predicate could break.  Metabelian and supersolvable read False
    on a non-solvable group by construction, so their links to solvable
    cannot fail and are not checked;
    ``TestSolvableGate::test_matches_the_ungated_calls`` in
    ``tests/test_structure.py`` compares the gated predicates with the
    ungated calls."""
    p = class_predicates(G)
    chain = [("cyclic", "abelian"), ("abelian", "nilpotent"),
             ("nilpotent", "supersolvable"), ("metacyclic", "metabelian"),
             ("nilpotent", "metanilpotent")]
    return [f"predicate chain broken: {a} without {b}"
            for a, b in chain if p[a] and not p[b]]


def suite_invariants(seed: int = 1, count: int = 200,
                     max_order: int = 2000) -> list[Row]:
    distinct = cat.distinct_corpus(seed, count, max_order)
    rows: list[Row] = []
    violations = 0
    for label in sorted(distinct):
        bad = _check_group_invariants(distinct[label])
        if bad:
            violations += len(bad)
            rows.append((f"group {label}", False, "; ".join(bad)))
    rows.append(("per-group invariants", violations == 0,
                 f"{len(distinct)} distinct groups, {violations} violations"))
    rows.append(_pair_sampling_row(seed, distinct))
    return rows


def _sampled_pairs(seed: int, distinct: dict[str, GroupHandle]) -> list:
    """Up to 50 pairs (a, b) of cut groups, a at or before b in label order,
    with |a||b| <= 50000, drawn by seed."""
    cut_groups = [distinct[label] for label in sorted(distinct)
                  if is_cut_group(distinct[label])]
    pairs = [(a, b) for i, a in enumerate(cut_groups)
             for b in cut_groups[i:] if a.order * b.order <= 50000]
    return random.Random(seed).sample(pairs, min(50, len(pairs)))


def _pair_sampling_row(seed: int, distinct: dict[str, GroupHandle]) -> Row:
    """product_cut_predicate vs the direct check, and the product-graph law."""
    sample = _sampled_pairs(seed, distinct)
    bad = 0
    for a, b in sample:
        prod = direct_product(a, b)
        if product_cut_predicate(a, b) != is_cut_group(prod):
            bad += 1
        if gk_graph(prod) != product_graph(gk_graph(a), gk_graph(b)):
            bad += 1
    return ("product pair sampling", bad == 0,
            f"{len(sample)} pairs, {bad} mismatches")


def suite_classifier() -> list[Row]:
    """Each figure letter of each class against its ``FIGURE_VERDICTS``
    status (realized letters first, as that table lists them), then the
    pinned forbidden graphs."""
    rows = []
    for name, cls in CLASSES.items():
        for letter, (want, _) in FIGURE_VERDICTS[cls].items():
            v = classify(FIGURE_GRAPHS[letter], cls)
            rows.append((f"{name} ({letter})", v.status == want, v.status))
    for literal, cls in FORBIDDEN_CASES:
        v = classify(parse_graph_literal(literal), cls)
        rows.append((f"forbidden {literal!r} [{cls}]",
                     v.status == FORBIDDEN, v.citation))
    return rows


SUITES = {
    "figure3": suite_figure3,
    "twofrobenius": suite_twofrobenius,
    "frobenius-families": suite_frobenius_families,
    "invariants": suite_invariants,
    "classifier": suite_classifier,
}
