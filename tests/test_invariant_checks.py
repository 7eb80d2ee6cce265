"""Checks of ``verify invariants`` shown to fail.

The invariant scan runs on groups that pass it, so nothing there shows that
a check can reject anything.  Each test below feeds one check an input it
must reject, and its message is asserted, beside a boundary input it must
accept.  A real group that broke a lemma's conclusion would not be cut or
not be solvable, so the inputs are real groups with one of ``verify``'s
imported readers replaced (``gk_graph``, ``frobenius_kind``,
``is_cut_group``, ``is_rational_group``, ``cut_oracle_via_bg``, ``sylow``,
``class_predicates``), or a real group whose structure breaks the check
outright (C_8 for the abelian Sylow exponent, and the groups below for the
other Sylow checks).
"""

from functools import reduce

import pytest

from gklab import catalog, verify
from gklab import elements as el
from gklab.frobenius import FROBENIUS, fingerprint
from gklab.groups import (direct_product, element_orders_multiset,
                          enumerate_group)
from gklab.primegraph import parse_graph_literal
from gklab.structure import SubgroupHandle

DIAMETER = "component diameter > 3"
PI_BOUND = "Frobenius/2-Frobenius cut group with |pi| > 3"
DUAL = "dual cut oracles disagree"
FORBIDDEN_CUT = "realized graph classified forbidden (cut)"
FORBIDDEN_RATIONAL = "realized graph classified forbidden (rational)"


def _always(value):
    return lambda *args: value


def _graph(literal):
    return _always(parse_graph_literal(literal))


def _cyclics(*orders):
    return lambda: reduce(direct_product, map(catalog.cyclic, orders))


def _entry(name):
    return lambda: catalog.catalog_entry(name).build()


def _unitriangular_f5():
    """The 3x3 upper unitriangular matrices over F_5: order 125, exponent 5,
    not abelian."""
    return enumerate_group([el.mat(5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                            el.mat(5, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])],
                           "U(3,5)")


CUT, RATIONAL = {"is_cut_group": _always(True)}, {
    "is_cut_group": _always(True), "is_rational_group": _always(True)}
READ_RATIONAL = {"is_rational_group": _always(True)}
# (group, verify's readers replaced, the violations): each check of
# _check_group_invariants against an input that breaks it and one at its
# boundary.  A cyclic group read as cut keeps its real graph, one vertex,
# which the cut classifier forbids unless it is 2 or 3; the normalizer-scan
# oracle still reads it as not cut.
GROUP_CASES = {
    "C11 cut": (lambda: catalog.cyclic(11), CUT, [
        DUAL, "cut spectrum outside {2,3,5,7}",
        "spectrum [11] not in the allowed list", FORBIDDEN_CUT]),
    "C7 cut": (lambda: catalog.cyclic(7), CUT, [
        DUAL, "spectrum [7] not in the allowed list", FORBIDDEN_CUT]),
    "C7 cut rational": (lambda: catalog.cyclic(7), RATIONAL, [
        DUAL, "spectrum [7] not in the allowed list", FORBIDDEN_CUT,
        "rational spectrum outside {2,3,5}", FORBIDDEN_RATIONAL]),
    "C5 cut rational": (lambda: catalog.cyclic(5), RATIONAL, [
        DUAL, "spectrum [5] not in the allowed list", FORBIDDEN_CUT,
        FORBIDDEN_RATIONAL]),
    "C6xC5xC7xC11 cut": (_cyclics(6, 5, 7, 11), CUT, [
        DUAL, "cut spectrum outside {2,3,5,7}",
        "spectrum [2, 3, 5, 7, 11] not in the allowed list",
        "more than 4 graph vertices", FORBIDDEN_CUT,
        "cyclic Sylow 3 with an element of order 21"]),
    # four vertices, an allowed spectrum and a complete graph pass
    "C6xC5xC7 cut": (_cyclics(6, 5, 7), CUT, [
        DUAL, "cyclic Sylow 3 with an element of order 21"]),
    # fig3.h is cut and Frobenius, with the graph 2-3,5
    "fig3.h": (_entry("fig3.h"), {}, []),
    "fig3.h as 2,3-5": (_entry("fig3.h"), {"gk_graph": _graph("2,3-5")}, [
        "edge implications violated", FORBIDDEN_CUT]),
    "fig3.h as 2,3,5": (_entry("fig3.h"), {"gk_graph": _graph("2,3,5")}, [
        "more than 2 graph components",
        "2 components <-> frobenius mismatch (kind frobenius)",
        "three mutually non-adjacent vertices", FORBIDDEN_CUT]),
    # fig3.d, S3 x C2, is of kind none: two components are a mismatch
    "fig3.d as 2,3": (_entry("fig3.d"), {"gk_graph": _graph("2,3")}, [
        "2 components <-> frobenius mismatch (kind none)"]),
    "fig3.d as 2-3": (_entry("fig3.d"), {"gk_graph": _graph("2-3")}, []),
    "S4": (lambda: catalog.sym(4), {}, []),
    "S4, scan oracle not cut": (lambda: catalog.sym(4), {
        "cut_oracle_via_bg": _always(False)}, [DUAL]),
    "S4, trivial Sylow subgroups": (lambda: catalog.sym(4), {
        "sylow": lambda G, p: SubgroupHandle(G, frozenset({0}))}, [
        "sylow 2 order wrong", "sylow 3 order wrong"]),
    # Hegedus: the Sylow 5-subgroup of a solvable rational group is normal
    # and elementary abelian.  twofrob.e's Sylow 5 is C5, outside F = C2^4;
    # C25's is cyclic of exponent 25; U(3,5) has exponent 5 but is not
    # abelian.  fig3.e, C5^2 x| Q8, is the boundary
    "twofrob.e rational": (_entry("twofrob.e"), READ_RATIONAL, [
        "rational Sylow 5 not normal"]),
    "C25 rational": (lambda: catalog.cyclic(25), READ_RATIONAL, [
        FORBIDDEN_RATIONAL, "rational Sylow 5 not elementary abelian"]),
    "U(3,5) rational": (_unitriangular_f5, READ_RATIONAL, [
        FORBIDDEN_RATIONAL, "rational Sylow 5 not elementary abelian"]),
    "fig3.e rational": (_entry("fig3.e"), READ_RATIONAL, []),
}


@pytest.mark.parametrize("build, readers, want", GROUP_CASES.values(),
                         ids=GROUP_CASES)
def test_group_checks_reject_and_pass(monkeypatch, build, readers, want):
    """The spectra, the vertex count, Higman's bound, the edge
    implications, the forbidden graphs, the component count and its link
    to the Frobenius kind, the dual oracles, the Sylow orders and a
    rational group's Sylow 5-subgroup, each named in the violations
    exactly when its input breaks it."""
    G = build()
    for name, reader in readers.items():
        monkeypatch.setattr(verify, name, reader)
    assert verify._check_group_invariants(G) == want


def test_abelian_sylow_exponent_above_4_is_rejected():
    """The cut lemma allows an abelian Sylow p-subgroup of exponent 1, p or
    dividing 4 only: C_8 is its own Sylow 2-subgroup, of exponent 8."""
    for n, want in [(8, ["abelian Sylow 2 exponent 8"]), (4, [])]:
        C = catalog.cyclic(n)
        assert verify._cut_sylow_invariants(C) == want, n


@pytest.mark.parametrize("build, want", [
    # Sylow 3 = C3^2 is normal, as |F| = 9, and Sylow 2 = C8 is neither Q8
    # nor small cyclic, and there is no element of order 6
    (lambda: catalog.vector_semidirect(3, 2, [[[0, 1], [1, 1]]]),
     ["abelian Sylow 2 exponent 8", "Sylow 2 not Q8 or small cyclic (p=3)"]),
    (lambda: catalog.cyclic(12),
     ["cyclic Sylow 2 with an element of order 4p"]),
    (lambda: direct_product(catalog.quaternion8(), catalog.cyclic(5)),
     ["Q8 Sylow 2 with element of order 10"]),
    (lambda: catalog.cyclic(21),
     ["cyclic Sylow 3 with an element of order 21"]),
    # the boundaries: Q8 with an element of order 6, a normal Sylow 7 with
    # a Sylow 3 of prime order, and a cyclic Sylow 2 of order 4
    (lambda: direct_product(catalog.quaternion8(), catalog.cyclic(3)), []),
    (catalog.c7_c3, []),
    (lambda: catalog.cyclic(4), []),
], ids=["C3^2 x| C8", "C12", "Q8 x C5", "C21", "Q8 x C3", "C7 x| C3", "C4"])
def test_cut_sylow_checks_reject_and_pass(build, want):
    """Each Sylow check of a cut group against a group that breaks it and
    one at its boundary.  The normality of Sylow p, which gates the Q8 or
    small cyclic check, is read off F(G)."""
    assert verify._cut_sylow_invariants(build()) == want


def test_q8_counts_agree_with_the_fingerprint():
    """The cut Sylow checks tell Q8 by its element-order counts; on the
    five groups of order 8 that agrees with comparing fingerprints."""
    q8 = fingerprint(catalog.quaternion8())
    groups = [catalog.cyclic(8),
              direct_product(catalog.cyclic(4), catalog.cyclic(2)),
              catalog.elem_abelian(2, 3), catalog.dihedral(8),
              catalog.quaternion8()]
    by_counts = [element_orders_multiset(G) == verify._Q8_ORDERS
                 for G in groups]
    assert by_counts == [fingerprint(G) == q8 for G in groups]
    assert by_counts == [False, False, False, False, True]
    assert verify._Q8_ORDERS == {1: 1, 2: 1, 4: 6}
    assert len({fingerprint(G) for G in groups}) == 5


def test_quotient_closure_rejects_a_quotient_that_loses_a_class(monkeypatch):
    """S3's one minimal normal subgroup is A3, and S3/A3 has order 2.  With
    that quotient read as not cut, or not rational, each inheritance check
    names it; a group that is not cut, or not rational, asks no more."""
    S3 = catalog.sym(3)
    assert verify._quotient_closure(S3, True, True) == []
    monkeypatch.setattr(verify, "is_cut_group", lambda G: G.order != 2)
    assert verify._quotient_closure(S3, True, False) == [
        "cut not inherited by quotient of order 2"]
    assert verify._quotient_closure(S3, False, False) == []
    monkeypatch.undo()
    monkeypatch.setattr(verify, "is_rational_group", lambda G: G.order != 2)
    assert verify._quotient_closure(S3, True, True) == [
        "rationality not inherited by quotient of order 2"]
    assert verify._quotient_closure(S3, True, False) == []


def test_predicate_chain_names_each_broken_link(monkeypatch):
    """With every membership true the chain holds; with one consequence
    false, exactly its link is named."""
    links = [("cyclic", "abelian"), ("abelian", "nilpotent"),
             ("nilpotent", "supersolvable"), ("metacyclic", "metabelian"),
             ("nilpotent", "metanilpotent")]
    names = ["solvable", "nilpotent", "abelian", "cyclic", "metacyclic",
             "metabelian", "supersolvable", "metanilpotent"]
    C4 = catalog.cyclic(4)
    monkeypatch.setattr(verify, "class_predicates",
                        lambda G: dict.fromkeys(names, True))
    assert verify._predicate_chain(C4) == []
    for a, b in links:
        predicates = {**dict.fromkeys(names, True), b: False}
        monkeypatch.setattr(verify, "class_predicates",
                            lambda G, p=predicates: p)
        assert verify._predicate_chain(C4) == [
            f"predicate chain broken: {a} without {b}"], b


def test_component_diameter_above_3_is_rejected(monkeypatch):
    """C_8 is solvable, not cut and not Frobenius, so with its graph forced
    to a path, the diameter bound is the one check the path can break:
    a path on five primes has diameter 4, one on four has diameter 3."""
    C8 = catalog.cyclic(8)
    for literal, want in [("2-3,3-5,5-7,7-11", [DIAMETER]),
                          ("2-3,3-5,5-7", [])]:
        graph = parse_graph_literal(literal)
        monkeypatch.setattr(verify, "gk_graph", lambda G, graph=graph: graph)
        assert verify._check_group_invariants(C8) == want, literal


def test_frobenius_cut_group_on_four_primes_is_rejected(monkeypatch):
    """A cut group of Frobenius or 2-Frobenius kind has at most three
    primes.  With the kind forced to Frobenius, a cut group on 2, 3, 5 and
    7 breaks that bound, and one on 2, 3 and 7 does not; both also break
    the link between two graph components and the Frobenius kind."""
    monkeypatch.setattr(verify, "frobenius_kind", lambda G: FROBENIUS)
    mismatch = "2 components <-> frobenius mismatch (kind frobenius)"
    for build, want in [
            (lambda: direct_product(catalog._q8_action_f5(), catalog.c7_c3()),
             [mismatch, PI_BOUND]),
            (lambda: direct_product(catalog.c7_c3(), catalog.sym(3)),
             [mismatch])]:
        G = build()
        assert verify._check_group_invariants(G) == want, G.label
