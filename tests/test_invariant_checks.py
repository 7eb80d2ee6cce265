"""Checks of ``verify invariants`` shown to fail.

The invariant scan runs on groups that pass it, so nothing there shows that
a check can reject anything.  Each test below feeds one check an input it
must reject, and its message is asserted, beside a boundary input it must
accept.  A real group that broke a lemma's conclusion would not be cut or
not be solvable, so the inputs are real groups with one of ``verify``'s
imported readers replaced (``gk_graph``, ``frobenius_kind``,
``is_cut_group``, ``is_rational_group``, ``class_predicates``), or a real
group whose structure breaks the check outright (C_8 for the abelian Sylow
exponent, and the groups below for the other Sylow checks).
"""

import pytest

from gklab import catalog, verify
from gklab.frobenius import FROBENIUS
from gklab.groups import direct_product
from gklab.primegraph import parse_graph_literal

DIAMETER = "component diameter > 3"
PI_BOUND = "Frobenius/2-Frobenius cut group with |pi| > 3"


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
