"""Checks of ``verify invariants`` shown to fail.

The invariant scan runs on groups that pass it, so nothing there shows that
a check can reject anything.  Each test below feeds one check an input it
must reject, and its message is asserted, beside a boundary input it must
accept.  A real group that broke a lemma's conclusion would not be cut or
not be solvable, so the inputs are real groups with one of ``verify``'s
imported readers replaced (``gk_graph``, ``frobenius_kind``), or a real
group whose structure breaks the check outright (C_8 for the abelian Sylow
exponent).
"""

from gklab import catalog, verify
from gklab.frobenius import FROBENIUS
from gklab.groups import direct_product
from gklab.primegraph import gk_graph, parse_graph_literal

DIAMETER = "component diameter > 3"
PI_BOUND = "Frobenius/2-Frobenius cut group with |pi| > 3"


def test_abelian_sylow_exponent_above_4_is_rejected():
    """The cut lemma allows an abelian Sylow p-subgroup of exponent 1, p or
    dividing 4 only: C_8 is its own Sylow 2-subgroup, of exponent 8."""
    for n, want in [(8, ["abelian Sylow 2 exponent 8"]), (4, [])]:
        C = catalog.cyclic(n)
        assert verify._cut_sylow_invariants(C, gk_graph(C)) == want, n


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
