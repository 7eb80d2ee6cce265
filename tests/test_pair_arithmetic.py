"""Product element arithmetic skips identity components, and changes no value.

``direct_product`` and ``semidirect_product`` return a component as it is
when the other operand's component is its factor's ``identity`` object,
invert no identity component, and look a semidirect product's action up
only for n2 != 1_N under h1 != 1_H.  The reference is a test-local copy of
the closures as they were before: every component multiplied and inverted
and the action looked up for every pair, in every factor that is itself a
product too.  The operands include the identity, the generators and their
inverses, and copies equal to an identity that are not its object, alone and
inside pairs; with those, every pair of elements up to order 200, and 500
sampled pairs above.
"""

import random
from dataclasses import replace

import pytest

from gklab import catalog
from gklab import elements as el
from gklab.groups import (Product, direct_product, element_ids, elements_at,
                          enumerate_group, semidirect_product)
from gklab.structure import core_p, quotient


def _reference_ops(G):
    """(mult, inv) of G, multiplying every component of every pair."""
    o = G.origin
    if not isinstance(o, Product):
        return G.mult, G.inv
    (nm, ni), (hm, hi) = _reference_ops(o.left), _reference_ops(o.right)
    if o.act is None:
        def mult(a, b):
            return (el.PAIR, nm(a[1], b[1]), hm(a[2], b[2]))

        def inv(a):
            return (el.PAIR, ni(a[1]), hi(a[2]))
        return mult, inv
    act = o.act
    nid, ns, hid = element_ids(o.left), o.left.ordered, element_ids(o.right)

    def mult(a, b):
        return (el.PAIR, nm(a[1], ns[act[hid[a[2]]][nid[b[1]]]]),
                hm(a[2], b[2]))

    def inv(a):
        h_inv = hi(a[2])
        return (el.PAIR, ns[act[hid[h_inv]][nid[ni(a[1])]]], h_inv)
    return mult, inv


def _fresh(x):
    """An element equal to the identity x that is a new object, pairs
    rebuilt from fresh components."""
    if x[0] == el.PERM:
        return el.perm_identity(len(x[1]))
    if x[0] == el.MAT:
        return el.mat_identity(x[1], x[2])
    return el.pair(_fresh(x[1]), _fresh(x[2]))


def _specials(G):
    """The identity, a fresh copy of it, the generators and their inverses,
    and, for a product, pairs mixing a factor's identity object with a fresh
    copy of the other's, and the generators with each identity component
    replaced by a fresh copy."""
    e = G.identity
    out = [e, _fresh(e), *G.generators, *map(G.inv, G.generators)]
    o = G.origin
    if isinstance(o, Product):
        ids = (o.left.identity, o.right.identity)
        out += [el.pair(ids[0], _fresh(ids[1])),
                el.pair(_fresh(ids[0]), ids[1])]
        out += [el.pair(*(_fresh(x) if x == i else x
                          for x, i in zip(g[1:], ids))) for g in G.generators]
    return out


def _c7_c6_sweep():
    return next(build for name, _, build in catalog.frobenius_family_sweep()
                if name == "C7 x| C6")()


def _product_quotient():
    """(S4/V4) x (S4/V4), built as the direct product of the quotients."""
    P = direct_product(catalog.sym(4), catalog.sym(4))
    return quotient(P, core_p(P, 2))


def _matrix_semidirect_of_direct():
    """(C5 x C5) x| <diag(2, 3), swap>: a semidirect product whose kernel
    is a direct product."""
    N = direct_product(catalog.cyclic(5), catalog.cyclic(5))
    ms = [el.mat(5, [[2, 0], [0, 3]]), el.mat(5, [[0, 1], [1, 0]])]
    return semidirect_product(N, enumerate_group(ms, "H"),
                              catalog.matrix_action(N, ms))


PRODUCTS = {
    "S3 x C2": lambda: catalog.catalog_entry("fig3.d").build(),
    "(C2 x S3) x Q8": lambda: direct_product(
        direct_product(catalog.cyclic(2), catalog.sym(3)),
        catalog.quaternion8()),
    "fig3.e": lambda: catalog.catalog_entry("fig3.e").build(),
    "fig3.k": lambda: catalog.catalog_entry("fig3.k").build(),
    "C7 x| C6 (sweep)": _c7_c6_sweep,
    "(C5 x C5) x| H": _matrix_semidirect_of_direct,
    "(S4/V4) x (S4/V4)": _product_quotient,
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_products_match_the_reference(name):
    G = PRODUCTS[name]()
    assert isinstance(G.origin, Product)
    mult, inv = _reference_ops(G)
    specials = _specials(G)
    assert any(x == G.identity and x is not G.identity for x in specials)
    rng = random.Random(G.order)
    if G.order <= 200:
        operands = specials + elements_at(G, range(G.order))
        pairs = [(a, b) for a in operands for b in operands]
    else:
        operands = specials + elements_at(G, rng.sample(range(G.order), 60))
        pairs = [(a, b) for a in specials for b in specials]
        pairs += [(rng.choice(operands), rng.choice(operands))
                  for _ in range(500)]
    for a in operands:
        assert G.inv(a) == inv(a), a
    for a, b in pairs:
        assert G.mult(a, b) == mult(a, b), (a, b)


def _counting(G):
    """G with a multiplication and an inversion that count their calls."""
    calls = []

    def mult(a, b):
        calls.append("mult")
        return G.mult(a, b)

    def inv(a):
        calls.append("inv")
        return G.inv(a)
    return replace(G, mult=mult, inv=inv), calls


@pytest.mark.parametrize("kind", ["direct", "semidirect"])
def test_identity_components_are_not_multiplied(kind):
    """With factors that count their products, a pair with an identity
    component makes no product there: the identity's pairs make none, and a
    generator (n, 1) or (1, h) multiplies only the component it moves."""
    N, n_calls = _counting(catalog.cyclic(7))
    H, h_calls = _counting(catalog.cyclic(6))
    if kind == "direct":
        G = direct_product(N, H)
    else:  # x -> x^3, of order 6
        g = N.generators[0]
        G = semidirect_product(N, H, [[N.mult(g, N.mult(g, g))]])
        assert G.label == "C7 x| C6"
    e, (n_gen, h_gen) = G.identity, G.generators
    xs = elements_at(G, range(G.order))

    def calls_of(f, *args):
        del n_calls[:], h_calls[:]
        f(*args)
        return n_calls + h_calls

    for x in xs:
        assert G.mult(x, e) == x == G.mult(e, x)
        assert calls_of(G.mult, x, e) == calls_of(G.mult, e, x) == []
    assert G.inv(e) == e and calls_of(G.inv, e) == []
    for s in (n_gen, h_gen):
        assert calls_of(G.mult, s, s) == ["mult"]
        assert calls_of(G.inv, s) == ["inv"]
    assert calls_of(G.mult, n_gen, h_gen) == []
    assert calls_of(G.mult, h_gen, n_gen) == []
