"""Semidirect products carry only the kernel generators H does not reach.

``groups.semidirect_product`` keeps N's generator k, in order, only when it
lies outside the H-invariant subgroup spanned by the ones kept before it
(``groups._kernel_generators``), and N x| H is generated by (k, 1) for the
kept k, then (1, h) for H's generators h.  On every semidirect product of
the catalog, the Frobenius family sweep and the distinct corpus, nested
ones included, and on Hypothesis-drawn semidirect recipes, under both
TABLE_BOUND values:

* G's generators span G, the kept generators are a subsequence of N's, and
  a generator of N is kept exactly when the kept ones before it and all
  their images under H (``Product.act``, every row) do not generate it;
* the class data equals classes closed on a test-local copy of the tables
  the products carried before, one per generator of N;
* the normalizer-scan oracle agrees with ``is_cut_group``.

The 2-Frobenius witnesses' generator counts and table sizes are pinned, and
two modules show the rule: a reducible one keeps a generator per invariant
line, and a trivial action keeps each generator that the ones before it do
not generate.
"""

from array import array

import pytest
from hypothesis import HealthCheck, given, settings

from gklab import catalog
from gklab import elements as el
from gklab.groups import (Product, Span, _power_walk, closure_in,
                          conjugation_tables, elements_at, enumerate_group,
                          generator_ids, id_mul, ids_of, semidirect_product)
from gklab.rationality import cut_oracle_via_bg, is_cut_group
from gklab.structure import conjugacy_classes
from test_idcore import BOUNDS, SEMIDIRECT_KINDS, _bound, _recipes

# name -> generators of N and H together, the count each product carried
WITNESSES = {"fig3.e": 4, "fig3.h": 4, "twofrob.c": 4, "twofrob.e": 6,
             "twofrob.g": 8, "twofrob.l": 8}
# name -> conjugation-table entries with every kernel generator, and now
TABLE_ENTRIES = {"twofrob.l": (21_504, 8_064), "twofrob.g": (122_472, 45_927)}


def _semidirect_in(G):
    """G and its nested product factors that are semidirect products."""
    o = G.origin
    if isinstance(o, Product):
        if o.act is not None:
            yield G
        for F in (o.left, o.right):
            yield from _semidirect_in(F)


def _inputs():
    """Every semidirect product of the catalog, the sweep and the distinct
    corpus, built fresh."""
    gs = [entry.build() for entry in catalog.catalog()]
    gs += [build() for _, _, build in catalog.frobenius_family_sweep()]
    gs += catalog.distinct_corpus(1, 200, 2000).values()
    return [S for G in gs for S in _semidirect_in(G)]


def _kept(G):
    """The kernel components of the (k, 1) generators G carries."""
    return [g[1] for g in G.generators[:len(G.generators)
                                       - len(G.origin.right.generators)]]


def _all_kernel_tables(G):
    """G's tables as N x| H built them with every generator of N, then H's:
    a test-local copy of that rule, on the factors' library tables."""
    o = G.origin
    N, H, a = o.left, o.right, o.act
    n, m = N.order, H.order
    tables = []
    for k, tk in zip(generator_ids(N), conjugation_tables(N)):
        images = [row[k] for row in a]
        cols = {k: [x * m for x in tk]}
        nm = id_mul(N)
        ki = _power_walk(nm, k)[-1]
        for img in set(images) - {k}:
            c = nm(ki, img)
            cols[img] = [nm(x, c) * m for x in tk]
        t = array("I", [0]) * (n * m)
        for j, img in enumerate(images):
            t[j::m] = array("I", [x + j for x in cols[img]])
        tables.append(t)
    for l, th in zip(generator_ids(H), conjugation_tables(H)):
        row = [x * m for x in a[_power_walk(id_mul(H), l)[-1]]]
        tables.append(array("I", [x + y for x in row for y in th]))
    return tables


def _reference_classes(G):
    """Least ids, sizes and power-map rows of the classes closed on
    ``_all_kernel_tables``, each representative's powers walked whole."""
    tables = _all_kernel_tables(G)
    cids, reps, sizes = [-1] * G.order, [], []
    for start in range(G.order):
        if cids[start] < 0:
            cids[start] = len(reps)
            orbit = [start]
            for i in orbit:  # grows while it is read
                for t in tables:
                    if cids[t[i]] < 0:
                        cids[t[i]] = len(reps)
                        orbit.append(t[i])
            reps.append(start)
            sizes.append(len(orbit))
    mul = id_mul(G)
    powers = tuple(tuple(map(cids.__getitem__, _power_walk(mul, g)))
                   for g in reps)
    return tuple(reps), tuple(sizes), powers


def _check_generators(G):
    o = G.origin
    N, H = o.left, o.right
    span = Span(G)
    for x in generator_ids(G):
        span.add(x)
    assert len(span.elements) == G.order, G.label
    kept = _kept(G)
    rest = iter(N.generators)
    assert all(any(k == g for g in rest) for k in kept), G.label
    assert [g[2] for g in G.generators[len(kept):]] == list(H.generators)
    before = []
    for g, k in zip(N.generators, generator_ids(N)):
        images = {row[x] for row in o.act for x in before}  # all of H
        if g not in closure_in(N, elements_at(N, images)):
            before.append(k)
    assert before == ids_of(N, kept), G.label


def _check_classes_and_oracle(G):
    data = conjugacy_classes(G)
    assert (tuple(data.rep_ids), tuple(data.sizes), tuple(data.powers)) == \
        _reference_classes(G), G.label
    assert cut_oracle_via_bg(G) == is_cut_group(G), G.label


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_generators_span_and_follow_the_rule(bound):
    with _bound(bound):
        for G in _inputs():
            _check_generators(G)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_classes_and_oracle_match_every_kernel_generator(bound):
    with _bound(bound):
        for G in _inputs():
            _check_classes_and_oracle(G)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recipe=_recipes(SEMIDIRECT_KINDS))
def test_drawn_semidirect_products(bound, recipe):
    _, build = recipe
    with _bound(bound):
        G = build()
        _check_generators(G)
        _check_classes_and_oracle(G)


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witnesses_carry_three_generators(name):
    G = catalog.catalog_entry(name).build()
    o = G.origin
    assert len(o.left.generators) + len(o.right.generators) == \
        WITNESSES[name]
    assert len(G.generators) == 3


@pytest.mark.parametrize("name", sorted(TABLE_ENTRIES))
def test_witness_table_entries(name):
    G = catalog.catalog_entry(name).build()
    every, now = TABLE_ENTRIES[name]
    assert sum(map(len, _all_kernel_tables(G))) == every
    assert sum(map(len, conjugation_tables(G))) == now


def test_reducible_module_keeps_a_generator_per_line():
    """diag(2, 3) over F_5 fixes both coordinate lines of C5^2, so neither
    basis vector reaches the other."""
    G = catalog.vector_semidirect(5, 2, [[[2, 0], [0, 3]]])
    assert _kept(G) == list(G.origin.left.generators)
    assert len(G.generators) == 3
    _check_generators(G)


def test_trivial_action_keeps_the_independent_generators():
    """C6 generated by g^2, g^3 and g: under a trivial action g^2 and g^3
    are kept and g, which they generate, is not."""
    g = catalog.cyclic(6).generators[0]
    g2 = el.mul(g, g)
    N = enumerate_group([g2, el.mul(g2, g), g], "C6")
    C2 = catalog.cyclic(2)
    G = semidirect_product(N, C2, [list(N.generators)])
    assert G.label == "C6 x C2"
    assert _kept(G) == list(N.generators[:2])
    _check_generators(G)
    _check_classes_and_oracle(G)
