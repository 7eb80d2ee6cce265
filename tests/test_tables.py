"""Integer element ids and per-generator conjugation tables.

Conjugacy classes, O_p(G) and normality run on the tables; the references
here are the element-product algorithms they replaced.
"""

import functools
import json
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from gklab import catalog, cli
from gklab.groups import (GroupHandle, conjugation_tables, direct_product,
                          element_ids, element_order, ids_of,
                          semidirect_product, small_generating_set,
                          subgroup_as_group)
from gklab.structure import (SubgroupHandle, _is_normal, class_representatives,
                             conjugacy_classes, core_p, cyclic_subgroup_set,
                             derived_subgroup, fitting_series, quotient, sylow)


def _reference_classes(G):
    """Orbit BFS with two G.mult per element and generator: the classes as
    element sets, the element -> class dict and the representatives."""
    gen_invs = [(g, G.inv(g)) for g in G.generators]
    index = {}
    classes = []
    reps = []
    for start in G.ordered:
        if start in index:
            continue
        cid = len(classes)
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for x in frontier:
                for g, gi in gen_invs:
                    y = G.mult(gi, G.mult(x, g))
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        for x in orbit:
            index[x] = cid
        classes.append(frozenset(orbit))
        reps.append(start)
    return tuple(classes), index, tuple(reps)


def _reference_core(G, p):
    K = set(sylow(G, p).elements)
    changed = True
    while changed:
        changed = False
        for g in G.generators:
            Kg = {G.conjugate(x, g) for x in K}
            if Kg != K:
                K &= Kg
                changed = True
    return frozenset(K)


def _reference_is_normal(G, elems):
    gens = small_generating_set(G, elems) or [G.identity]
    return all(G.conjugate(s, g) in elems for g in G.generators for s in gens)


def _fitting_quotients(G):
    """G/F(G) and (G/F(G))/F(G/F(G)): the Fitting series' quotient chain."""
    return fitting_series(G).quotients


def _spec_product():
    """A product built from a spec: S3 x Q8 x S3, under its construction
    label."""
    spec = {"groups": {
        "s3": {"type": "perm", "degree": 3, "gens": [[[1, 2]], [[1, 2, 3]]]},
        "q8": {"type": "builtin", "name": "quaternion8"},
        "d": {"type": "direct", "factors": ["s3", "q8", "s3"]}}}
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(spec, fh)
        fh.flush()
        return cli.load_spec(fh.name)["d"]


def _fig3(letter):
    return catalog.catalog_entry(f"fig3.{letter}").build()


def _quotient_by_core(G, p):
    return quotient(G, core_p(G, p))


def _c6q8():
    return direct_product(catalog.cyclic(6), catalog.quaternion8())


def _s4_c7c3():
    return direct_product(catalog.sym(4), catalog.c7_c3())


def _s3_mod_s3():
    s3 = catalog.sym(3)
    return quotient(s3, SubgroupHandle(s3, frozenset(range(s3.order))))


def _a4_in_s4():
    s4 = catalog.sym(4)
    return subgroup_as_group(s4, derived_subgroup(s4).elements)


BUILDERS = {
    "S4": lambda: catalog.sym(4),
    "A5": lambda: catalog.alt(5),
    "SL(2,3)": catalog.sl2_3,
    "C5^2 x| Q8": lambda: _fig3("e"),
    "(C5^2 x| Q8) x C2": lambda: _fig3("f"),
    "(C6 x Q8) x (C6 x Q8)": lambda: direct_product(_c6q8(), _c6q8()),
    "(C5^2 x| Q8) x C2 / O_5": lambda: _quotient_by_core(_fig3("f"), 5),
    "S4 x (C7 x| C3) / F": lambda: _fitting_quotients(_s4_c7c3())[0],
    "S4 x (C7 x| C3) / F / F": lambda: _fitting_quotients(_s4_c7c3())[1],
    "S3 / C3": lambda: _quotient_by_core(catalog.sym(3), 3),
    "S3 / S3": _s3_mod_s3,
    "Sylow 2 of (C5^2 x| Q8) x C2": lambda: sylow(_fig3("f"), 2).as_group(),
    "A4 in S4": _a4_in_s4,
    "spec S3 x Q8 x S3": _spec_product,
}


@functools.cache
def _group(name):
    return BUILDERS[name]()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_classes_match_reference(name):
    G = _group(name)
    data = conjugacy_classes(G)
    classes, index, reps = _reference_classes(G)
    ids = element_ids(G)
    # the reference partition, written as ids
    assert list(data.class_ids) == [index[x] for x in G.ordered]
    assert data.rep_ids == tuple(ids[x] for x in reps)
    assert data.sizes == tuple(map(len, classes))
    assert class_representatives(G) == reps


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_core_and_normality_match_reference(name):
    G = _group(name)
    subgroups = [derived_subgroup(G).elements]
    for p in sorted(factorint(G.order)):
        assert core_p(G, p).elements == _reference_core(G, p)
        subgroups += [sylow(G, p).elements, core_p(G, p).elements]
    subgroups += [cyclic_subgroup_set(G, rep)
                  for rep in class_representatives(G)[:6]]
    for elems in subgroups:
        assert _is_normal(G, set(ids_of(G, elems))) == \
            _reference_is_normal(G, elems)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_table_entry_is_the_conjugate(data):
    G = _group(data.draw(st.sampled_from(sorted(BUILDERS))))
    srt = G.ordered
    k = data.draw(st.integers(0, len(G.generators) - 1))
    i = data.draw(st.integers(0, G.order - 1))
    x = G.conjugate(srt[i], G.generators[k])
    assert conjugation_tables(G)[k][i] == element_ids(G)[x]


def test_ids_are_positions_in_ordered():
    for G in map(_group, BUILDERS):
        srt = G.ordered
        assert len(srt) == G.order
        assert set(srt) == set(G.elements)
        assert all(element_ids(G)[x] == i for i, x in enumerate(srt))


def _counting(G, calls):
    """G with multiplication and inversion that record each call."""
    def mult(a, b):
        calls.append("mult")
        return G.mult(a, b)

    def inv(a):
        calls.append("inv")
        return G.inv(a)
    return GroupHandle(G.label, G.generators, G.ordered, G.identity, mult, inv)


def test_products_and_quotients_multiply_no_element():
    calls = []
    A = _counting(catalog.catalog_entry("fig3.e").build(), calls)
    B = _counting(catalog.sym(3), calls)
    C = _counting(catalog.cyclic(2), calls)
    conjugation_tables(A)
    conjugation_tables(B)
    conjugation_tables(C)
    P = replace(direct_product(A, B), label="P")
    Q = quotient(P, core_p(P, 5))
    # S3 x| C2, C2 acting by conjugation with a transposition
    x = next(g for g in B.ordered if element_order(B, g) == 2)
    S = semidirect_product(B, C, [[B.conjugate(g, x) for g in B.generators]])
    calls.clear()
    conjugacy_classes(P)
    conjugacy_classes(Q)
    tables = conjugation_tables(S)
    assert calls == []
    assert len(conjugacy_classes(Q).rep_ids) == len(_reference_classes(Q)[0])
    # composed from the factors', not multiplied out on S's own ids
    assert "id_mul" not in S._memo
    reference = conjugation_tables(replace(S, listed=S.ordered, origin=None))
    assert list(map(list, tables)) == list(map(list, reference))


def test_relabel_keeps_the_structure_not_the_label():
    G = direct_product(catalog.sym(3), catalog.cyclic(2))
    conjugacy_classes(G)
    R = replace(G, label="renamed")
    assert R.origin is G.origin
    assert "conjugacy" not in R._memo
    assert conjugation_tables(R) == conjugation_tables(G)
    # the factor record is what reads R's classes off its factors
    assert conjugacy_classes(R) == conjugacy_classes(G)
    assert "id_mul" not in R._memo
