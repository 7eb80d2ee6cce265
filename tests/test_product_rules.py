"""One rule for both kinds of product: conjugation tables and Sylow subgroups.

``groups._pair_tables`` builds the tables of N x H and of N x| H in one
body, a direct product being the case where the action is trivial, and
``structure.sylow`` composes P_N x P_H through one ``_product_subgroup``
call whenever the action is trivial or N is a p-group or a p'-group.  The
references are test-local copies of the code they replaced:

* the two-branch ``_pair_tables``: N x H read off N's tables, and N x| H
  by right-multiplying the list of k^-1 n_i by each image of k;
* ``sylow`` with the memoised product rule, which composed a direct
  product's P_A x P_B from its factors' ahead of its body, and a body that
  composed N x| P_H or 1 x| P_H.

Tables are compared array for array, and Sylow subgroups by ids, normality
and generators, under both TABLE_BOUND values, on the products of the
distinct corpus and of the catalog, the nested products of
``test_product_classes.py``, the products of ``test_pair_arithmetic.py``,
the family sweep, and a spec's semidirect product whose kernel is a direct
product.
"""

import json
from array import array

import pytest
from sympy import factorint

from gklab import catalog
from gklab.cli import load_spec
from gklab.groups import (Product, _power_walk, conjugation_tables,
                          direct_factors, generator_ids, id_mul)
from gklab.structure import _product_subgroup, _whole_or_trivial, sylow
from test_idcore import BOUNDS, _bound
from test_pair_arithmetic import PRODUCTS
from test_product_classes import NESTED

# (C3 x C3) x| C4 from a spec: the C4 generator sends a -> b -> a^2
SPEC = {"groups": {
    "c3": {"type": "builtin", "name": "cyclic", "args": [3]},
    "c4": {"type": "builtin", "name": "cyclic", "args": [4]},
    "k": {"type": "direct", "factors": ["c3", "c3"]},
    "sd": {"type": "semidirect", "kernel": "k", "acting": "c4",
           "action_images": [[[1], [0, 0]]]}}}


def _reference_tables(G):
    """G's tables as they were built: a product's by the two-branch rule
    from its factors' reference tables, any other group's by the library.
    A semidirect product's kernel tables are those of the kernel
    generators G carries."""
    o = G.origin
    if not isinstance(o, Product):
        return conjugation_tables(G)
    N, H, a = o.left, o.right, o.act
    n, m = N.order, H.order
    hs = range(m)
    if a is None:
        tables = [array("I", [x * m + j for x in t for j in hs])
                  for t in _reference_tables(N)]
        rows = [range(0, n * m, m)] * len(H.generators)
    else:
        nm = id_mul(N)
        tables = []
        gids = generator_ids(G)
        for k in (g // m for g in gids[:len(gids) - len(H.generators)]):
            ki = _power_walk(nm, k)[-1]
            left = [nm(ki, i) for i in range(n)]
            cols = {}  # image c of k -> the ids of k^-1 n_i c, times m
            t = array("I", [0]) * (n * m)
            for j in hs:
                c = a[j][k]
                if c not in cols:
                    cols[c] = [nm(x, c) * m for x in left]
                t[j::m] = array("I", [x + j for x in cols[c]])
            tables.append(t)
        hm = id_mul(H)
        rows = [[x * m for x in a[_power_walk(hm, l)[-1]]]
                for l in generator_ids(H)]
    for row, th in zip(rows, _reference_tables(H)):
        tables.append(array("I", [x + y for x in row for y in th]))
    return tables


def _reference_sylow(G, p):
    """``sylow`` as it was: a direct product's P_A x P_B composed from its
    factors' before its body ran, and N x| H with N a p-group or a p'-group
    composed as N x| P_H or 1 x| P_H.  Any other group grows its subgroup
    in the body this change left as it was, so the library's is read."""
    if factors := direct_factors(G):
        return _product_subgroup(G, *(_reference_sylow(F, p)
                                      for F in factors))
    p_part = p ** factorint(G.order).get(p, 0)
    if p_part in (1, G.order):
        return _whole_or_trivial(G, p_part > 1)
    if isinstance(o := G.origin, Product):
        n_part = p ** factorint(o.left.order).get(p, 0)
        if n_part in (1, o.left.order):
            return _product_subgroup(
                G, _whole_or_trivial(o.left, n_part > 1),
                _reference_sylow(o.right, p))
    return sylow(G, p)


def _spec_semidirect(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return load_spec(str(path))["sd"]


def _products(tmp_path):
    """Every product input, built fresh."""
    gs = [G for G in catalog.distinct_corpus(1, 200, 2000).values()
          if isinstance(G.origin, Product)]
    gs += [G for G in (entry.build() for entry in catalog.catalog())
           if isinstance(G.origin, Product)]
    gs += [build() for build in (*NESTED.values(), *PRODUCTS.values())]
    gs += [build() for _, _, build in catalog.frobenius_family_sweep()]
    gs.append(_spec_semidirect(tmp_path))
    return gs


def test_inputs_hold_both_kinds_and_nested_kernels(tmp_path):
    gs = _products(tmp_path)
    kinds = {G.origin.act is None for G in gs}
    nested = [G for G in gs if G.origin.act is not None
              and isinstance(G.origin.left.origin, Product)]
    assert kinds == {True, False} and nested


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_tables_match_the_two_branch_rule(bound, tmp_path):
    """The same arrays; in N x H, composing them from the factors' tables
    makes no id product in either factor."""
    with _bound(bound):
        for G in _products(tmp_path):
            o = G.origin
            for F in (o.left, o.right):
                conjugation_tables(F)
            had = ["id_mul" in F._memo for F in (o.left, o.right)]
            got = conjugation_tables(G)
            if o.act is None:
                assert ["id_mul" in F._memo
                        for F in (o.left, o.right)] == had, G.label
            assert all(t.typecode == "I" for t in got), G.label
            assert got == _reference_tables(G), (G.label, bound)


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_sylow_matches_the_memoised_rule(bound, tmp_path):
    with _bound(bound):
        for G in _products(tmp_path):
            for p in sorted(factorint(G.order)):
                got, want = sylow(G, p), _reference_sylow(G, p)
                assert (got.ids, got.gens) == (want.ids, want.gens), \
                    (G.label, p, bound)
