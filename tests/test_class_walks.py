"""Class power-map rows from one walk per cyclic subgroup reached.

``structure.conjugacy_classes`` walks <rep_c> only for a class c whose row
no earlier walk gave: if class d holds g^j, for a walked g of order n with
row r, then d's row is r[j*i mod n] for i < n/gcd(j, n).  The reference is
a test-local copy of the walks this replaced, one walk of every
representative's powers on the group's ``id_mul``.  The rows are compared
under both TABLE_BOUND values on the distinct corpus, the catalog, the
family sweep, and the Fitting quotients and Sylow views of the catalog;
and on the W(B_6) and GL(3,3) frames and C_1032, built as the 1x1 matrices
over F_1033 that 5 generates, which lie above TABLE_BOUND, so their ids
multiply elements.  On 1x1 matrices the reference's 542,875 id products
for C_1032 stay cheap.  A counting ``id_mul`` pins the id products the
walks make.
"""

import json

import pytest
from sympy import factorint

from gklab import catalog
from gklab.cli import load_spec
from gklab.groups import _power_walk, id_mul
from gklab.structure import conjugacy_classes, fitting_series, sylow
from test_frames import FRAMES
from test_idcore import BOUNDS, _bound

# C_1032 <= GL(1, 1033): 1033 is prime, and 5 is a primitive root mod 1033
C1032 = {"groups": {"c1032": {"type": "matgrp", "p": 1033,
                              "gens": [[[5]]]}}}


def _reference_rows(G):
    """The rows as they were walked: one walk of <rep_c> for every class
    c, read through the class of each id."""
    data = conjugacy_classes(G)
    mul, cids = id_mul(G), data.class_ids
    return [tuple(map(cids.__getitem__, _power_walk(mul, g)))
            for g in data.rep_ids]


def _load(path):
    return next(iter(load_spec(str(path)).values()))


def _c1032(tmp_path):
    path = tmp_path / "c1032.json"
    path.write_text(json.dumps(C1032))
    return _load(path)


def _small_inputs():
    """The corpus, the catalog and the sweep, with the Fitting quotients and
    the Sylow views of the catalog, all built fresh."""
    entries = [entry.build() for entry in catalog.catalog()]
    gs = [*catalog.distinct_corpus(1, 200, 2000).values(), *entries,
          *(build() for _, _, build in catalog.frobenius_family_sweep())]
    for G in entries:
        gs += fitting_series(G).quotients
        gs += [sylow(G, p).as_group() for p in sorted(factorint(G.order))]
    return gs


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_rows_match_a_walk_per_class(bound):
    with _bound(bound):
        for G in _small_inputs():
            assert list(conjugacy_classes(G).powers) == _reference_rows(G), \
                (G.label, bound)


def test_rows_above_the_bound_match_a_walk_per_class(tmp_path):
    """The frames and C_1032 lie above TABLE_BOUND, so both of its values
    take the same path on them."""
    gs = [_load(FRAMES / f"{name}.json") for name in ("wb6", "gl3_3")]
    for G in [*gs, _c1032(tmp_path)]:
        assert list(conjugacy_classes(G).powers) == _reference_rows(G), \
            G.label


def _walk_products(G) -> int:
    """The id products ``conjugacy_classes`` makes on G: its ``id_mul``,
    built first, is replaced in G's memo by one that counts its calls."""
    mul, calls = id_mul(G), []

    def counting(a, b):
        calls.append(None)
        return mul(a, b)
    G._memo["id_mul"] = counting
    conjugacy_classes(G)
    return len(calls)


@pytest.mark.parametrize("name, walked, per_class", [
    ("wb6", 243, 267), ("gl3_3", 65, 209), ("c1032", 1031, 542_875)])
def test_walks_cover_each_cyclic_subgroup_once(name, walked, per_class,
                                               tmp_path):
    """The id products of the class walks, against the Σ (|rep_c| - 1) of
    one walk per class: C_1032 is walked once, from its generator."""
    G = (_c1032(tmp_path) if name == "c1032"
         else _load(FRAMES / f"{name}.json"))
    assert _walk_products(G) == walked
    assert sum(len(row) - 1 for row in conjugacy_classes(G).powers) == \
        per_class
