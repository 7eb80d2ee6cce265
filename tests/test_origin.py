"""How a group was built lives in its ``origin``; ``_memo`` holds only caches.

Every handle records its construction in the frozen ``origin`` field (None,
``Product``, ``Quotient`` or ``View``), lists its elements once in
``ordered``, and the ``memoised`` helper fills ``_memo`` with data derived
from them.  The tests record every handle built while the whole catalog and
one group of each construction are analysed, and check their element lists
and caches, and that each lists its identity first, at id 0.
"""

from dataclasses import replace

import pytest

from gklab import catalog
from gklab.cli import analysis_report
from gklab.groups import (GroupHandle, Product, Quotient, View,
                          direct_factors, direct_product, element_ids, ids_of,
                          subgroup_as_group)
from gklab.structure import conjugacy_classes, core_p, quotient

DERIVED = {"ids", "right_rows", "id_mul", "conj_tables",
           "conjugacy", "sylow", "fitting", "fitting_series", "quotient",
           "abelian", "metabelian", "supersolvable", "fingerprint",
           "frobenius", "rationality", "element_orders"}
# construction data, which an origin holds instead, and deleted tables
# and lookups
RETIRED = {"sorted", "factors", "tables_from", "id_mul_from", "id_base_from",
           "to_q", "action", "id_powers", "identity"}


@pytest.fixture
def built(monkeypatch) -> list[GroupHandle]:
    """Every GroupHandle constructed while the test runs."""
    handles = []
    init = GroupHandle.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handles.append(self)
    monkeypatch.setattr(GroupHandle, "__init__", recording)
    return handles


def _analyse_every_origin() -> dict[str, GroupHandle]:
    """The catalog and one group of each construction, analysed."""
    S4 = catalog.sym(4)
    groups = {entry.name: entry.build() for entry in catalog.catalog()}
    groups.update({
        "product": direct_product(catalog.sym(3), catalog.quaternion8()),
        "semidirect": catalog.vector_semidirect(5, 2, [[[2, 0], [0, 3]]]),
        "quotient": quotient(S4, core_p(S4, 2)),
        "view": subgroup_as_group(
            S4, [x for x in S4.elements if x[1][3] == 3], "S3"),
    })
    groups["renamed"] = replace(groups["product"], label="renamed")
    analysis_report(groups, {})
    return groups


def test_memo_holds_only_derived_caches(built):
    _analyse_every_origin()
    assert {type(G.origin) for G in built} == {
        type(None), Product, Quotient, View}
    assert any(G.origin.act is not None for G in built
               if isinstance(G.origin, Product))
    assert any(G.label == "renamed" for G in built)  # a renamed copy
    for G in built:
        srt = G.ordered
        assert all(element_ids(G)[x] == i for i, x in enumerate(srt)), G.label
        assert len(srt) == G.order
        assert set(srt) == set(G.elements)
        for key in G._memo:
            assert (key[0] if isinstance(key, tuple) else key) in DERIVED
            if G.origin is not None:
                assert key not in RETIRED, (G.label, key)


def test_every_handle_has_its_identity_at_id_0(built):
    """Enumerated groups, both kinds of product, both quotient paths, views
    and renamed copies: the identity is id 0, listed first when the handle
    lists its elements, and the least id of the first class, of size 1."""
    groups = _analyse_every_origin()
    assert {type(G.origin) for G in built} == {
        type(None), Product, Quotient, View}
    for G in built:
        assert ids_of(G, [G.identity]) == [0], G.label
        assert G.listed is None or G.listed[0] == G.identity, G.label
    for name, G in groups.items():
        data = conjugacy_classes(G)
        assert (data.rep_ids[0], data.sizes[0]) == (0, 1), name


def test_a_renamed_copy_shares_origin_and_no_cache():
    S3, C2, S4 = catalog.sym(3), catalog.cyclic(2), catalog.sym(4)
    P = direct_product(S3, C2)
    Q = quotient(P, core_p(P, 3))  # (S3 / A3) x C2, a product
    Q4 = quotient(S4, core_p(S4, 2))
    for G in (P, Q, Q4, catalog.sym(3)):
        conjugacy_classes(G)
        R = replace(G, label="renamed")
        assert R.label == "renamed"
        assert R.origin is G.origin
        assert R._memo == {}
        assert R.ordered is G.ordered
        assert conjugacy_classes(R) == conjugacy_classes(G)
    assert direct_factors(replace(P, label="renamed")) == direct_factors(P)
    A, B = direct_factors(Q)
    assert A.ordered == quotient(S3, core_p(S3, 3)).ordered and A.order == 2
    assert B is C2  # its projection is trivial, so the factor is kept
    assert isinstance(Q4.origin, Quotient) and direct_factors(Q4) is None
