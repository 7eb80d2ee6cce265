"""Direct products read their class data off their factors.

``structure.conjugacy_classes`` derives a direct product's classes and power
map from its factors' memoised data, with no multiplication.  The reference
is the orbit and walk path every other group runs, taken on a copy of the
product recorded as a semidirect product under the trivial action.
``rationality_report`` shares one verdict among the classes with the same
pair of factor-class keys, and shares it across products too: the verdict of
a pair of factor verdicts is computed once per process, by the first product
that has it (``rationality._product_verdicts``).  Its reference is
``_class_verdict`` on every row of the product, checked from an empty table
and from one other products have filled; ``product_cut_predicate`` reads no
such table.  The pairs are the ones the `verify invariants` product pair
row samples, so that row's cut verdicts and prime graphs, now read off the
factors, stay checked against an independent computation of each product.
Classes, verdicts, prime graphs, fingerprints, the analysis report of every
catalog product and the per-group checks of `verify invariants` list no
product's pairs, at any level of nesting, and Sylow subgroups and
nilpotency build no direct product's multiplication or conjugation tables.
A product composes a power-map row only when it is read, each row equal to
the one the factors' rows give when all are composed at once; its element
order counts are composed from its factors' and read no row.
"""

import functools
import random
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import replace
from math import gcd, lcm
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from gklab import catalog, rationality, structure, verify
from gklab.cli import analysis_report
from gklab.frobenius import fingerprint
from gklab.groups import (GroupHandle, Product, Quotient, _power_walk,
                          conjugation_tables, direct_factors, direct_product,
                          element_orders_multiset, id_mul, subgroup_as_group)
from gklab.primegraph import gk_graph
from gklab.rationality import (_class_verdict, is_cut_group,
                               product_cut_predicate, rationality_report)
from gklab.numtheory import factorint
from gklab.structure import (conjugacy_classes, core_p, exponent,
                             is_cyclic, is_nilpotent, quotient, sylow)
from gklab.verify import _check_group_invariants, _sampled_pairs


def _without_factors(P: GroupHandle) -> GroupHandle:
    """P with its ids and tables, built as A x| B under the trivial action:
    the orbit and walk path."""
    A, B = direct_factors(P)
    trivial = [list(range(A.order))] * B.order
    R = replace(P, origin=Product(A, B, trivial))
    R._memo["conj_tables"] = conjugation_tables(P)
    return R


def _check_verdicts(P: GroupHandle) -> None:
    """The verdicts shared by factor-class keys are the ones read off every
    row of P, and each distinct one's first class is the first row's with
    it."""
    data = conjugacy_classes(P)
    rows = tuple(map(_class_verdict, range(len(data.powers)), data.powers))
    report = rationality_report(P)
    assert report.per_class == rows
    assert report.firsts == {v: rows.index(v) for v in dict.fromkeys(rows)}


def _walks(G: GroupHandle) -> list[list[int]]:
    """The walk 1, g, g^2, ... of every id g on ``id_mul``, local to these
    tests: the library keeps no order or inverse for every id."""
    mul = id_mul(G)
    return [_power_walk(mul, g) for g in range(G.order)]


def _check_against_reference(P: GroupHandle) -> None:
    _check_verdicts(P)
    data = conjugacy_classes(P)
    R = _without_factors(P)
    ref = conjugacy_classes(R)
    assert data.rep_ids == ref.rep_ids
    assert data.sizes == ref.sizes
    assert data.powers == ref.powers
    assert list(data.class_ids) == list(ref.class_ids)
    # the element view, derived from the id fields
    assert data.representatives == ref.representatives
    assert _walks(P) == _walks(R)


@functools.cache
def _sampled():
    return _sampled_pairs(1, catalog.distinct_corpus(1, 200, 2000))


def test_sample_is_the_verify_rows():
    assert len(_sampled()) == 50


@pytest.mark.parametrize("k", range(50))
def test_sampled_pair_matches_the_orbit_path(k):
    a, b = _sampled()[k]
    _check_against_reference(direct_product(a, b))


def _s4_mod_v4():
    S4 = catalog.sym(4)
    return quotient(S4, core_p(S4, 2))


def _s3_in_s4():
    S4 = catalog.sym(4)
    return subgroup_as_group(
        S4, [x for x in S4.elements if x[1][3] == 3], "S3")


# nested products, and products of quotients, views and trivial groups
NESTED = {
    "(C6xQ8)xS3": lambda: direct_product(
        direct_product(catalog.cyclic(6), catalog.quaternion8()),
        catalog.sym(3)),
    "C2x(S3xQ8)": lambda: direct_product(
        catalog.cyclic(2),
        direct_product(catalog.sym(3), catalog.quaternion8())),
    "(S3xC2)x(C3xA4)": lambda: direct_product(
        direct_product(catalog.sym(3), catalog.cyclic(2)),
        direct_product(catalog.cyclic(3), catalog.alt(4))),
    "(C5^2:Q8)xC2": lambda: direct_product(
        catalog.catalog_entry("fig3.e").build(), catalog.cyclic(2)),
    "C4x(C7:C3)": lambda: direct_product(catalog.cyclic(4), catalog.c7_c3()),
    "(S4/V4)xDic12": lambda: direct_product(_s4_mod_v4(),
                                            catalog.dicyclic12()),
    "view-x-C3": lambda: direct_product(_s3_in_s4(), catalog.cyclic(3)),
    "C1xC1": lambda: direct_product(catalog.cyclic(1), catalog.cyclic(1)),
    # a non-cut factor (C5), and factors with two classes of one order and
    # different iota images, which a verdict keyed on orders alone confuses
    "(C3xS3)xC5": lambda: direct_product(
        direct_product(catalog.cyclic(3), catalog.sym(3)), catalog.cyclic(5)),
    "C2x(C5xD5)": lambda: direct_product(
        catalog.cyclic(2),
        direct_product(catalog.cyclic(5), catalog.dihedral(10))),
}


# the catalog entries built as products; fig3.r and twofrob.g are not
CATALOG_PRODUCTS = ["fig3.d", "fig3.e", "fig3.f", "fig3.h", "fig3.i",
                    "fig3.j", "fig3.k", "fig3.m", "fig3.n", "fig3.o",
                    "fig3.p", "fig3.q", "twofrob.c", "twofrob.e", "twofrob.l"]


def _built_views(P: GroupHandle) -> list[str]:
    """The element view built on P's class data or on an inner product's."""
    out = []
    for F in direct_factors(P) or ():
        if direct_factors(F):
            out += _built_views(F)
    if "representatives" in vars(P._memo["conjugacy"]):
        out.append(f"{P.label}.representatives")
    return out


def _listed_products(G: GroupHandle) -> list[str]:
    """G and the products nested in it, direct or semidirect, that hold
    their pair list or their element id dict."""
    if not isinstance(G.origin, Product):
        return []
    out = _listed_products(G.origin.left) + _listed_products(G.origin.right)
    if "ordered" in vars(G.origin) or "ids" in G._memo:
        out.append(G.label)
    return out


def _id_cores(G: GroupHandle) -> list[str]:
    """The id data built on G and on the direct products nested in it."""
    if not (factors := direct_factors(G)):
        return []
    return [*_id_cores(factors[0]), *_id_cores(factors[1]),
            *(f"{G.label}.{key}" for key in ("id_mul", "conj_tables")
              if key in G._memo)]


@pytest.mark.parametrize("build", [
    # fresh factors: the cached sample's are read element by element elsewhere
    lambda: direct_product(
        *_sampled_pairs(1, catalog.distinct_corpus(1, 200, 2000))[3]),
    *[(lambda name=name: catalog.catalog_entry(name).build())
      for name in CATALOG_PRODUCTS],
    *NESTED.values(),
], ids=["sampled", *CATALOG_PRODUCTS, *NESTED])
def test_reads_build_no_element_view(build):
    """Classes, verdicts, the prime graph, the fingerprint and the whole
    analysis report of a product list no pair, at any level of nesting, and
    the report never lists its class representatives as elements.  Sylow
    subgroups and nilpotency, read first, build no direct product's id
    data."""
    P = build()
    for p in factorint(P.order):
        sylow(P, p)
    is_nilpotent(P)
    assert _id_cores(P) == []
    conjugacy_classes(P)
    rationality_report(P)
    gk_graph(P)
    fingerprint(P)
    assert _listed_products(P) == []
    analysis_report({"P": P}, {})
    assert _listed_products(P) == []
    assert _built_views(P) == []
    # the view is still there for a reader that asks
    data = conjugacy_classes(P)
    assert data.representatives == tuple(map(P.ordered.__getitem__,
                                             data.rep_ids))


@functools.cache
def _invariant_products() -> dict[str, GroupHandle]:
    """The corpus products, built for the test below alone: no other test
    reads their elements."""
    return {label: G for label, G in
            catalog.distinct_corpus(1, 200, 2000).items()
            if isinstance(G.origin, Product)}


@pytest.mark.parametrize("label", sorted(_invariant_products()))
def test_invariants_list_no_pair(label):
    """The per-group lemma checks of `verify invariants` (Sylow subgroups as
    groups, quotients by minimal normal subgroups, both cut oracles) list
    no product's pairs."""
    P = _invariant_products()[label]
    assert _check_group_invariants(P) == []
    assert _listed_products(P) == []


@pytest.mark.parametrize("k", range(0, 50, 7))
def test_derived_path_multiplies_nothing(k):
    a, b = _sampled()[k]
    P = direct_product(a, b)
    conjugacy_classes(P)
    rationality_report(P)
    gk_graph(P)
    assert "id_mul" not in P._memo


@pytest.mark.parametrize("build", NESTED.values(), ids=NESTED)
def test_nested_and_mixed_factors(build):
    P = build()
    _check_against_reference(P)
    # nested products derive at every level
    for F in direct_factors(P):
        if direct_factors(F):
            _check_against_reference(F)


@pytest.mark.parametrize("build", NESTED.values(), ids=NESTED)
def test_class_ids_match_the_generic_path(build):
    """The class of each id, composed per item at every level of nesting, is
    the one the orbit path finds on a copy with no origin: read by index and
    by negative index before anything else, then by slices, which return
    tuples as the other composed fields do, then whole."""
    P = build()
    R = replace(P, listed=P.ordered, origin=None)
    got, want = conjugacy_classes(P).class_ids, conjugacy_classes(R).class_ids
    n = len(want)
    assert len(got) == n == P.order
    for i in sorted({0, n // 2, n - 1}):
        assert got[i] == want[i] and got[-1 - i] == want[-1 - i], i
    for cut in (slice(None), slice(1, None, 2), slice(-3, None), slice(n, 0)):
        assert got[cut] == tuple(want[cut]), cut
    assert list(got) == list(want)


def test_view_element_orders_compose_few_class_ids():
    """Reading the element orders of fig3.r's Sylow 2-subgroup view
    composes the class ids of its 16 members, not of all 25,200 ids."""
    G = catalog.catalog_entry("fig3.r").build()
    V = sylow(G, 2).as_group()
    assert (G.order, V.order) == (25200, 16)
    composed = []
    item = conjugacy_classes(G).class_ids._item
    conjugacy_classes(G).class_ids._item = lambda i: composed.append(i) \
        or item(i)
    assert dict(element_orders_multiset(V)) == {1: 1, 2: 3, 4: 12}
    assert 0 < len(composed) <= 16


@functools.cache
def _pool():
    return [build() for build in catalog._corpus_pool()]


@st.composite
def _pool_pairs(draw):
    pool = _pool()
    a = draw(st.sampled_from(pool))
    b = draw(st.sampled_from([G for G in pool if a.order * G.order <= 20000]))
    return a, b


@settings(max_examples=60, deadline=None)
@given(pair=_pool_pairs())
def test_product_class_laws(pair):
    a, b = pair
    P = direct_product(a, b)
    data = conjugacy_classes(P)
    da, db = conjugacy_classes(a), conjugacy_classes(b)
    # the class equation and k(A x B) = k(A) k(B)
    assert sum(data.sizes) == P.order
    assert len(data.rep_ids) == len(da.rep_ids) * len(db.rep_ids)
    # sizes[c] is the number of ids in class c, whose least id is rep_ids[c]
    assert list(data.sizes) == [
        n for _, n in sorted(Counter(data.class_ids).items())]
    first = {c: i for i, c in reversed(list(enumerate(data.class_ids)))}
    assert first == dict(enumerate(data.rep_ids))
    # row (x, y) runs for lcm(|x|, |y|) steps
    assert [len(row) for row in data.powers] == [
        lcm(len(ra), len(rb)) for ra in da.powers for rb in db.powers]
    # element orders by id agree with the row of each element's class;
    # (x_i, y_j) has order lcm(|x_i|, |y_j|), read off the factors' walks
    orders = [lcm(len(x), len(y)) for x in _walks(a) for y in _walks(b)]
    assert all(orders[i] == len(data.powers[c])
               for i, c in enumerate(data.class_ids))
    _check_verdicts(P)
    assert "id_mul" not in P._memo


def _eager_powers(G: GroupHandle) -> tuple:
    """G's power map with every row built at once, at every level of
    nesting: row a*k(B) + b of A x B pairs A's row a, scaled by k(B), with
    B's row b for lcm(|g|, |h|) steps.  Rows of a group that is not a direct
    product come from its orbit and walk path."""
    if not (factors := direct_factors(G)):
        return tuple(conjugacy_classes(G).powers)
    left, right = map(_eager_powers, factors)
    kh = len(right)
    rows = []
    for ra in left:
        na = len(ra)
        ra = tuple(a * kh for a in ra)
        for rb in right:
            nb = len(rb)
            n = lcm(na, nb)
            rows.append(tuple(map(add, ra * (n // na), rb * (n // nb))))
    return tuple(rows)


def _check_lazy_rows(P: GroupHandle, seed: int) -> None:
    """P's rows are the rows built at once: half of them read one by one in
    a shuffled order before any other read, then all of them."""
    powers = conjugacy_classes(P).powers
    eager = _eager_powers(P)
    order = list(range(len(eager)))
    random.Random(seed).shuffle(order)
    for c in order[:len(order) // 2]:
        assert powers[c] == eager[c], c
    assert powers[-1] == eager[-1]
    assert len(powers) == len(eager)
    assert list(powers) == list(eager)
    assert powers == eager and eager == powers


@pytest.mark.parametrize("k", range(50))
def test_sampled_pair_rows_match_eager_composition(k):
    _check_lazy_rows(direct_product(*_sampled()[k]), k)


def _c6q8():
    return direct_product(catalog.cyclic(6), catalog.quaternion8())


def _quotient_of_product():
    """(S4/V4) x (S4/V4), the direct product of the factors' quotients
    that ``structure._factor_quotients`` gives."""
    P = direct_product(catalog.sym(4), catalog.sym(4))
    Q = quotient(P, core_p(P, 2))
    assert all(isinstance(F.origin, Quotient) for F in direct_factors(Q))
    return Q


@pytest.mark.parametrize("build", [
    lambda: direct_product(_c6q8(), _c6q8()), _quotient_of_product,
], ids=["C6xQ8xC6xQ8", "product-quotient"])
def test_nested_and_quotient_rows_match_eager_composition(build):
    P = build()
    assert direct_factors(P)
    _check_lazy_rows(P, P.order)


def _compositions(monkeypatch) -> list:
    """A list that gains an entry each time a direct product composes a
    power-map row: every row takes one lcm of its factor rows' lengths."""
    calls = []

    def counting(*args):
        calls.append(args)
        return lcm(*args)
    monkeypatch.setattr(structure, "lcm", counting)
    return calls


@pytest.mark.parametrize("k", [k for k in range(50) if not any(
    map(direct_factors, _sampled()[k]))][:8])
def test_reads_compose_one_row_per_key_pair(monkeypatch, k):
    """From an empty verdict table, the cut verdict and the prime graph of a
    fresh product compose one row per pair of factor-class keys, and its
    order counts none; reading every row composes the rest, once each.  A
    second product of factors with the same keys finds every verdict in the
    table, so its cut verdict composes no row."""
    monkeypatch.setattr(rationality, "_product_verdicts", {})
    a, b = _sampled()[k]
    for F in (a, b):
        is_cut_group(F)
        gk_graph(F)
    keys = [len({(v.order, v.iota_exponents)
                 for v in rationality_report(F).per_class}) for F in (a, b)]
    P = direct_product(a, b)
    composed = _compositions(monkeypatch)
    element_orders_multiset(P)
    assert composed == []
    is_cut_group(P)
    gk_graph(P)
    assert 0 < len(composed) <= keys[0] * keys[1]
    list(conjugacy_classes(P).powers)
    assert len(composed) == len(conjugacy_classes(P).rep_ids)
    composed.clear()
    is_cut_group(direct_product(a, b))
    assert composed == []


def _verdict_products() -> list:
    """Builders of fresh products: the 50 sampled pairs, the nested ones and
    the product of quotients."""
    return [*(functools.partial(direct_product, a, b) for a, b in _sampled()),
            *NESTED.values(), _quotient_of_product]


def test_shared_verdicts_from_an_empty_table(monkeypatch):
    for build in _verdict_products():
        monkeypatch.setattr(rationality, "_product_verdicts", {})
        _check_verdicts(build())


def test_shared_verdicts_from_a_filled_table(monkeypatch):
    """Every product, checked in reverse order after all of them have
    filled the table, takes each verdict from it."""
    table = {}
    monkeypatch.setattr(rationality, "_product_verdicts", table)
    builds = _verdict_products()
    for build in builds:
        is_cut_group(build())
    filled = len(table)
    for build in reversed(builds):
        _check_verdicts(build())
    assert len(table) == filled


def test_one_verdict_per_distinct_verdict_pair(monkeypatch):
    """From an empty table, `verify invariants` computes each product class
    verdict once per distinct pair of factor verdicts: 957 verdicts in all,
    where every product computing its own took 3,756."""
    table = {}
    monkeypatch.setattr(rationality, "_product_verdicts", table)
    callers = Counter()

    def counting(cid, row):
        callers[sys._getframe(1).f_code.co_name] += 1
        return _class_verdict(cid, row)
    monkeypatch.setattr(rationality, "_class_verdict", counting)
    assert all(ok for _, ok, _ in verify.suite_invariants(1, 200, 2000))
    assert sum(callers.values()) == 957
    assert callers["_product_report"] == len(table) == 252


class _Unreadable(Mapping):
    """A verdict table whose every read fails."""

    def __getitem__(self, key):
        raise AssertionError(f"verdict table read at {key!r}")

    def __iter__(self):
        raise AssertionError("verdict table iterated")

    def __len__(self):
        raise AssertionError("verdict table sized")


def test_product_predicate_reads_no_verdict_table(monkeypatch):
    """``product_cut_predicate`` gives the same answers on the sampled pairs
    with the verdict table unreadable, so it stays a check on the product
    reports, not a reader of what they computed."""
    pairs = _sampled()
    want = [product_cut_predicate(a, b) for a, b in pairs]
    monkeypatch.setattr(rationality, "_product_verdicts", _Unreadable())
    assert [product_cut_predicate(a, b) for a, b in pairs] == want


@settings(max_examples=60, deadline=None)
@given(pair=_pool_pairs())
def test_product_order_laws(pair):
    """Element order counts of A x B against the orbit and walk path, and
    the exponent and cyclicity laws of a direct product."""
    a, b = pair
    P = direct_product(a, b)
    counts = element_orders_multiset(P)
    assert dict(counts) == dict(element_orders_multiset(_without_factors(P)))
    assert sum(counts.values()) == a.order * b.order
    assert exponent(P) == lcm(exponent(a), exponent(b))
    assert is_cyclic(P) == (is_cyclic(a) and is_cyclic(b)
                            and gcd(a.order, b.order) == 1)
