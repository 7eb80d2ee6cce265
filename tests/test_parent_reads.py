"""Subgroup views and quotients read what their parent already holds.

A view grown from known generators (``SubgroupHandle.gens``) runs no
closure; a view's element orders are its members' orders in its parent; a
product's quotient by a product N_A x N_B composes its coset projection
from its factors'; a quotient by the whole group walks no coset; and the
Fitting series lifts each term through the composed projection.  Each is
checked, under both TABLE_BOUND values, against a local copy of the loop
it replaced or against element products, and a spy checks that the
replaced work is not done.  A quotient walks its own class power map, and
is checked against a local copy of the read off its parent's map.
"""

from collections import Counter
from dataclasses import replace

import pytest
from sympy import factorint

from gklab import catalog, groups, verify
from gklab import elements as el
from gklab.frobenius import frobenius_decomposition, is_frobenius
from gklab.groups import (Product, Quotient, View, conjugation_tables,
                          direct_factors, direct_product,
                          element_orders_multiset, elements_at,
                          generator_ids, id_mul,
                          semidirect_product, subgroup_view)
from gklab.structure import (SubgroupHandle, class_representatives,
                             conjugacy_classes, derived_subgroup, fitting,
                             fitting_series, minimal_normal_subgroups,
                             normal_closure, quotient, sylow)
from test_idcore import BOUNDS, _bound, _Poison, _reference_closure
from test_pair_arithmetic import (_c7_by_c3_x_c2, _direct_by_direct,
                                  _matrix_semidirect_of_direct)

by_bound = pytest.mark.parametrize("bound", sorted(BOUNDS))


def _corpus():
    return list(catalog.distinct_corpus(1, 20, 300).values())


def _catalog(max_order=3000):
    return [G for G in (e.build() for e in catalog.catalog())
            if G.order <= max_order]


def _products():
    """A direct product, a nested one and a direct product of semidirect
    products, so that Sylow generators are composed at every level."""
    return [direct_product(catalog.sym(4), catalog.cyclic(4)),
            direct_product(direct_product(catalog.sym(3), catalog.cyclic(2)),
                           catalog.quaternion8()),
            direct_product(catalog.c7_c6(),
                           catalog.catalog_entry("twofrob.c").build())]


def _c2_by_c4_trivial():
    """C2 x| C4 under the trivial action: a semidirect product whose centre
    holds the diagonal <(a, h^2)>, which is no product of subgroups."""
    N = catalog.cyclic(2)
    return semidirect_product(N, catalog.cyclic(4), [list(N.generators)])


def _coset_walk(G, ids):
    """The coset projection and least representatives by |G| id products,
    as ``quotient`` walks them for any N."""
    mul = id_mul(G)
    to_q, rep_ids = [-1] * G.order, []
    for g in range(G.order):
        if to_q[g] < 0:
            for x in ids:
                to_q[mul(g, x)] = len(rep_ids)
            rep_ids.append(g)
    return to_q, rep_ids


def _rows_off_parent(Q):
    """Q's class power map read off its parent's, with no power walk: row c
    is the parent's row for g, the least id of rep_c's coset, through the
    projection, as (gN)^k is the coset of any member of g^k's class; it is
    cut at the first return to the identity's class, as |gN| is the least
    k >= 1 with g^k in N, a union of classes."""
    o, data = Q.origin, conjugacy_classes(Q)
    pd, cids = conjugacy_classes(o.parent), data.class_ids
    ce = cids[0]
    rows = ([cids[o.to_q[pd.rep_ids[c]]]
             for c in pd.powers[pd.class_ids[o.rep_ids[g]]]] + [ce]
            for g in data.rep_ids)
    return [tuple(row[:row.index(ce, 1)]) for row in rows]


def _element_orders(V):
    """order -> count, each order walked by element products."""
    counts = Counter()
    for x in V.ordered:
        k, h = 1, x
        while h != V.identity:
            h, k = V.mult(h, x), k + 1
        counts[k] += 1
    return counts


def _complement(G):
    """A complement of G's Frobenius kernel K, not normal: C_G(t) for the
    first class representative t outside K whose class has |K| elements."""
    ks, data = frobenius_decomposition(G).ids, conjugacy_classes(G)
    t = next(rep for rep, size in zip(data.rep_ids, data.sizes)
             if size == len(ks) and rep not in ks)
    mul = id_mul(G)
    ids = frozenset(x for x in range(G.order) if mul(x, t) == mul(t, x))
    return SubgroupHandle(G, ids)


class TestViews:
    @by_bound
    def test_sylow_views_on_known_generators(self, bound, monkeypatch):
        """A Sylow subgroup's view is built on the generators it was grown
        from, with no closure; it lists the same elements and has the same
        classes as the view ``_span_of`` builds, and its generators close
        to its members by element products."""
        span_of, spans = groups._span_of, []

        def counting(G, members):
            spans.append(G.label)
            return span_of(G, members)
        with _bound(bound):
            for G in _corpus() + _catalog(700) + _products():
                for p in sorted(factorint(G.order)):
                    S = sylow(G, p)
                    assert S.gens is not None, (G.label, p)
                    monkeypatch.setattr(groups, "_span_of", counting)
                    V = S.as_group()
                    monkeypatch.setattr(groups, "_span_of", span_of)
                    W = subgroup_view(G, S.ids)
                    assert V.ordered == W.ordered, (G.label, p)
                    assert conjugacy_classes(V) == conjugacy_classes(W)
                    assert _reference_closure(G, V.generators) == \
                        set(V.ordered), (G.label, p)
        assert spans == []

    def test_generators_are_not_compared(self):
        S4 = catalog.sym(4)
        S = sylow(S4, 2)
        bare = replace(S, gens=None)
        assert S == bare and hash(S) == hash(bare) and repr(S) == repr(bare)
        assert "gens" not in repr(S)

    @by_bound
    def test_view_element_orders_come_from_the_parent(self, bound):
        """Sylow, Fitting-term and Frobenius-complement views of the corpus
        and the catalog, the complement a centralizer with no generators and
        not normal (``_complement``): the counts match orders walked by element
        products, and the view builds no rows, tables or classes."""
        with _bound(bound):
            kinds = Counter()
            for G in _corpus() + _catalog():
                views = {"sylow": [sylow(G, p).as_group()
                                   for p in sorted(factorint(G.order))],
                         "fitting": [F.as_group() for F in
                                     fitting_series(G).series[1:]],
                         "complement": [_complement(G).as_group()]
                         if is_frobenius(G) else []}
                for kind, vs in views.items():
                    for V in vs:
                        assert isinstance(V.origin, View)
                        got = element_orders_multiset(V)
                        assert not {"right_rows", "conj_tables", "conjugacy",
                                    "id_mul"} & set(V._memo), V.label
                        assert dict(got) == _element_orders(V), V.label
                        kinds[kind] += 1
            assert set(kinds) == {"sylow", "fitting", "complement"}

    def test_cut_sylow_invariants_build_no_closure(self, monkeypatch):
        """The Sylow views of the corpus pass run no ``_span_of`` and build
        no classes: Q8 is recognised by its element-order counts, which a
        view reads off its parent's classes."""
        span_of, spans, built = groups._span_of, [], []
        init = groups.GroupHandle.__init__

        def counting(G, members):
            spans.append(G.label)
            return span_of(G, members)

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        monkeypatch.setattr(groups, "_span_of", counting)
        monkeypatch.setattr(groups.GroupHandle, "__init__", recording)
        for G in catalog.distinct_corpus(1, 40, 2000).values():
            verify._cut_sylow_invariants(G)
        views = [V for V in built if isinstance(V.origin, View)]
        assert views and spans == []
        assert [V.order for V in views if "conjugacy" in V._memo] == []
        assert 8 in {V.order for V in views}


def _quotients():
    """Quotients walked on their parent, with the parent enumerated, a
    quotient, a semidirect product or a direct product (by a diagonal)."""
    out = []
    for G in _corpus() + _catalog() + [catalog.sym(4), catalog.sl2_3()]:
        out += fitting_series(G).quotients
        if fitting_series(G).solvable:
            out += [quotient(G, N) for N in minimal_normal_subgroups(G)]
        out.append(quotient(G, derived_subgroup(G)))
    Q8, C2 = catalog.quaternion8(), catalog.cyclic(2)
    z = next(x for x in Q8.ordered  # -1, the one involution of Q8
             if x != Q8.identity and Q8.mult(x, x) == Q8.identity)
    P = direct_product(Q8, C2)
    out.append(quotient(P, normal_closure(  # by the diagonal <(-1, c)>
        P, [(el.PAIR, z, C2.generators[0])])))
    return [Q for Q in dict.fromkeys(out) if isinstance(Q.origin, Quotient)]


class TestQuotientRows:
    @by_bound
    def test_rows_match_power_walks(self, bound):
        """Each row, the walk of its representative on the quotient's
        id_mul, is the one read off the parent's row; the parents are
        enumerated groups, quotients, and direct and semidirect products."""
        with _bound(bound):
            parents = Counter()
            for Q in _quotients():
                assert list(conjugacy_classes(Q).powers) == \
                    _rows_off_parent(Q), Q.label
                o = Q.origin.parent.origin
                parents[type(o).__name__ if not isinstance(o, Product) else
                        "direct" if o.act is None else "semidirect"] += 1
            assert set(parents) == {"NoneType", "Quotient", "direct",
                                    "semidirect"}


def _semidirect_cases():
    """(G, M ids, kind) for the normal closures of single elements of
    semidirect products N x| H, with kind "inside" for M <= N x 1,
    "contains" for M >= N x 1, "product" for another M_N x M_H and
    "diagonal" for an M that is no such product."""
    builds = [lambda: catalog.vector_semidirect(5, 2, [[[2, 0], [0, 3]]]),
              lambda: catalog.catalog_entry("fig3.e").build(),
              lambda: catalog.catalog_entry("twofrob.c").build(),
              _c2_by_c4_trivial, _c7_by_c3_x_c2, _direct_by_direct,
              _matrix_semidirect_of_direct]
    out = []
    for build in builds:
        G = build()
        n, m = G.origin.left.order, G.origin.right.order
        closures = {normal_closure(G, [x]).ids
                    for x in class_representatives(G)}
        for ids in sorted(closures, key=sorted):
            a, b = {i // m for i in ids}, {i % m for i in ids}
            kind = ("diagonal" if len(a) * len(b) != len(ids) else
                    "inside" if len(b) == 1 else
                    "contains" if len(a) == n else "product")
            out.append((build, ids, kind))
    return out


class TestSemidirectQuotients:
    @by_bound
    def test_projection_matches_the_coset_walk(self, bound):
        """The projection, representatives, elements and generators of
        G/M equal the coset walk's, M inside N, containing N, a diagonal,
        and for kernels and acting groups that are direct products."""
        with _bound(bound):
            kinds = Counter()
            for build, ids, kind in _semidirect_cases():
                G = build()
                to_q, rep_ids = _coset_walk(G, ids)
                Q = quotient(G, SubgroupHandle(G, ids))
                assert Q.origin.to_q == to_q and Q.origin.rep_ids == rep_ids
                reps = elements_at(G, rep_ids)
                assert Q.ordered == reps
                assert Q.generators == tuple(reps[to_q[i]]
                                             for i in generator_ids(G))
                kinds[kind] += 1
            assert set(kinds) == {"inside", "contains", "product",
                                  "diagonal"}

    @by_bound
    def test_product_cases_make_no_id_product_of_G(self, bound):
        """M = M_N x M_H: the projection is composed from the factors'
        quotients, with no id product of G."""
        with _bound(bound):
            for build, ids, kind in _semidirect_cases():
                if kind == "diagonal":
                    continue
                want = _coset_walk(build(), ids)
                G = build()
                G._memo["id_mul"] = _Poison()
                Q = quotient(G, SubgroupHandle(G, ids))
                assert (Q.origin.to_q, Q.origin.rep_ids) == want, kind


def _whole_factor_cases():
    """(G, N ids, F) where quotient(G, N) takes F/F: G/G for the corpus and
    catalog groups that are not direct products, and G/M for a semidirect
    product A x| B and M >= A x 1, which takes A/A, twofrob.g's G/F_1
    (A = C3^6) among them."""
    out = [(G, range(G.order), G) for G in _corpus() + _catalog()
           if not direct_factors(G)]
    out += [(G, ids, G.origin.left) for build, ids, kind
            in _semidirect_cases() if kind == "contains" for G in [build()]]
    G = catalog.catalog_entry("twofrob.g").build()
    return out + [(G, fitting(G).ids, G.origin.left)]


@by_bound
def test_quotient_by_the_whole_factor_walks_no_coset(bound):
    """With F's id products and conjugation tables poisoned (G's own tables
    built first), the projection, representatives, elements, identity and
    generators of G/N are the coset walk's."""
    with _bound(bound):
        for G, ids, F in _whole_factor_cases():
            to_q, rep_ids = _coset_walk(G, ids)
            conjugation_tables(G)
            F._memo["id_mul"] = F._memo["conj_tables"] = _Poison()
            Q = quotient(G, SubgroupHandle(G, frozenset(ids)))
            reps = elements_at(G, rep_ids)
            assert (Q.origin.to_q, Q.origin.rep_ids) == (to_q, rep_ids)
            assert Q.ordered == reps, G.label
            assert Q.identity == reps[to_q[0]]
            assert Q.generators == tuple(reps[to_q[i]]
                                         for i in generator_ids(G))


def _series_groups():
    return (_corpus() + _catalog() + _products()
            + [catalog.sym(4), catalog.sl2_3(), _direct_by_direct()])


@by_bound
def test_fitting_series_lift_makes_no_id_product(bound):
    """With the quotients and their Fitting subgroups built, the terms are
    lifted to G with no id product of G."""
    with _bound(bound):
        gs = _series_groups()  # a catalog group may be a factor of another
        want = [fitting_series(G) for G in gs]
        for G in gs:
            del G._memo["fitting_series"]
            G._memo["id_mul"] = _Poison()
        for G, fs in zip(gs, want):
            got = fitting_series(G)
            assert [F.ids for F in got.series] == \
                [F.ids for F in fs.series], G.label
            assert got.quotients == fs.quotients
