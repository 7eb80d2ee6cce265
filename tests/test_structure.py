import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from gklab import catalog, cli, groups, structure
from gklab import elements as el
from gklab.groups import (_LazyTuple, closure_in, direct_factors,
                          direct_product, element_ids, element_order,
                          generator_ids, small_generating_set)
from gklab.primegraph import gk_graph, product_graph
from gklab.rationality import (_class_verdict, is_cut_group,
                               product_cut_predicate, rationality_report)
from gklab.structure import (NotNormal, NotSolvable, SubgroupHandle,
                             _is_normal, centralizer, class_predicates,
                             class_representatives, conjugacy_classes, core_p,
                             derived_subgroup, exponent, fitting,
                             fitting_series, is_abelian, is_cyclic,
                             is_metabelian, is_metacyclic, is_nilpotent,
                             is_p_element, is_solvable, is_supersolvable,
                             minimal_normal_subgroups, normalizer_of_cyclic,
                             quotient, sylow)
from test_idcore import BOUNDS, _bound
from test_product_classes import _eager_powers


class TestConjugacy:
    def test_s3_class_sizes(self, s3):
        sizes = Counter(conjugacy_classes(s3).class_ids).values()
        assert sorted(sizes) == [1, 2, 3]

    def test_q8_has_five_classes(self, q8):
        assert len(set(conjugacy_classes(q8).class_ids)) == 5

    def test_trivial_group(self):
        G = catalog.cyclic(1)
        assert list(conjugacy_classes(G).class_ids) == [0]

    def test_classes_partition_and_share_orders(self, s4):
        data, reps = conjugacy_classes(s4), class_representatives(s4)
        assert len(data.class_ids) == 24
        for x, c in zip(s4.ordered, data.class_ids):
            assert element_order(s4, x) == element_order(s4, reps[c])
        sizes = Counter(data.class_ids)
        assert list(sizes.values()) == list(data.sizes)
        assert all(24 % n == 0 for n in sizes.values())


class TestCentralizerNormalizer:
    def test_order_3_in_s3(self, s3):
        g = el.perm_from_cycles(3, [[1, 2, 3]])
        assert centralizer(s3, g).order == 3
        assert normalizer_of_cyclic(s3, g).order == 6

    def test_identity(self, s3):
        assert centralizer(s3, s3.identity).order == 6
        assert normalizer_of_cyclic(s3, s3.identity).order == 6

    def test_order_7_in_c7c6(self, c7c6, seven_cycle):
        assert centralizer(c7c6, seven_cycle).order == 7
        assert normalizer_of_cyclic(c7c6, seven_cycle).order == 42


class TestSylowAndCores:
    def test_sylow_s4(self, s4):
        assert sylow(s4, 2).order == 8
        assert sylow(s4, 3).order == 3

    def test_sylow_absent_prime(self, s3):
        assert sylow(s3, 7).order == 1

    def test_sylow_of_p_group_is_whole(self, q8):
        assert sylow(q8, 2).order == 8
        assert core_p(q8, 2).order == 8

    def test_core2_s4_is_klein(self, s4):
        K = core_p(s4, 2)
        assert K.order == 4
        assert _is_normal(s4, K.ids)

    def test_core3_s3(self, s3):
        assert core_p(s3, 3).order == 3

    def test_sylow_q8_in_order_200_group(self):
        G = catalog.catalog_entry("fig3.e").build()
        S = sylow(G, 2).as_group()
        assert S.order == 8
        assert exponent(S) == 4
        assert sum(1 for g in S.elements if element_order(S, g) == 2) == 1


def _p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def _reference_sylow(G, p):
    """Sylow growth as it was before the order map: scan all of G for the
    normalizer of P, then take the least-id p-element of it outside P."""
    p_part = _p_part(G.order, p)
    P = {G.identity}
    gens = []
    while len(P) < p_part:
        N = [x for x in G.ordered
             if all(G.conjugate(s, x) in P for s in gens)]
        x = next(y for y in N if y not in P and y != G.identity and
                 is_p_element(G, y, p_part))
        gens.append(x)
        P = closure_in(G, gens)
    P_gens = small_generating_set(G, P) or [G.identity]
    normal = all(G.conjugate(s, g) in P for g in G.generators for s in P_gens)
    return frozenset(P), normal


def _small_catalog_groups():
    return [catalog.cyclic(12), catalog.elem_abelian(2, 3),
            catalog.elem_abelian(3, 2), catalog.dihedral(8),
            catalog.dihedral(12), catalog.sym(3), catalog.sym(4),
            catalog.alt(4), catalog.alt(5), catalog.quaternion8(),
            catalog.sl2_3(), catalog.dicyclic12(),
            catalog.quaternion8_times_c3(), catalog.c7_c3(), catalog.c7_c6()]


# three semidirect products of the Frobenius family sweep; the last one's
# acting group is itself a semidirect product
SWEEP_SYLOW = ("C3^2 x| Q8", "C7^2 x| C6", "C5^2 x| (C3 x| C4)")


def _sylow_inputs():
    """The corpus and the small catalog groups by label, then quotients,
    subgroup views and sweep semidirect products, all built fresh."""
    groups = {G.label: G for G in catalog.corpus(1, 60, 700)}
    for G in _small_catalog_groups():
        groups.setdefault(G.label, G)
    out = [(label, groups[label]) for label in sorted(groups)]
    s4, dic12 = catalog.sym(4), catalog.dicyclic12()
    twofrob = catalog.catalog_entry("twofrob.c").build()
    out += [("S4/O_2", quotient(s4, core_p(s4, 2))),
            ("Dic12/O_3", quotient(dic12, core_p(dic12, 3))),
            ("twofrob.c/F_1", quotient(twofrob, fitting(twofrob))),
            ("Syl_2(S4)", sylow(s4, 2).as_group()),
            ("F_2(twofrob.c)", fitting_series(twofrob).series[2].as_group())]
    out += [(name, build()) for name, _, build
            in catalog.frobenius_family_sweep() if name in SWEEP_SYLOW]
    return out


class TestSylowDifferential:
    def test_matches_normalizer_scan(self):
        """Sylow growth, whose candidates come from the class rows, against
        the full normalizer scan, with and without Cayley tables."""
        for bound in sorted(BOUNDS):
            with _bound(bound):
                inputs = _sylow_inputs()
                checked = 0
                for label, G in inputs:
                    for p in sorted(factorint(G.order)):
                        elems, normal = _reference_sylow(G, p)
                        got = sylow(G, p)
                        assert got.elements == elems, (bound, label, p)
                        # normal iff |P| divides |F(G)|
                        assert (fitting(G).order % got.order == 0) == normal, \
                            (bound, label, p)
                        checked += 1
                assert checked > 120, checked


def _reference_nilpotent(G):
    """``is_nilpotent`` as it was: every Sylow subgroup carried into itself
    by the conjugation tables."""
    return all(_is_normal(G, sylow(G, p).ids) for p in factorint(G.order))


def test_nilpotent_matches_sylow_normality():
    """F(G) = G against every Sylow subgroup normal, on the corpus, the
    small catalog groups, quotients, subgroup views, the catalog entries up
    to order 1200 and the whole Frobenius family sweep, all built fresh."""
    inputs = _sylow_inputs()
    inputs += [(e.name, e.build()) for e in catalog.catalog()
               if e.order <= 1200]
    inputs += [(name, build()) for name, _, build
               in catalog.frobenius_family_sweep()]
    verdicts = set()
    for label, G in inputs:
        want = _reference_nilpotent(G)
        assert is_nilpotent(G) == want, label
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.fixture(scope="module")
def order_groups():
    s4 = catalog.sym(4)
    dic12 = catalog.dicyclic12()
    return [
        s4,                                               # permutations
        catalog.sl2_3(),                                  # 2x2 matrices mod 3
        direct_product(catalog.quaternion8(), catalog.sym(3)),  # pairs
        catalog.c7_c6(),                                  # semidirect pairs
        quotient(s4, core_p(s4, 2)),                      # quotients
        quotient(dic12, core_p(dic12, 3)),
    ]


def _orders(G):
    """Order of each id: the length of its class's power-map row."""
    data = conjugacy_classes(G)
    return [len(data.powers[c]) for c in data.class_ids]


class TestOrderMap:
    """Orders by id (the row length of each id's class) against
    ``element_order``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_element_order(self, order_groups, data):
        G = data.draw(st.sampled_from(order_groups))
        i = data.draw(st.integers(0, G.order - 1))
        assert _orders(G)[i] == element_order(G, G.ordered[i])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sylow_order_and_p_elements(self, order_groups, data):
        G = data.draw(st.sampled_from(order_groups))
        p = data.draw(st.sampled_from(sorted(factorint(G.order))))
        S = sylow(G, p)
        assert S.order == _p_part(G.order, p)
        orders = _orders(G)
        assert all(_p_part(orders[i], p) == orders[i] for i in S.ids)

    def test_memoised_on_own_elements(self, s4):
        got = conjugacy_classes(s4)
        assert conjugacy_classes(s4) is got
        ids = element_ids(s4)
        orders = _orders(s4)
        assert set(ids) == set(s4.elements) and len(orders) == s4.order
        assert all(orders[i] == element_order(s4, g) for g, i in ids.items())


@pytest.fixture(scope="module")
def law_groups():
    """Corpus groups of every kind, a quotient and a subgroup view."""
    groups = list(catalog.distinct_corpus(1, 60, 400).values())
    s4 = catalog.sym(4)
    return groups + [quotient(s4, core_p(s4, 2)), sylow(s4, 2).as_group()]


class TestStructureLaws:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_class_equation(self, law_groups, data):
        G = data.draw(st.sampled_from(law_groups))
        sizes = Counter(conjugacy_classes(G).class_ids).values()
        assert sum(sizes) == G.order
        assert all(G.order % n == 0 for n in sizes)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_quotient_order(self, law_groups, data):
        G = data.draw(st.sampled_from(law_groups))
        p = data.draw(st.sampled_from(sorted(factorint(G.order)) or [2]))
        N = data.draw(st.sampled_from([core_p(G, p), derived_subgroup(G)]))
        assert quotient(G, N).order * N.order == G.order

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_product_graph(self, law_groups, data):
        A = data.draw(st.sampled_from(law_groups))
        B = data.draw(st.sampled_from(
            [B for B in law_groups if A.order * B.order <= 2400]))
        assert gk_graph(direct_product(A, B)) == \
            product_graph(gk_graph(A), gk_graph(B))


class TestFitting:
    def test_fitting_s3(self, s3):
        assert fitting(s3).order == 3
        assert fitting_series(s3).length == 2

    def test_fitting_series_s4(self, s4):
        fs = fitting_series(s4)
        assert fs.length == 3
        assert [s.order for s in fs.series] == [1, 4, 12, 24]

    def test_a5_not_solvable(self, a5):
        fs = fitting_series(a5)
        assert fs.length is None
        assert not fs.solvable
        assert not is_solvable(a5)

    def test_trivial_group_length_zero(self):
        assert fitting_series(catalog.cyclic(1)).length == 0

    def test_fitting_is_nilpotent_normal(self, s4):
        F = fitting(s4)
        assert _is_normal(s4, F.ids)
        assert is_nilpotent(F.as_group())

    @pytest.mark.parametrize("build", [
        lambda: catalog.sym(4), catalog.c7_c6, catalog.sl2_3,
        catalog.quaternion8_times_c3, lambda: catalog.dihedral(12),
        lambda: catalog.catalog_entry("twofrob.c").build(),
    ])
    def test_fitting_memoised_and_first_of_series(self, build):
        G = build()
        F = fitting(G)
        assert fitting(G) is F
        fs = fitting_series(G)
        assert fs.solvable
        assert fitting(G) is F
        assert F == fs.series[1]


class TestQuotient:
    def test_s4_mod_klein(self, s4):
        Q = quotient(s4, core_p(s4, 2))
        assert Q.order == 6
        assert not is_abelian(Q)

    def test_trivial_quotients(self, s3):
        whole = SubgroupHandle(s3, frozenset(range(s3.order)))
        assert quotient(s3, whole).order == 1
        triv = SubgroupHandle(s3, frozenset({element_ids(s3)[s3.identity]}))
        assert quotient(s3, triv).order == 6

    def test_c7c6_mod_c7(self, c7c6):
        Q = quotient(c7c6, core_p(c7c6, 7))
        assert Q.order == 6 and is_cyclic(Q)

    def test_order_multiplicative(self, s4):
        N = core_p(s4, 2)
        assert quotient(s4, N).order * N.order == s4.order

    def test_generators_are_the_parents_cosets(self, s4):
        """Generator k of G/N is the coset of G's generator k, the identity
        coset and repeats included."""
        Q = quotient(s4, core_p(s4, 2))
        to_q = Q.origin.to_q
        assert len(Q.generators) == len(s4.generators)
        assert generator_ids(Q) == [to_q[i] for i in generator_ids(s4)]
        # in S3 / A3 the 3-cycle's coset is the identity, and stays
        S3 = catalog.sym(3)
        C2 = quotient(S3, core_p(S3, 3))
        assert C2.generators[1] == C2.identity
        assert is_cyclic(C2) and C2.order == 2

    def test_subgroup_of_another_group(self, s3, s4):
        with pytest.raises(NotNormal, match="does not live in this group"):
            quotient(s4, core_p(s3, 3))

    def test_subgroup_of_an_equal_group(self, s4):
        """N may come from another handle with the same element list: its
        ids are this group's."""
        other = catalog.sym(4)
        Q = quotient(s4, core_p(other, 2))
        R = quotient(s4, core_p(s4, 2))
        assert Q.ordered == R.ordered
        assert Q.origin.to_q == R.origin.to_q

    @pytest.mark.parametrize("p", [2, 3])
    def test_non_normal_subgroup(self, s4, p):
        N = sylow(s4, p)
        assert not _is_normal(s4, N.ids) and fitting(s4).order % N.order
        with pytest.raises(NotNormal, match="not normal"):
            quotient(s4, N)


class TestMinimalNormal:
    def test_s4(self, s4):
        mins = minimal_normal_subgroups(s4)
        assert len(mins) == 1 and mins[0].order == 4

    def test_klein(self):
        V = catalog.elem_abelian(2, 2)
        assert sorted(m.order for m in minimal_normal_subgroups(V)) == [2, 2, 2]

    def test_simple_cyclic(self, c5):
        mins = minimal_normal_subgroups(c5)
        assert len(mins) == 1 and mins[0].order == 5

    def test_nonsolvable_unsupported(self, a5):
        with pytest.raises(NotSolvable):
            minimal_normal_subgroups(a5)

    def test_trivial_groups_have_none(self):
        """A trivial group's F is {1}, which holds no class of prime order,
        so the search finds nothing: built, as a quotient and as a
        product."""
        S3, S1 = catalog.sym(3), catalog.sym(1)
        for G in [S1, quotient(S3, SubgroupHandle(S3, frozenset(range(6)))),
                  direct_product(S1, catalog.sym(1))]:
            assert G.order == 1
            assert minimal_normal_subgroups(G) == [], G.label


class TestPredicates:
    def test_s4(self, s4):
        p = class_predicates(s4)
        assert p["solvable"] and not p["supersolvable"] and not p["metanilpotent"]

    def test_c2_cubed_not_metacyclic(self):
        p = class_predicates(catalog.elem_abelian(2, 3))
        assert p["abelian"] and not p["metacyclic"]

    def test_nilpotent_implies(self, q8):
        p = class_predicates(q8)
        assert p["nilpotent"] and p["supersolvable"] and p["metanilpotent"]

    def test_s3_metacyclic(self, s3):
        p = class_predicates(s3)
        assert p["metacyclic"] and p["metabelian"] and p["supersolvable"]

    def test_derived_subgroup_s4(self, s4):
        assert derived_subgroup(s4).order == 12

    def test_metabelian_builds_no_span(self, monkeypatch, tmp_path):
        """The metabelian test reads the commutators' classes and grows no
        subgroup: no ``groups.Span`` is built, G' included.  The groups are
        built before the spy is installed, as a semidirect product spans its
        kernel generators when it is built."""
        fresh = [catalog.sym(4), catalog.alt(4), catalog.c7_c6(),
                 catalog.sl2_3(), catalog.catalog_entry("fig3.e").build(),
                 _gl2_5(tmp_path)]
        built = []
        init = groups.Span.__init__
        monkeypatch.setattr(groups.Span, "__init__", lambda self, G:
                            built.append(G.label) or init(self, G))
        verdicts = {G.label: is_metabelian(G) for G in fresh}
        assert built == []
        assert verdicts == {"S4": False, "A4": True, "C7 x| C6": True,
                            "SL(2,3)": False, "C5^2 x| Q8": False,
                            "gl2_5": False}


def _gl2_5(tmp_path):
    """GL(2,5), 480 elements, from a ``matgrp`` recipe."""
    spec = tmp_path / "gl2_5.json"
    spec.write_text(json.dumps({"groups": {"gl2_5": {
        "type": "matgrp", "p": 5, "gens": [[[2, 0], [0, 1]],
                                           [[4, 1], [4, 0]]]}}}))
    return cli.load_spec(str(spec))["gl2_5"]


NON_SOLVABLE = {
    "S5": lambda tmp_path: catalog.sym(5),
    "A5 x C3": lambda tmp_path: direct_product(catalog.alt(5),
                                               catalog.cyclic(3)),
    "GL(2,5)": _gl2_5,
}


def _ungated(G) -> dict:
    """``class_predicates`` with each predicate called on its own."""
    fs = fitting_series(G)
    return {"solvable": fs.solvable, "nilpotent": is_nilpotent(G),
            "abelian": is_abelian(G), "cyclic": is_cyclic(G),
            "metacyclic": is_metacyclic(G), "metabelian": is_metabelian(G),
            "supersolvable": is_supersolvable(G),
            "metanilpotent": fs.solvable and fs.length <= 2}


class TestSolvableGate:
    """A metacyclic, metabelian or supersolvable group is solvable, so
    ``class_predicates`` asks none of the three of a non-solvable group."""

    @pytest.mark.parametrize("name", NON_SOLVABLE)
    def test_builds_no_quotient_and_no_derived_subgroup(self, monkeypatch,
                                                        tmp_path, name):
        G = NON_SOLVABLE[name](tmp_path)
        assert not fitting_series(G).solvable  # builds quotients of its own
        calls = []
        for fn in ("quotient", "_commutators"):
            real = getattr(structure, fn)
            monkeypatch.setattr(structure, fn, lambda *a, real=real, fn=fn:
                                calls.append(fn) or real(*a))
        p = class_predicates(G)
        assert calls == []
        assert not (p["metacyclic"] or p["metabelian"] or p["supersolvable"])

    def test_matches_the_ungated_calls(self, tmp_path):
        groups = [*catalog.distinct_corpus(1, 200, 2000).values(),
                  *(entry.build() for entry in catalog.catalog()),
                  *(build(tmp_path) for build in NON_SOLVABLE.values())]
        non_solvable = 0
        for G in groups:
            got = class_predicates(G)
            assert got == _ungated(G), G.label
            non_solvable += not got["solvable"]
        assert non_solvable >= len(NON_SOLVABLE), non_solvable


class TestProductPowerRows:
    """A direct product's power map, least ids, sizes and verdicts, each
    read as a sequence before any other read of it, against the same field
    composed at once."""

    @pytest.mark.parametrize("build", [
        lambda: direct_product(catalog.cyclic(2), catalog.sym(3)),
        lambda: direct_product(
            direct_product(catalog.cyclic(2), catalog.sym(3)),
            catalog.quaternion8()),
    ], ids=["C2xS3", "C2xS3xQ8"])
    def test_slices_index_and_iterate(self, build):
        for name in ("powers", "rep_ids", "sizes", "per_class"):
            seq = _fresh_field(build(), name)
            eager = (_eager_powers(build()) if name == "powers"
                     else _eager_fields(build())[name])
            c = len(seq) // 2
            assert seq[c] == eager[c] and _composed_items(seq) == [c], name
            assert seq[0:3] == eager[0:3] and type(seq[0:3]) is tuple, name
            assert seq[::-2] == eager[::-2] and seq[len(seq):] == (), name
            assert seq[-1] == eager[-1] and seq[-len(seq)] == eager[0], name
            assert list(seq) == list(eager) and len(seq) == len(eager), name
            with pytest.raises(IndexError):
                seq[len(seq)]
            with pytest.raises(IndexError):
                seq[-len(seq) - 1]


def _fresh_field(P, name: str):
    """One field of P's class data or report, read with none of its items
    composed: the report composes power-map rows, but no verdict of
    per_class."""
    if name == "per_class":
        return rationality_report(P).per_class
    return getattr(conjugacy_classes(P), name)


def _eager_fields(P) -> dict:
    """rep_ids, sizes and per_class of P = A x B composed at once, as the
    factors' data were composed before they became lazy."""
    A, B = direct_factors(P)
    dg, dh = conjugacy_classes(A), conjugacy_classes(B)
    m = B.order
    ra, rb = rationality_report(A), rationality_report(B)
    powers = conjugacy_classes(P).powers

    def key_indices(r):
        keys, index, firsts = {}, [], []
        for c, v in enumerate(r.per_class):
            k = keys.setdefault((v.order, v.iota_exponents), len(keys))
            if k == len(firsts):
                firsts.append(c)
            index.append(k)
        return index, firsts
    (ia, fa), (ib, fb) = key_indices(ra), key_indices(rb)
    kb, nb = len(rb.per_class), len(fb)
    verdicts = [_class_verdict(c, powers[c])
                for a in fa for c in (a * kb + b for b in fb)]
    return {"rep_ids": tuple(i * m + j for i in dg.rep_ids
                             for j in dh.rep_ids),
            "sizes": tuple(x * y for x in dg.sizes for y in dh.sizes),
            "per_class": tuple([verdicts[i * nb + j]
                                for i in ia for j in ib])}


def _lazy_fields(P) -> dict:
    data = conjugacy_classes(P)
    return {"rep_ids": data.rep_ids, "sizes": data.sizes,
            "per_class": rationality_report(P).per_class}


def _composed_items(seq) -> list[int]:
    """The indices of the items seq has composed; its slots are None until
    its first read."""
    return [c for c, x in enumerate(vars(seq)["_items"] or ())
            if x is not None]


def _composed(seq) -> bool:
    """Has seq composed some item?  A tuple always has."""
    return isinstance(seq, tuple) or bool(_composed_items(seq))


def _product_quotient():
    """(S4/V4) x (S4/V4), the direct product of the factors' quotients
    that ``structure._factor_quotients`` gives."""
    P = direct_product(catalog.sym(4), catalog.sym(4))
    return quotient(P, core_p(P, 2))


class TestLazyProductData:
    """A direct product's least ids, sizes and verdicts are composed on
    their first read, and read as the tuples composed at once and as the
    generic orbit path's."""

    def test_builds_once_on_the_first_read_of_an_item(self):
        calls = []
        seq = _LazyTuple(3, lambda c: calls.append(c) or (5, 6, 5)[c])
        assert len(seq) == 3 and calls == []
        assert seq[0] == 5 and seq[-1] == 5 and seq[1:] == (6, 5)
        assert calls == [0, 2, 1]  # each item composed on its first read
        assert type(seq[:2]) is tuple and list(seq) == [5, 6, 5]
        assert seq.count(5) == 2 and 6 in seq and seq.index(6) == 1
        assert seq == (5, 6, 5) and (5, 6, 5) == seq and seq != (5, 6)
        assert seq == _LazyTuple(3, lambda c: (5, 6, 5)[c])
        assert hash(seq) == hash((5, 6, 5)) and repr(seq) == "(5, 6, 5)"
        assert calls == [0, 2, 1]  # and never again
        with pytest.raises(IndexError):
            seq[3]

    @pytest.mark.parametrize("build", [
        lambda: direct_product(
            direct_product(catalog.cyclic(2), catalog.sym(3)),
            catalog.quaternion8()),
        lambda: direct_product(catalog.c7_c6(), catalog.sym(3)),
        _product_quotient,
    ], ids=["C2xS3xQ8", "C7:C6xS3", "product-quotient"])
    def test_matches_eager_and_generic_paths(self, build):
        P = build()
        assert direct_factors(P)
        lazy, eager = _lazy_fields(P), _eager_fields(build())
        R = replace(P, listed=P.ordered, origin=None)
        generic = {"rep_ids": conjugacy_classes(R).rep_ids,
                   "sizes": conjugacy_classes(R).sizes,
                   "per_class": rationality_report(R).per_class}
        for name, seq in lazy.items():
            want = eager[name]
            assert type(generic[name]) is tuple
            assert len(seq) == len(want) and not _composed(seq), name
            assert seq[0] == want[0] and seq[-1] == want[-1], name
            assert seq[1:4] == want[1:4] and type(seq[1:4]) is tuple, name
            assert list(seq) == list(want), name
            assert seq.count(want[-1]) == want.count(want[-1]), name
            assert seq == want and want == seq, name
            assert seq == generic[name] and generic[name] == seq, name

    @pytest.mark.parametrize("build", [
        lambda: direct_product(catalog.cyclic(2), catalog.sym(3)),
        lambda: direct_product(
            direct_product(catalog.cyclic(2), catalog.sym(3)),
            catalog.quaternion8()),
    ], ids=["C2xS3", "C2xS3xQ8"])
    def test_hash_and_repr_match_the_generic_path(self, build):
        """A fresh product's class data hashes and prints as the generic
        orbit path's, which holds plain tuples."""
        P = build()
        lazy = conjugacy_classes(P)
        generic = conjugacy_classes(replace(P, listed=P.ordered, origin=None))
        assert type(generic.powers) is tuple
        assert hash(lazy) == hash(generic) and repr(lazy) == repr(generic)
        assert lazy == generic

    @pytest.mark.parametrize("build", [
        lambda: (catalog.sym(3), catalog.quaternion8()),
        lambda: (catalog.c7_c6(), catalog.dicyclic12()),
        lambda: (direct_product(catalog.cyclic(2), catalog.sym(3)),
                 catalog.alt(4)),
    ], ids=["S3xQ8", "C7:C6xDic12", "(C2xS3)xA4"])
    def test_cut_verdict_and_graph_compose_no_class_pair(self, build):
        """is_cut_group and gk_graph of a fresh A x B read the lengths of
        its per-class-pair data, k(A) k(B), and compose none of it."""
        A, B = build()
        P = direct_product(A, B)
        is_cut_group(P)
        gk_graph(P)
        lazy = _lazy_fields(P)
        k = len(conjugacy_classes(A).rep_ids) * len(
            conjugacy_classes(B).rep_ids)
        assert [name for name, seq in lazy.items() if _composed(seq)] == []
        assert all(len(seq) == k for seq in lazy.values())
        assert not any(map(_composed, lazy.values()))  # len composes none

    def test_product_verdicts_compose_no_factor_verdict(self):
        """A product's report and the product-cut predicate read a factor
        product's distinct verdicts (``firsts``), never its per_class."""
        A = direct_product(catalog.cyclic(2), catalog.sym(3))
        per_class = rationality_report(A).per_class
        for B in (catalog.quaternion8(), catalog.alt(4)):
            cut = is_cut_group(direct_product(A, B))
            assert product_cut_predicate(A, B) == cut, B.label
            assert _composed_items(per_class) == [], B.label

    @pytest.mark.parametrize("source", ["corpus", "catalog", "quotient"])
    def test_firsts_and_verdicts_match_the_generic_path(self, source):
        """A product's firsts maps each distinct verdict of its per_class to
        the first class that has it, in class order, and its verdicts are
        the generic orbit path's."""
        if source == "corpus":
            products = [G for G in catalog.distinct_corpus(
                1, 200, 2000).values() if direct_factors(G)]
        elif source == "catalog":
            products = [G for G in (entry.build()
                                    for entry in catalog.catalog())
                        if direct_factors(G)]
        else:
            products = [_product_quotient()]
        assert products
        for P in products:
            got = rationality_report(P)
            want = rationality_report(replace(P, listed=P.ordered,
                                              origin=None))
            assert type(want.per_class) is tuple, P.label
            for r in (got, want):
                assert list(r.firsts.items()) == _first_scan(r.per_class), \
                    P.label
            assert got.per_class == want.per_class, P.label
            assert (got.is_cut, got.is_rational, got.non_rational_orders) \
                == (want.is_cut, want.is_rational,
                    want.non_rational_orders), P.label


def _first_scan(per_class) -> list:
    """[(verdict, first class with it)], each distinct verdict once, in
    class order."""
    seen, out = set(), []
    for c, v in enumerate(per_class):
        if v not in seen:
            seen.add(v)
            out.append((v, c))
    return out
