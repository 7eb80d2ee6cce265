from collections import Counter
from dataclasses import dataclass
from math import gcd

import pytest
from sympy import factorint

from gklab import catalog, structure
from gklab.frobenius import (FROBENIUS, NONE_KIND, TWO_FROBENIUS, NotFrobenius,
                             _REFERENCE_BUILDS, _kernel_reason,
                             _reference_fingerprint, fingerprint,
                             frobenius_decomposition, frobenius_kind,
                             is_frobenius, is_two_frobenius,
                             match_frobenius_cut_family,
                             two_frobenius_decomposition)
from gklab.groups import element_order, subgroup_as_group
from gklab.structure import (InvariantFailed, SubgroupHandle,
                             conjugacy_classes, fitting, fitting_series,
                             is_cyclic, quotient)
from gklab.verify import _two_frobenius_consequences


def _reference_two_frobenius(G):
    """The 2-Frobenius construction before it read the Fitting series:
    F_1 = F(G), Q1 = G/F_1, F_2 the element preimage of Q1's Frobenius
    kernel, top = Q1 / kernel.  Returns (F_1, F_2, top, kernel)."""
    F1 = fitting(G)
    Q1 = quotient(G, F1)
    kernel = frobenius_decomposition(Q1)
    project = {}  # G -> least-id element of its coset of F_1
    for g in G.ordered:
        if g not in project:
            for x in F1.elements:
                project[G.mult(g, x)] = g
    f2 = frozenset(g for g in G.elements if project[g] in kernel.elements)
    return F1.elements, f2, quotient(Q1, kernel), kernel


class TestFrobenius:
    def test_s3(self, s3):
        K = frobenius_decomposition(s3)
        assert K.order == 3 and quotient(s3, K).order == 2

    def test_q8_is_not(self, q8):
        with pytest.raises(NotFrobenius):
            frobenius_decomposition(q8)
        assert frobenius_kind(q8) == NONE_KIND

    def test_not_frobenius_fresh_per_call(self, q8):
        raised = []
        for _ in range(2):
            with pytest.raises(NotFrobenius) as info:
                frobenius_decomposition(q8)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])

    def test_c5sq_q8(self):
        G = catalog.catalog_entry("fig3.e").build()
        K = frobenius_decomposition(G)
        assert K.order == 25
        comp = quotient(G, K)
        assert fingerprint(comp) == fingerprint(catalog.quaternion8())

    def test_decomposition_invariants(self, c7c6):
        K = frobenius_decomposition(c7c6)
        comp = quotient(c7c6, K)
        assert structure._is_normal(c7c6, K.ids)
        assert K.order * comp.order == c7c6.order
        assert gcd(K.order, comp.order) == 1
        for g in c7c6.elements:
            n = element_order(c7c6, g)
            assert K.order % n == 0 or comp.order % n == 0

    def test_odd_order_complement_search(self, c7c3):
        K = frobenius_decomposition(c7c3)
        comp = quotient(c7c3, K)
        assert K.order == 7
        assert fingerprint(comp) == fingerprint(catalog.cyclic(3))


class TestTwoFrobenius:
    def test_s4(self, s4):
        F1, F2 = two_frobenius_decomposition(s4)
        assert F1.order == 4 and F2.order == 12
        assert all(_two_frobenius_consequences(s4).values())

    def test_twofrob_l_middle(self):
        G = catalog.catalog_entry("twofrob.l").build()
        F1, F2 = two_frobenius_decomposition(G)
        assert F2.order == 448
        assert all(_two_frobenius_consequences(G).values())
        assert gcd(F2.order // F1.order, G.order // F2.order) == 1
        assert gcd(F2.order // F1.order, F1.order) == 1

    @pytest.mark.parametrize("name", ["twofrob.c", "twofrob.e", "twofrob.l",
                                      "S4"])
    def test_matches_reference_construction(self, name):
        G = (catalog.sym(4) if name == "S4"
             else catalog.catalog_entry(name).build())
        F1, F2 = two_frobenius_decomposition(G)
        f1, f2, top, kernel = _reference_two_frobenius(G)
        assert F1.elements == f1 and F2.elements == f2
        Q1, Q2 = fitting_series(G).quotients
        assert Q2.order == top.order
        assert frobenius_decomposition(Q1).order == kernel.order
        assert _two_frobenius_consequences(G) == {
            "G/F2 cyclic": is_cyclic(top),
            "F2/F1 cyclic of odd order": (is_cyclic(kernel.as_group())
                                          and kernel.order % 2 == 1),
            "F1 non-cyclic": not is_cyclic(subgroup_as_group(G, f1)),
        }

    def test_s3_is_not(self, s3):
        assert is_frobenius(s3)
        assert not is_two_frobenius(s3)
        assert frobenius_kind(s3) == FROBENIUS

    def test_kinds_exclusive(self, s4):
        assert frobenius_kind(s4) == TWO_FROBENIUS
        assert not is_frobenius(s4)

    def test_detection_builds_no_subgroup_view(self, monkeypatch):
        # F_2 is tested on G's own classes; F_1, the kernel of G/F_1 and the
        # classes of G/F_2 belong to the catalog check of the consequences,
        # not to the verdict
        G = catalog.catalog_entry("twofrob.c").build()
        views = []
        view = structure.subgroup_view

        def counting_view(parent, members, label="", *args, **kwargs):
            views.append(label)
            return view(parent, members, label, *args, **kwargs)

        monkeypatch.setattr(structure, "subgroup_view", counting_view)
        assert is_two_frobenius(G)
        assert views == []


class TestFamilyMatch:
    def test_c5sq_q8_tag(self):
        G = catalog.catalog_entry("fig3.e").build()
        assert match_frobenius_cut_family(G) == "C5^2 x| Q8"

    def test_s3_tag(self, s3):
        assert match_frobenius_cut_family(s3) == "C3^n x| C2"

    def test_c7c3_item_three(self, c7c3):
        assert match_frobenius_cut_family(c7c3) == "unmatched-but-consistent"

    def test_non_frobenius_none(self, q8):
        assert match_frobenius_cut_family(q8) is None


class TestFingerprint:
    def test_distinguishes_order_24(self, s4):
        assert fingerprint(catalog.sl2_3()) != fingerprint(s4)
        assert fingerprint(catalog.sl2_3()) != fingerprint(catalog.quaternion8_times_c3())

    def test_reference_values(self, q8):
        fp = fingerprint(q8)
        assert fp.order == 8 and fp.num_classes == 5 and fp.center_order == 2

    def test_dicyclic12(self):
        fp = fingerprint(catalog.dicyclic12())
        assert fp.order == 12 and fp.center_order == 2 and not fp.abelian


# The Frobenius layer as it ran when its results were records, copied
# without the memo: the Frobenius kernel and (F_1, F_2) each wrapped in a
# record of its own, or the reason G is not Frobenius or 2-Frobenius.
@dataclass(frozen=True)
class _Decomposition:
    kernel: SubgroupHandle


@dataclass(frozen=True)
class _TwoDecomposition:
    f1: SubgroupHandle
    f2: SubgroupHandle


def _record_decompose(G):
    F = fitting(G)
    if F.order in (1, G.order):
        return f"{G.label}: Fitting subgroup is trivial or all of G"
    if reason := _kernel_reason(G, F, range(G.order), G.label):
        return reason
    data = conjugacy_classes(G)
    if not any(size == F.order and rep not in F.ids
               for rep, size in zip(data.rep_ids, data.sizes)):
        raise InvariantFailed(f"no class of size {F.order} in {G.label}")
    return _Decomposition(F)


def _record_two_frobenius(G):
    fs = fitting_series(G)
    if not fs.solvable or fs.length != 3:
        return f"{G.label}: Fitting length is not 3"
    _, F1, F2, _ = fs.series
    if isinstance(reason := _record_decompose(fs.quotients[0]), str):
        return reason
    return (_kernel_reason(G, F1, F2.ids, f"{G.label}-F2")
            or _TwoDecomposition(F1, F2))


def _record_kind(G):
    if not isinstance(_record_decompose(G), str):
        return FROBENIUS
    if not isinstance(_record_two_frobenius(G), str):
        return TWO_FROBENIUS
    return NONE_KIND


def _record_family(G):
    dec = _record_decompose(G)
    if isinstance(dec, str):
        return None
    K = dec.kernel
    kfact = factorint(K.order)
    if len(kfact) != 1:
        return None
    [(p, n)] = kfact.items()
    data, m = conjugacy_classes(G), G.order // K.order
    if any(len(row) != p or size != m for rep, size, row
           in zip(data.rep_ids, data.sizes, data.powers)
           if rep != 0 and rep in K.ids):
        return None
    cf = fingerprint(quotient(G, K))
    name = next((nm for nm in _REFERENCE_BUILDS
                 if _reference_fingerprint(nm) == cf), None)
    if name is None:
        return None
    table = {
        (3, "C2"): "C3^n x| C2",
        (3, "C4"): "C3^2n x| C4" if n % 2 == 0 else None,
        (3, "Q8"): "C3^2n x| Q8" if n % 2 == 0 else None,
        (5, "C4"): "C5^n x| C4",
        (5, "Q8"): "C5^2 x| Q8" if n == 2 else None,
        (5, "C3:C4"): "C5^2 x| (C3 x| C4)" if n == 2 else None,
        (5, "SL(2,3)"): "C5^2 x| SL(2,3)" if n == 2 else None,
        (7, "C6"): "C7^n x| C6",
        (7, "Q8xC3"): "C7^2n x| (Q8 x C3)" if n % 2 == 0 else None,
        (7, "SL(2,3)"): "C7^2 x| SL(2,3)" if n == 2 else None,
    }
    family = table.get((p, name))
    if family is not None:
        return family
    return "unmatched-but-consistent" if name == "C3" else None


def _raised(decompose, G):
    with pytest.raises(NotFrobenius) as info:
        decompose(G)
    return str(info.value)


def test_results_are_the_fitting_terms_the_records_held():
    """On the catalog, the family sweep and the distinct corpus, each built
    fresh: the Frobenius kernel is F(G) itself and the 2-Frobenius pair is
    the series' (F_1, F_2), as the records held them; a group that is
    neither raises with the record code's reason; the kind and the family
    match are the record code's."""
    pool = [*(entry.build() for entry in catalog.catalog()),
            *(build() for _, _, build in catalog.frobenius_family_sweep()),
            *catalog.distinct_corpus(1, 200, 2000).values()]
    kinds = []
    for G in pool:
        dec, two = _record_decompose(G), _record_two_frobenius(G)
        if isinstance(dec, str):
            assert _raised(frobenius_decomposition, G) == dec, G.label
        else:
            assert frobenius_decomposition(G) is fitting(G), G.label
            assert frobenius_decomposition(G) == dec.kernel, G.label
        if isinstance(two, str):
            assert _raised(two_frobenius_decomposition, G) == two, G.label
        else:
            got = two_frobenius_decomposition(G)
            assert got == fitting_series(G).series[1:3], G.label
            assert got == (two.f1, two.f2), G.label
        kinds.append(frobenius_kind(G))
        assert kinds[-1] == _record_kind(G), G.label
        assert match_frobenius_cut_family(G) == _record_family(G), G.label
    counts = Counter(kinds)
    assert min(counts[k] for k in (FROBENIUS, TWO_FROBENIUS, NONE_KIND)) >= 5
