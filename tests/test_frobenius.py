from math import gcd

import pytest

from gklab import catalog, structure
from gklab.frobenius import (FROBENIUS, NONE_KIND, TWO_FROBENIUS, NotFrobenius,
                             fingerprint, frobenius_decomposition,
                             frobenius_kind, is_frobenius, is_two_frobenius,
                             match_frobenius_cut_family,
                             two_frobenius_decomposition)
from gklab.groups import element_order, subgroup_as_group
from gklab.structure import fitting, fitting_series, is_cyclic, quotient
from gklab.verify import _two_frobenius_consequences


def _reference_two_frobenius(G):
    """The 2-Frobenius construction before it read the Fitting series:
    F_1 = F(G), Q1 = G/F_1, F_2 the element preimage of Q1's Frobenius
    kernel, top = Q1 / kernel.  Returns (F_1, F_2, top, kernel)."""
    F1 = fitting(G)
    Q1 = quotient(G, F1)
    kernel = frobenius_decomposition(Q1).kernel
    project = {}  # G -> least-id element of its coset of F_1
    for g in G.ordered:
        if g not in project:
            for x in F1.elements:
                project[G.mult(g, x)] = g
    f2 = frozenset(g for g in G.elements if project[g] in kernel.elements)
    return F1.elements, f2, quotient(Q1, kernel), kernel


class TestFrobenius:
    def test_s3(self, s3):
        dec = frobenius_decomposition(s3)
        assert dec.kernel.order == 3 and quotient(s3, dec.kernel).order == 2

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
        dec = frobenius_decomposition(G)
        assert dec.kernel.order == 25
        comp = quotient(G, dec.kernel)
        assert fingerprint(comp) == fingerprint(catalog.quaternion8())

    def test_decomposition_invariants(self, c7c6):
        K = frobenius_decomposition(c7c6).kernel
        comp = quotient(c7c6, K)
        assert structure._is_normal(c7c6, K.ids)
        assert K.order * comp.order == c7c6.order
        assert gcd(K.order, comp.order) == 1
        for g in c7c6.elements:
            n = element_order(c7c6, g)
            assert K.order % n == 0 or comp.order % n == 0

    def test_odd_order_complement_search(self, c7c3):
        dec = frobenius_decomposition(c7c3)
        comp = quotient(c7c3, dec.kernel)
        assert dec.kernel.order == 7
        assert fingerprint(comp) == fingerprint(catalog.cyclic(3))


class TestTwoFrobenius:
    def test_s4(self, s4):
        dec = two_frobenius_decomposition(s4)
        assert dec.f1.order == 4 and dec.f2.order == 12
        assert all(_two_frobenius_consequences(s4).values())

    def test_twofrob_l_middle(self):
        G = catalog.catalog_entry("twofrob.l").build()
        dec = two_frobenius_decomposition(G)
        assert dec.f2.order == 448
        assert all(_two_frobenius_consequences(G).values())
        assert gcd(dec.f2.order // dec.f1.order, G.order // dec.f2.order) == 1
        assert gcd(dec.f2.order // dec.f1.order, dec.f1.order) == 1

    @pytest.mark.parametrize("name", ["twofrob.c", "twofrob.e", "twofrob.l",
                                      "S4"])
    def test_matches_reference_construction(self, name):
        G = (catalog.sym(4) if name == "S4"
             else catalog.catalog_entry(name).build())
        dec = two_frobenius_decomposition(G)
        f1, f2, top, kernel = _reference_two_frobenius(G)
        assert dec.f1.elements == f1 and dec.f2.elements == f2
        Q1, Q2 = fitting_series(G).quotients
        assert Q2.order == top.order
        assert frobenius_decomposition(Q1).kernel.order == kernel.order
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
