import pytest

from gklab import catalog
from gklab import elements as el
from gklab.frobenius import fingerprint
from gklab.groups import (DEFAULT_CAP, ActionNotWellDefined, CapExceeded,
                          NotAnAutomorphism, NotMember, default_cap,
                          direct_product, element_order,
                          element_orders_multiset, enumerate_group,
                          semidirect_product, subgroup_as_group)


class TestEnumerate:
    def test_s3_order(self, s3):
        assert s3.order == 6

    def test_trivial(self):
        G = enumerate_group([el.perm_identity(3)])
        assert G.order == 1

    def test_companion_matrices_mod_2_give_order_42(self, c7c6):
        mats = catalog.companion_matrices()
        A = el.mat(2, mats["A"])
        B = el.mat(2, mats["B"])
        G = enumerate_group([A, B], "mat42")
        assert G.order == 42
        assert fingerprint(G) == fingerprint(c7c6)

    def test_default_cap_from_env(self, monkeypatch):
        monkeypatch.delenv("GKLAB_MAX_ORDER", raising=False)
        assert default_cap() == DEFAULT_CAP
        monkeypatch.setenv("GKLAB_MAX_ORDER", "50")
        assert default_cap() == 50
        for bad in ("abc", "0", "-5", ""):
            monkeypatch.setenv("GKLAB_MAX_ORDER", bad)
            with pytest.raises(ValueError, match="GKLAB_MAX_ORDER"):
                default_cap()

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            enumerate_group([el.perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]]),
                             el.perm_from_cycles(7, [[1, 2]])], cap=100)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(el.IncompatibleKinds):
            enumerate_group([el.perm_identity(2), el.mat_identity(3, 2)])

    def test_pair_generators_rejected(self):
        p = el.pair(el.perm_identity(2), el.perm_identity(2))
        with pytest.raises(el.IncompatibleKinds):
            enumerate_group([p])

    def test_reenumeration_from_full_element_set(self, s3):
        again = enumerate_group(sorted(s3.elements), "S3-again")
        assert again.elements == s3.elements


class TestElementOrder:
    def test_identity(self, s3):
        assert element_order(s3, s3.identity) == 1

    def test_seven_cycle_in_c7c6(self, c7c6, seven_cycle):
        assert element_order(c7c6, seven_cycle) == 7

    def test_six_cycle(self, c7c6):
        g = el.perm_from_cycles(7, [[1, 3, 2, 6, 4, 5]])
        assert element_order(c7c6, g) == 6

    def test_not_member(self, s3):
        with pytest.raises(NotMember):
            element_order(s3, el.perm_identity(4))

    def test_orders_divide_group_order(self, s4):
        for n, count in element_orders_multiset(s4).items():
            assert s4.order % n == 0
        assert sum(element_orders_multiset(s4).values()) == 24


class TestDirectProduct:
    def test_order_multiplicative(self, s3):
        G = direct_product(s3, catalog.cyclic(2))
        assert G.order == 12

    def test_with_trivial(self, s3):
        G = direct_product(s3, catalog.cyclic(1))
        assert G.order == 6

    def test_figure_p_order(self, c7c3):
        e = catalog.catalog_entry("fig3.e").build()
        assert direct_product(e, c7c3).order == 4200


class TestSemidirect:
    def test_s3_as_c3_by_c2(self, s3):
        N = catalog.cyclic(3)
        H = catalog.cyclic(2)
        inv_gen = N.inv(N.generators[0])
        G = semidirect_product(N, H, [[inv_gen]])
        assert G.order == 6
        assert fingerprint(G) == fingerprint(s3)

    def test_trivial_action_labeled_direct(self):
        N = catalog.cyclic(3)
        H = catalog.cyclic(2)
        G = semidirect_product(N, H, [[N.generators[0]]])
        assert " x| " not in G.label and " x " in G.label
        assert G.order == 6

    def test_non_automorphism_rejected(self):
        N = catalog.cyclic(4)
        H = catalog.cyclic(2)
        # squaring is not injective on C4
        sq = N.mult(N.generators[0], N.generators[0])
        with pytest.raises(NotAnAutomorphism):
            semidirect_product(N, H, [[sq]])

    def test_relation_violation_rejected(self):
        # inversion on C5 has order 2; C4 acting through it alone is fine,
        # but an order-4 automorphism assigned to an involution is not.
        N = catalog.cyclic(5)
        H = catalog.cyclic(2)
        doubling = N.mult(N.generators[0], N.generators[0])  # order 4 in Aut(C5)
        with pytest.raises(ActionNotWellDefined):
            semidirect_product(N, H, [[doubling]])

    def test_q8_on_f5_squared(self):
        G = catalog.catalog_entry("fig3.e").build()
        assert G.order == 200


class TestSubgroupView:
    def test_subgroup_as_group(self, s4):
        klein = {g for g in s4.elements
                 if len(el.perm_to_cycles(g)) == 2 and
                 all(len(c) == 2 for c in el.perm_to_cycles(g))} | {s4.identity}
        V = subgroup_as_group(s4, klein, "V4")
        assert V.order == 4
