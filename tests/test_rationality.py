import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime

from gklab import catalog
from gklab.groups import NotMember, direct_product, element_order
from gklab.rationality import (INVERSE_SEMIRATIONAL, NEITHER, RATIONAL,
                               PreconditionNotCut, class_iota_exponents,
                               cut_oracle_via_bg, element_verdict,
                               is_cut_group, is_rational_group,
                               product_cut_predicate, rationality_report,
                               scanned_iota_exponents)
from gklab.structure import (centralizer, class_representatives,
                             conjugacy_classes, normalizer_of_cyclic)


def order_rep(G, n):
    for rep in class_representatives(G):
        if element_order(G, rep) == n:
            return rep
    raise AssertionError(f"no element of order {n}")


def bg_order(G, g):
    """|B_G(g)| from the verdict, checked against the element scans
    |N_G(<g>)| / |C_G(g)|."""
    got = element_verdict(G, g).bg_order
    assert got == normalizer_of_cyclic(G, g).order // centralizer(G, g).order
    return got


class TestBgOrder:
    def test_order_5_in_c5_c4(self):
        G = catalog.vector_semidirect(5, 1, [[[2]]], "C5 x| C4")
        assert bg_order(G, order_rep(G, 5)) == 4

    def test_order_7_in_c7c3(self, c7c3, seven_cycle):
        assert bg_order(c7c3, seven_cycle) == 3

    def test_identity(self, s3):
        assert bg_order(s3, s3.identity) == 1

    def test_not_member(self, s3, seven_cycle):
        for f in (element_verdict, class_iota_exponents):
            with pytest.raises(NotMember):
                f(s3, seven_cycle)


class TestElementVerdicts:
    def test_small_orders_rational(self, s4):
        for n in (1, 2):
            assert element_verdict(s4, order_rep(s4, n)).verdict == RATIONAL

    def test_c3_generator_isr_only(self):
        G = catalog.cyclic(3)
        g = G.generators[0]
        assert element_verdict(G, g).verdict == INVERSE_SEMIRATIONAL

    def test_c5_generator_neither(self, c5):
        g = c5.generators[0]
        assert element_verdict(c5, g).verdict == NEITHER

    def test_verdict_constant_on_class(self, s4):
        data, reps = conjugacy_classes(s4), class_representatives(s4)
        for x, c in zip(s4.ordered, data.class_ids):
            assert (element_verdict(s4, x).verdict
                    == element_verdict(s4, reps[c]).verdict)

    def test_bg_divides_phi(self, c7c6):
        from sympy import totient
        rep = rationality_report(c7c6)
        for v in rep.per_class:
            assert int(totient(v.order)) % v.bg_order == 0


class TestGroupVerdicts:
    def test_s3_q8_rational(self, s3, q8):
        assert is_rational_group(s3) and is_rational_group(q8)

    def test_c5sq_q8_rational(self):
        assert is_rational_group(catalog.catalog_entry("fig3.e").build())

    def test_c7c6_cut_not_rational(self, c7c6):
        assert is_cut_group(c7c6) and not is_rational_group(c7c6)

    def test_c5_not_cut(self, c5):
        assert not is_cut_group(c5)


class TestDualOracle:
    def test_iota_exponents_c7c3(self, c7c3, seven_cycle):
        assert class_iota_exponents(c7c3, seven_cycle) == {1, 2, 4}
        assert scanned_iota_exponents(c7c3, seven_cycle) == {1, 2, 4}

    def test_oracle_matches(self, s3, q8, c5, c7c3, c7c6, a5):
        for G in (s3, q8, c5, c7c3, c7c6, a5):
            assert cut_oracle_via_bg(G) == is_cut_group(G)

    def test_c5_fails_oracle(self, c5):
        assert not cut_oracle_via_bg(c5)


class TestProductPredicate:
    def test_rational_times_cut(self, s3, c7c6):
        assert product_cut_predicate(s3, c7c6)
        assert is_cut_group(direct_product(s3, c7c6))

    def test_c3_squared(self):
        C3 = catalog.cyclic(3)
        assert product_cut_predicate(C3, C3)
        assert is_cut_group(direct_product(C3, C3))

    def test_gcd_one_fails(self, c7c3):
        G = catalog.vector_semidirect(5, 1, [[[2]]], "C5 x| C4")
        assert rationality_report(G).non_rational_orders == {4}
        assert rationality_report(c7c3).non_rational_orders == {3, 7}
        assert not product_cut_predicate(G, c7c3)
        assert not is_cut_group(direct_product(G, c7c3))

    def test_precondition(self, c5, s3):
        with pytest.raises(PreconditionNotCut):
            product_cut_predicate(c5, s3)

    def test_c6_q8_squared(self):
        # order-12 classes with iota image {1, 7} on both sides: a gcd of 12
        # does not make the product non-cut
        A = direct_product(catalog.cyclic(6), catalog.quaternion8())
        assert product_cut_predicate(A, A)
        assert is_cut_group(direct_product(A, A))

    @pytest.mark.parametrize("a, b, cut", [
        ("Q8 x C3", "Q8 x C3", True),
        ("S3 x C4", "S3 x C4", True),
        ("D4 x C6", "Q8 x C3", True),
        ("C4 x C3 x| C4", "S3 x C4", True),
        ("C4 x C3 x| C4", "Q8 x C3", False),
    ])
    def test_order_12_pairs(self, cut_corpus, a, b, cut):
        A, B = cut_corpus[a], cut_corpus[b]
        assert product_cut_predicate(A, B) == cut
        assert is_cut_group(direct_product(A, B)) == cut

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_direct_check(self, cut_corpus, data):
        labels = sorted(cut_corpus)
        a = cut_corpus[data.draw(st.sampled_from(labels))]
        small = [x for x in labels if a.order * cut_corpus[x].order <= 1500]
        b = cut_corpus[data.draw(st.sampled_from(small))]
        assert product_cut_predicate(a, b) == is_cut_group(direct_product(a, b))


@pytest.fixture(scope="module")
def cut_corpus():
    groups = catalog.distinct_corpus(1, 60, 200)
    return {label: G for label, G in groups.items() if is_cut_group(G)}


class NotApplicable(ValueError):
    pass


def prime_power_criterion_check(G, g) -> bool:
    """Consistency of the paper's p^n / 2p^n criteria with the direct
    verdicts.

    Applicable when |g| is p^n or 2p^n for an odd prime p; Aut(<g>) is then
    cyclic of order p^(n-1)(p-1).
    """
    v = element_verdict(G, g)
    n = v.order
    p = _odd_prime_shape(n)
    if p is None:
        raise NotApplicable(f"|g| = {n} is not p^n or 2p^n for an odd prime p")
    rational = v.verdict == RATIONAL
    isr = v.verdict != NEITHER
    pn1 = n // p if n % 2 else n // (2 * p)  # p^(n-1)
    aut_order = pn1 * (p - 1)
    orders = {_mult_order(m, n) for m in v.iota_exponents}
    if p % 4 == 1:
        return rational == isr == (aut_order in orders)
    half = aut_order // 2
    ok_isr = isr == (half <= v.bg_order) == (half in orders or aut_order in orders)
    ok_rat = rational == (v.bg_order == aut_order) == (aut_order in orders)
    return ok_isr and ok_rat


def _odd_prime_shape(n: int):
    """Odd prime p with n = p^k or 2 p^k, else None."""
    m = n if n % 2 else n // 2
    if m <= 1 or m % 2 == 0:
        return None
    p = min(f for f in range(3, m + 1) if m % f == 0 and isprime(f))
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def _mult_order(m: int, n: int) -> int:
    k, x = 1, m % n
    while x != 1:
        x = x * m % n
        k += 1
    return k


class TestPrimePowerCriterion:
    def test_order_5_branch(self):
        G = catalog.catalog_entry("fig3.e").build()
        assert prime_power_criterion_check(G, order_rep(G, 5))

    def test_order_7_branch(self, c7c3, seven_cycle):
        assert prime_power_criterion_check(c7c3, seven_cycle)

    def test_order_3_blanket(self, s3):
        assert prime_power_criterion_check(s3, order_rep(s3, 3))

    def test_not_applicable(self, q8):
        with pytest.raises(NotApplicable):
            prime_power_criterion_check(q8, order_rep(q8, 4))

    def test_neither_case_consistent(self, c5):
        assert prime_power_criterion_check(c5, c5.generators[0])

    @pytest.mark.parametrize("name", [e.name for e in catalog.catalog()
                                      if e.name.startswith("fig3.")
                                      and e.order <= 1200])
    def test_every_class_of_figure_3(self, name):
        G = catalog.catalog_entry(name).build()
        reps = [rep for rep in class_representatives(G)
                if _odd_prime_shape(element_order(G, rep))]
        for rep in reps:
            assert prime_power_criterion_check(G, rep)
