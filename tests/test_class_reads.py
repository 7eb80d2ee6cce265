"""The Frobenius, predicate and Fitting reads of the class data against the
searches they replaced.

Each reference below is the code that ran before the read: a commutator scan
for the Frobenius kernel test, an involution centralizer or a bounded
generator search for the complement, whose fingerprint G/K must share, a
walk of <g> and a table test for each cyclic normal subgroup, a backtracking
supersolvable search and a quotient per candidate for metacyclicity, a
fixpoint of the conjugation tables on a Sylow subgroup for O_p(G), a span of
the O_p(G) for F(G), and the normal closure of every class of prime order
for the minimal normal subgroups.
They are compared on the distinct corpus, the Frobenius family sweep and the
catalog entries; the Fitting reads also on quotients and subgroup views,
with and without Cayley tables.
"""

from math import gcd

import pytest
from sympy import factorint, isprime

from gklab import catalog
from gklab.frobenius import _kernel_reason, fingerprint
from gklab.groups import Span, conjugation_tables, element_ids, id_mul
from gklab.structure import (SubgroupHandle, _is_normal, _normal_cyclic_rows,
                             _normal_span, _power_walk, class_representatives,
                             conjugacy_classes, core_p, derived_subgroup,
                             fitting, fitting_series, is_cyclic, is_metacyclic,
                             is_solvable, is_supersolvable,
                             minimal_normal_subgroups, quotient, sylow)
from test_idcore import BOUNDS, _bound, _Poison


def _reference_kernel_condition(G, ks):
    """No element outside the kernel commutes with a nontrivial kernel
    element, tested on class representatives outside it."""
    ids, mul = element_ids(G), id_mul(G)
    nontrivial = ks - {ids[G.identity]}
    outside = [r for r in map(ids.__getitem__,
                              class_representatives(G))
               if r not in ks]
    return all(mul(r, n) != mul(n, r) for r in outside for n in nontrivial)


def _reference_complement(G, ks, m):
    """Even m: C_G(t) for the first involution t outside the kernel whose
    centralizer is a complement.  Odd m: bounded search over at most 3
    generators of order dividing m.  None when nothing is found."""
    mul = id_mul(G)
    orders = [len(_power_walk(mul, i)) for i in range(G.order)]
    if m % 2 == 0:
        for t in range(G.order):
            if t in ks or orders[t] != 2:
                continue
            cent = [x for x in range(G.order) if mul(x, t) == mul(t, x)]
            if len(cent) == m and len(ks.intersection(cent)) == 1:
                return frozenset(cent)
        return None
    candidates = [i for i in range(G.order)
                  if i not in ks and m % orders[i] == 0]

    def extend(current, gens, depth):
        if len(current) == m:
            return current
        if depth == 0:
            return None
        for g in candidates:
            if g in current:
                continue
            span = Span(G)
            for x in gens + [g]:
                span.add(x)
            grown = frozenset(span.elements)
            if m % len(grown) or len(grown & ks) != 1:
                continue
            got = extend(grown, gens + [g], depth - 1)
            if got is not None:
                return got
        return None

    return extend(frozenset([element_ids(G)[G.identity]]), [], 3)


def _reference_cyclic_normal_subgroups(G, prime_order_only=False):
    """Walk <rep> for every class representative and keep the distinct
    subgroups that the conjugation tables carry into themselves."""
    data = conjugacy_classes(G)
    ids, mul = element_ids(G), id_mul(G)
    seen = set()
    for rep, row in zip(class_representatives(G), data.powers):
        n = len(row)
        if n == 1 or prime_order_only and not isprime(n):
            continue
        cyc = frozenset(_power_walk(mul, ids[rep]))
        if cyc in seen:
            continue
        seen.add(cyc)
        if _is_normal(G, cyc):
            yield SubgroupHandle(G, cyc)


def _reference_supersolvable(G):
    if G.order == 1:
        return True
    for N in _reference_cyclic_normal_subgroups(G, prime_order_only=True):
        if N.order == G.order:
            return True
        if _reference_supersolvable(quotient(G, N)):
            return True
    return False


def _reference_metacyclic(G):
    if is_cyclic(G):
        return True
    return any(is_cyclic(quotient(G, N))
               for N in _reference_cyclic_normal_subgroups(G))


@pytest.fixture(scope="module")
def groups():
    out = list(catalog.distinct_corpus(1, 200, 2000).values())
    out += [build() for _, _, build in catalog.frobenius_family_sweep()]
    out += [e.build() for e in catalog.catalog()
            if e.name.startswith("fig3.")
            or e.name in ("twofrob.c", "twofrob.e")]
    return out


@pytest.fixture(scope="module")
def frobenius_candidates(groups):
    """(G, F(G), |G : F(G)|) where F(G) is a proper nontrivial normal Hall
    subgroup; the first quotient of each Fitting series joins, as the
    2-Frobenius test decomposes it."""
    out = []
    for G in groups:
        quotients = fitting_series(G).quotients
        for H in [G] + list(quotients[:1]):
            F = fitting(H)
            m = H.order // F.order
            if F.order > 1 and m > 1 and gcd(F.order, m) == 1:
                out.append((H, F, m))
    return out


def test_kernel_condition_matches_commutator_scan(frobenius_candidates):
    kinds = set()
    for G, F, _ in frobenius_candidates:
        got = _kernel_reason(G, F, range(G.order), G.label) is None
        assert got == _reference_kernel_condition(G, F.ids), G.label
        kinds.add(got)
    assert kinds == {True, False}


def test_complement_matches_search(frobenius_candidates):
    """G/K, which the family match fingerprints, against the complement
    the search finds."""
    parities = set()
    for G, F, m in frobenius_candidates:
        if not _reference_kernel_condition(G, F.ids):
            continue
        want = _reference_complement(G, F.ids, m)
        assert want is not None, G.label
        assert len(want) == m and len(want & F.ids) == 1, G.label
        assert (fingerprint(quotient(G, F))
                == fingerprint(SubgroupHandle(G, want).as_group()))
        parities.add(m % 2)
    assert parities == {0, 1}


@pytest.mark.parametrize("prime_order_only", [False, True])
def test_cyclic_normal_subgroups_match_walk(groups, prime_order_only):
    """The walk of <rep> for each row read off the class data, and for the
    rows of prime length, which ``is_supersolvable`` takes."""
    for G in groups:
        mul = id_mul(G)
        got = [frozenset(_power_walk(mul, rep))
               for rep, row in _normal_cyclic_rows(G)
               if not prime_order_only or isprime(len(row))]
        want = [N.ids for N in
                _reference_cyclic_normal_subgroups(G, prime_order_only)]
        assert got == want, G.label


def test_supersolvable_matches_backtracking(groups):
    verdicts = [is_supersolvable(G) for G in groups]
    assert verdicts == [_reference_supersolvable(G) for G in groups]
    assert set(verdicts) == {True, False}


def test_metacyclic_matches_quotients(groups):
    verdicts = [is_metacyclic(G) for G in groups]
    assert verdicts == [_reference_metacyclic(G) for G in groups]
    assert set(verdicts) == {True, False}


def _reference_core(G, p):
    """O_p(G) as the largest subset of a Sylow p-subgroup that every
    generator's conjugation table carries into itself."""
    K = set(sylow(G, p).ids)
    changed = True
    while changed:
        changed = False
        for t in conjugation_tables(G):
            Kg = {t[i] for i in K}
            if Kg != K:
                K &= Kg
                changed = True
    return SubgroupHandle(G, frozenset(K))


def _reference_fitting(G):
    """F(G) as the span of the O_p(G), over the primes in ascending order."""
    F = Span(G)
    for p in sorted(factorint(G.order)):
        for x in _reference_core(G, p).ids:
            F.add(x)
    return SubgroupHandle(G, frozenset(F.elements))


def _reference_minimal_normal_subgroups(G):
    """The least normal closures of the classes of prime order, every such
    class closed."""
    data = conjugacy_classes(G)
    closures = {}
    for rep, row in zip(data.rep_ids, data.powers):
        if not isprime(len(row)):
            continue
        ids = frozenset(_normal_span(G, [rep]).elements)
        closures.setdefault(ids, SubgroupHandle(G, ids))
    minimal = []
    for cl in sorted(closures.values(), key=lambda N: N.order):
        if not any(m.ids <= cl.ids for m in minimal):
            minimal.append(cl)
    return minimal


def _fitting_inputs(bound):
    """The distinct corpus and the catalog, then quotients, subgroup views
    and the sweep's semidirect products, all built fresh; the quotients are
    taken by the references' normal subgroups.  Without Cayley tables
    twofrob.g (15,309 elements) is left out: each of its id products then
    multiplies permutations of its kernel C3^6, which takes this test from
    1 s to 8 s."""
    out = list(catalog.distinct_corpus(1, 200, 2000).values())
    out += [e.build() for e in catalog.catalog()
            if BOUNDS[bound] or e.name != "twofrob.g"]
    s4, dic12 = catalog.sym(4), catalog.dicyclic12()
    twofrob = catalog.catalog_entry("twofrob.c").build()
    out += [quotient(s4, _reference_core(s4, 2)),
            quotient(dic12, _reference_core(dic12, 3)),
            quotient(twofrob, _reference_fitting(twofrob)),
            sylow(s4, 2).as_group(), derived_subgroup(s4).as_group(),
            catalog.sl2_3(), catalog.alt(5), s4]
    out += [build() for _, _, build in catalog.frobenius_family_sweep()]
    return out


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_fitting_reads_match_table_searches(bound):
    """O_p(G), F(G) and the minimal normal subgroups, read off the classes,
    equal the table fixpoint, the span of the cores and the closure of every
    class of prime order: the whole list, in order."""
    with _bound(bound):
        groups = _fitting_inputs(bound)
        orders, minimal_counts = set(), set()
        for G in groups:
            for p in factorint(G.order):
                assert core_p(G, p) == _reference_core(G, p), (G.label, p)
            F = fitting(G)
            assert F == _reference_fitting(G), G.label
            orders.add((F.order == 1, F.order == G.order))
            if is_solvable(G):
                got = minimal_normal_subgroups(G)
                assert got == _reference_minimal_normal_subgroups(G), G.label
                minimal_counts.add(len(got))
    # nilpotent, proper and trivial Fitting subgroups, one or several
    # minimal normal subgroups, all met
    assert {(False, True), (False, False), (True, False)} <= orders
    assert len(minimal_counts) > 2


def _fresh_non_products():
    """Groups whose Fitting reads run on their own classes, not a direct
    product's factors: permutation and matrix groups, a quotient, a
    subgroup view and semidirect products."""
    s4 = catalog.sym(4)
    twofrob = catalog.catalog_entry("twofrob.c").build()
    return [s4, catalog.sl2_3(), catalog.c7_c6(), catalog.dicyclic12(),
            catalog.alt(5), quotient(twofrob, _reference_fitting(twofrob)),
            sylow(catalog.sym(4), 2).as_group(),  # over an S4 of its own
            catalog.vector_semidirect(5, 2, [[[2, 0], [0, 3]]]),
            catalog.catalog_entry("twofrob.l").build()]


def test_fitting_multiplies_no_ids_once_cores_are_known():
    """With the classes and every O_p(G) memoised, F(G) is read off them:
    the id multiplication is poisoned."""
    for G, ref in zip(_fresh_non_products(), _fresh_non_products()):
        conjugacy_classes(G).class_ids
        for p in factorint(G.order):
            core_p(G, p)
        G._memo["id_mul"] = _Poison()
        assert fitting(G).ids == _reference_fitting(ref).ids, G.label


def test_core_reads_no_tables_once_sylows_are_known():
    """With the classes and every Sylow subgroup memoised, O_p(G) is read
    off them: the conjugation tables are poisoned."""
    for G, ref in zip(_fresh_non_products(), _fresh_non_products()):
        conjugacy_classes(G).class_ids
        primes = sorted(factorint(G.order))
        for p in primes:
            sylow(G, p)
        G._memo["conj_tables"] = _Poison()
        for p in primes:
            assert core_p(G, p).ids == _reference_core(ref, p).ids, G.label
