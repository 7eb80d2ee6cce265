"""The Frobenius and predicate reads of the class data against the searches
they replaced.

Each reference below is the code that ran before the read: a commutator scan
for the Frobenius kernel condition, an involution centralizer or a bounded
generator search for the complement, a walk of <g> and a table test for each
cyclic normal subgroup, a backtracking supersolvable search and a quotient
per candidate for metacyclicity.  They are compared on the distinct corpus,
the Frobenius family sweep and the figure 3 and 2-Frobenius catalog entries.
"""

from math import gcd

import pytest
from sympy import isprime

from gklab import catalog
from gklab.frobenius import _find_complement, _kernel_condition, fingerprint
from gklab.groups import Span, element_ids, id_mul, identity_id
from gklab.structure import (InvariantFailed, SubgroupHandle, _is_normal,
                             _normal_cyclic_rows, _power_walk,
                             conjugacy_classes, fitting, fitting_series,
                             is_cyclic, is_metacyclic, is_supersolvable,
                             quotient)


def _reference_kernel_condition(G, ks):
    """No element outside the kernel commutes with a nontrivial kernel
    element, tested on class representatives outside it."""
    ids, mul = element_ids(G), id_mul(G)
    nontrivial = ks - {ids[G.identity]}
    outside = [r for r in map(ids.__getitem__,
                              conjugacy_classes(G).representatives)
               if r not in ks]
    return all(mul(r, n) != mul(n, r) for r in outside for n in nontrivial)


def _reference_complement(G, ks, m):
    """Even m: C_G(t) for the first involution t outside the kernel whose
    centralizer is a complement.  Odd m: bounded search over at most 3
    generators of order dividing m.  None when nothing is found."""
    mul, e = id_mul(G), identity_id(G)
    orders = [len(_power_walk(mul, e, i)) for i in range(G.order)]
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
    e = ids[G.identity]
    seen = set()
    for rep, row in zip(data.representatives, data.powers):
        n = len(row)
        if n == 1 or prime_order_only and not isprime(n):
            continue
        cyc = frozenset(_power_walk(mul, e, ids[rep]))
        if cyc in seen:
            continue
        seen.add(cyc)
        if _is_normal(G, cyc):
            yield SubgroupHandle(G, cyc, True)


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
    """(G, F(G)) where F(G) is a proper nontrivial normal Hall subgroup; the
    first quotient of each Fitting series joins, as the 2-Frobenius test
    decomposes it."""
    out = []
    for G in groups:
        quotients = fitting_series(G).quotients
        for H in [G] + list(quotients[:1]):
            F = fitting(H)
            m = H.order // F.order
            if F.order > 1 and m > 1 and gcd(F.order, m) == 1:
                out.append((H, F.ids, m))
    return out


def test_kernel_condition_matches_commutator_scan(frobenius_candidates):
    kinds = set()
    for G, ks, _ in frobenius_candidates:
        got = _kernel_condition(G, ks)
        assert got == _reference_kernel_condition(G, ks), G.label
        kinds.add(got)
    assert kinds == {True, False}


def test_complement_matches_search(frobenius_candidates):
    parities = set()
    for G, ks, m in frobenius_candidates:
        if not _reference_kernel_condition(G, ks):
            continue
        want = _reference_complement(G, ks, m)
        got = _find_complement(G, ks, m)
        assert want is not None, G.label
        assert len(got) == len(want) == m, G.label
        assert len(got & ks) == 1, G.label
        assert (fingerprint(SubgroupHandle(G, got, False).as_group())
                == fingerprint(SubgroupHandle(G, want, False).as_group()))
        parities.add(m % 2)
    assert parities == {0, 1}


def test_no_complement_is_an_invariant_failure(s3):
    e = element_ids(s3)[s3.identity]
    with pytest.raises(InvariantFailed):
        _find_complement(s3, frozenset({e}), 6)


@pytest.mark.parametrize("prime_order_only", [False, True])
def test_cyclic_normal_subgroups_match_walk(groups, prime_order_only):
    """The walk of <rep> for each row read off the class data, as
    ``is_supersolvable`` takes it for the prime orders."""
    for G in groups:
        mul, e = id_mul(G), element_ids(G)[G.identity]
        got = [frozenset(_power_walk(mul, e, rep))
               for rep, _ in _normal_cyclic_rows(G, prime_order_only)]
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
