"""Known answers for groups above and below ``groups.TABLE_BOUND``.

The groups are the symmetric groups S_n for 2 <= n <= 8, the alternating
groups A_n for 4 <= n <= 8, the hyperoctahedral groups W(B_n) = C_2 wr S_n
for 2 <= n <= 5, and GL(2, p) for p in {3, 5, 7, 11}.  Each is
enumerated from its generators, as a ``perm`` or ``matgrp`` spec would be;
``catalog.sym`` and ``catalog.alt`` stop at n = 6.  Each expected GK graph
is computed here from n or p by an elementary rule, not read from gklab:

* S_n: the vertices are the primes up to n, and p ~ q iff p + q <= n.  The
  shortest permutation of order pq is a p-cycle times a disjoint q-cycle.
* A_n: for odd p and q, p ~ q iff p + q <= n.  An even permutation of order
  2p needs a p-cycle and two disjoint transpositions at least, so 2 ~ p iff
  p + 4 <= n.
* W(B_n), the signed permutations of n letters: the vertices are 2 and the
  odd primes up to n.  2 ~ p for every odd p <= n, as a p-cycle with an odd
  number of sign changes has order 2p; odd p ~ q iff p + q <= n, as for
  S_n.
* GL(2, p): the vertices are the primes dividing p(p^2 - 1).  Any two
  primes that divide p^2 - 1 are joined, through a Singer cycle of order
  p^2 - 1.  p ~ r iff r divides p - 1: the centralizer of a transvection is
  the scalars times the unipotent group, of order p(p - 1).

Every S_n is rational, since a permutation is conjugate to each of its
powers that generate the same cyclic group, and every W(B_n) is rational,
as every Weyl group is (Geck & Pfeiffer, *Characters of Finite Coxeter
Groups and Iwahori-Hecke Algebras*, 2000).  The cut verdicts of A_n are
pinned as gklab computes them: A4, A7 and A8 are cut, and A5 and A6 are
not.  They agree with the list of cut alternating groups recalled from
Bächle (J. Pure Appl. Algebra, 2018), n in {1, 2, 3, 4, 7, 8, 9, 12, 15,
20, 24}; that list was not checked against the source.  Both cut oracles
meet these answers: the class-based verdict on every group, and the
normalizer-scan oracle on S_n and A_n for n <= 7.  Every group of order at
most 1024 is checked under both ``TABLE_BOUND`` values.
"""

from math import factorial

import pytest
from sympy import factorint, isprime

from gklab import elements as el
from gklab.groups import enumerate_group
from gklab.primegraph import PrimeGraph, gk_graph
from gklab.rationality import (cut_oracle_via_bg, is_cut_group,
                               is_rational_group)
from test_idcore import BOUNDS, _bound

CUT_ALTERNATING = {4: True, 5: False, 6: False, 7: True, 8: True}
ORACLE_MAX_N = 7


def _sym(n):
    gens = [el.perm_from_cycles(n, [[1, 2]]),
            el.perm_from_cycles(n, [list(range(1, n + 1))])]
    return enumerate_group(gens, f"S{n}")


def _alt(n):
    # a 3-cycle and an even n- or (n-1)-cycle generate A_n
    cycle = list(range(1 + (n % 2 == 0), n + 1))
    gens = [el.perm_from_cycles(n, [[1, 2, 3]]),
            el.perm_from_cycles(n, [cycle])]
    return enumerate_group(gens, f"A{n}")


def _signed_sym(n):
    """W(B_n) on 2n points, where points i and n + i are letter i with its
    two signs: one sign change, an n-cycle and a transposition of letters."""
    gens = [el.perm_from_cycles(2 * n, [[1, n + 1]]),
            el.perm_from_cycles(2 * n, [list(range(1, n + 1)),
                                        list(range(n + 1, 2 * n + 1))]),
            el.perm_from_cycles(2 * n, [[1, 2], [n + 1, n + 2]])]
    return enumerate_group(gens, f"W(B_{n})")


def _primitive_root(p):
    return next(g for g in range(2, p) if all(
        pow(g, (p - 1) // r, p) != 1 for r in factorint(p - 1)))


def _gl2(p):
    """GL(2, p) from a transvection, the swap and diag(g, 1) for a
    primitive root g: the transvection and its conjugate by the swap
    generate SL(2, p), and det diag(g, 1) = g generates F_p^*."""
    g = _primitive_root(p)
    gens = [el.mat(p, [[1, 1], [0, 1]]), el.mat(p, [[0, 1], [1, 0]]),
            el.mat(p, [[g, 0], [0, 1]])]
    return enumerate_group(gens, f"GL(2,{p})")


def _primes_up_to(n):
    return [q for q in range(2, n + 1) if isprime(q)]


def _sym_graph(n):
    ps = _primes_up_to(n)
    return PrimeGraph.make(ps, [(p, q) for p in ps for q in ps
                                if p < q and p + q <= n])


def _alt_graph(n):
    ps = _primes_up_to(n)
    return PrimeGraph.make(ps, [(p, q) for p in ps for q in ps if p < q
                                and (q + 4 if p == 2 else p + q) <= n])


def _signed_sym_graph(n):
    ps = _primes_up_to(n)
    return PrimeGraph.make(ps, [(p, q) for p in ps for q in ps if p < q
                                and (p == 2 or p + q <= n)])


def _gl2_graph(p):
    ps = sorted(factorint(p * (p * p - 1)))
    return PrimeGraph.make(ps, [
        (r, s) for r in ps for s in ps if r < s
        and (p not in (r, s) or (p - 1) % (r + s - p) == 0)])


# name -> (builder, order, expected graph, expected cut verdict or None)
CASES = {
    **{f"S{n}": (lambda n=n: _sym(n), factorial(n), _sym_graph(n), True)
       for n in range(2, 9)},
    **{f"A{n}": (lambda n=n: _alt(n), factorial(n) // 2, _alt_graph(n),
                 CUT_ALTERNATING[n]) for n in range(4, 9)},
    **{f"W(B_{n})": (lambda n=n: _signed_sym(n), 2 ** n * factorial(n),
                     _signed_sym_graph(n), True) for n in range(2, 6)},
    **{f"GL(2,{p})": (lambda p=p: _gl2(p), p * (p * p - 1) * (p - 1),
                      _gl2_graph(p), None) for p in (3, 5, 7, 11)},
}


def _bounds(order):
    """Both bounds for a group the table bound can reach, else the module's
    own: above it no table is built under either."""
    return sorted(BOUNDS) if order <= BOUNDS["table"] else ["table"]


@pytest.mark.parametrize("name", CASES)
def test_known_graph_order_and_cut_verdicts(name):
    build, order, graph, cut = CASES[name]
    for bound in _bounds(order):
        with _bound(bound):
            G = build()
            assert G.order == order, (name, bound)
            assert gk_graph(G) == graph, (name, bound)
            if name[0] in "SW":
                assert is_rational_group(G), (name, bound)
            if cut is not None:
                assert is_cut_group(G) == cut, (name, bound)


@pytest.mark.parametrize("name", [name for name in CASES if name[0] in "SA"
                                  and int(name[1:]) <= ORACLE_MAX_N])
def test_scan_oracle_meets_the_known_cut_verdict(name):
    build, _, _, cut = CASES[name]
    assert cut_oracle_via_bg(build()) == cut


def test_the_rules_give_the_graphs_known_by_hand():
    """S5 has (12)(345) of order 6 and nothing of order 10 or 15; A5 and A6
    have elements of orders 1-5 only; A7 has (123)(45)(67); GL(2,5) has an
    element of order 6 and -1 times a transvection, of order 10, but none
    of order 15.  W(B_5) has a negative 5-cycle, of order 10, and a 3-cycle
    times a sign change, of order 6, but nothing of order 15."""
    assert _sym_graph(5).edges == ((2, 3),)
    assert _alt_graph(5).edges == () and _alt_graph(6).edges == ()
    assert _alt_graph(7).edges == ((2, 3),)
    assert _gl2_graph(5) == PrimeGraph.make([2, 3, 5], [(2, 3), (2, 5)])
    assert [_signed_sym_graph(n).literal() for n in range(2, 6)] == \
        ["2", "2-3", "2-3", "2-3,2-5"]
