"""Laws that hold in every finite group, checked on what the analysis builds.

The class data, the element order counts, the GK graph and the subgroups
are checked against theorems, so a fault that a differential test against a
copy of the same idea would share still shows:

* the class equation: the class sizes sum to |G|, and each divides |G|;
* <g> lies in the centralizer of g, so |g| times the size of g's class
  divides |G|;
* phi(d) divides the number of elements of order d;
* Frobenius (1895): for each n dividing |G|, n divides the number of x with
  x^n = 1;
* the power-map law: for the row r of class c and n = len(r), class r[j]
  has a row of length n/gcd(j, n), and that row is r[j*i mod n];
* Cauchy: the GK graph's vertices are the primes dividing |G|;
* Lagrange for every Sylow subgroup, Fitting term and, in a solvable
  group, minimal normal subgroup, and |P| = |G|_p for each Sylow
  p-subgroup P.

They run on the distinct corpus, the catalog, the W(B_6) and GL(3,3)
frames, and as a Hypothesis property over the recipes of
``test_report_laws.py``.  The corpus, the catalog and the recipes run under
both TABLE_BOUND values; the frames lie above it.

Frobenius and 2-Frobenius groups obey laws of their own, read off the
Fitting series and the GK graph, not off the kernel test:

* a Frobenius group with kernel K = F_1: |G : K| divides |K| - 1, and the
  GK components are pi(K) and pi(G/K);
* a 2-Frobenius group: |G : F_2| divides |F_2 : F_1| - 1, |F_2 : F_1|
  divides |F_1| - 1, and the GK components are pi(F_2/F_1) and
  pi(F_1) u pi(G/F_2).

They run on the distinct corpus, the catalog, the Frobenius family sweep and
the Fitting quotients of each.

A metacyclic group is supersolvable and metabelian (Huppert, *Endliche
Gruppen I*).  Metacyclic is read from ``_ungated_metacyclic``, a copy of
``is_metacyclic``'s search without its supersolvable gate, which the gated
predicate must match.  That runs on the distinct corpus, the catalog and the
sweep, and on the recipes.
"""

import json
from collections import Counter
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from sympy import divisors, factorint, totient

from gklab import catalog
from gklab.cli import load_spec
from gklab.groups import element_orders_multiset
from gklab.frobenius import FROBENIUS, TWO_FROBENIUS, frobenius_kind
from gklab.primegraph import components, gk_graph
from gklab.structure import (_normal_cyclic_rows, conjugacy_classes,
                             fitting_series, is_cyclic, is_metabelian,
                             is_metacyclic, is_supersolvable,
                             minimal_normal_subgroups, sylow)
from test_frames import FRAMES
from test_idcore import BOUNDS, _bound
from test_report_laws import specs


def _check_group_laws(G) -> None:
    n = G.order
    data = conjugacy_classes(G)
    assert sum(data.sizes) == n, G.label
    assert all(n % size == 0 for size in data.sizes), G.label
    assert all(n % (size * len(r)) == 0
               for size, r in zip(data.sizes, data.powers)), G.label
    orders = element_orders_multiset(G)
    assert all(count % totient(d) == 0 for d, count in orders.items()), \
        G.label
    for m in divisors(n):
        solutions = sum(c for d, c in orders.items() if m % d == 0)
        assert solutions % m == 0, (G.label, m)
    for r in data.powers:
        k = len(r)
        for j, d in enumerate(r):
            assert data.powers[d] == tuple(
                r[j * i % k] for i in range(k // gcd(j, k))), (G.label, j)
    primes = factorint(n)
    assert gk_graph(G).vertices == tuple(sorted(primes)), G.label
    subgroups = [F.order for F in fitting_series(G).series]
    for p, a in primes.items():
        assert sylow(G, p).order == p ** a, (G.label, p)
    if fitting_series(G).solvable:
        subgroups += [M.order for M in minimal_normal_subgroups(G)]
    assert all(n % k == 0 for k in subgroups), G.label


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_corpus_and_catalog_obey_the_laws(bound):
    with _bound(bound):
        for G in [*catalog.distinct_corpus(1, 200, 2000).values(),
                  *(entry.build() for entry in catalog.catalog())]:
            _check_group_laws(G)


@pytest.mark.parametrize("name", ["wb6", "gl3_3"])
def test_frames_obey_the_laws(name):
    _check_group_laws(load_spec(str(FRAMES / f"{name}.json"))[name])


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=specs())
def test_recipes_obey_the_laws(bound, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with _bound(bound):
        for G in load_spec(str(path)).values():
            _check_group_laws(G)
            _check_metacyclic_laws(G)


def _primes(n):
    return frozenset(factorint(n))


def _check_frobenius_laws(G) -> str:
    """The Frobenius or 2-Frobenius laws G's kind calls for; its kind."""
    kind = frobenius_kind(G)
    n, comps = G.order, set(components(gk_graph(G)))
    if kind == FROBENIUS:  # the complement G/K need not be nilpotent
        k = fitting_series(G).series[1].order
        assert (k - 1) % (n // k) == 0, G.label
        assert comps == {_primes(k), _primes(n // k)}, G.label
    elif kind == TWO_FROBENIUS:
        _, f1, f2, _ = (F.order for F in fitting_series(G).series)
        assert (f2 // f1 - 1) % (n // f2) == 0, G.label
        assert (f1 - 1) % (f2 // f1) == 0, G.label
        assert comps == {_primes(f2 // f1),
                         _primes(f1) | _primes(n // f2)}, G.label
    return kind


def test_frobenius_groups_obey_their_laws():
    pool = [*catalog.distinct_corpus(1, 200, 2000).values(),
            *(entry.build() for entry in catalog.catalog()),
            *(build() for _, _, build in catalog.frobenius_family_sweep())]
    pool += [Q for G in pool for Q in fitting_series(G).quotients]
    kinds = Counter(_check_frobenius_laws(G) for G in pool)
    assert (kinds[FROBENIUS], kinds[TWO_FROBENIUS]) == (41, 5), kinds


def _ungated_metacyclic(G) -> bool:
    """``is_metacyclic`` without its supersolvable gate: some cyclic normal
    N has an element gN of order |G : N| in G/N."""
    if is_cyclic(G):
        return True
    rows = tuple(conjugacy_classes(G).powers)
    for _, nrow in _normal_cyclic_rows(G):
        cs = set(nrow)
        index = G.order // len(nrow)
        steps = [index // r for r in factorint(index)]
        for row in rows:
            n = len(row)
            if row[index % n] in cs and all(row[k % n] not in cs
                                            for k in steps):
                return True
    return False


def _check_metacyclic_laws(G) -> bool:
    """Metacyclic, read ungated, implies supersolvable and metabelian, and
    the gated ``is_metacyclic`` agrees; returns metacyclic."""
    metacyclic = _ungated_metacyclic(G)
    assert is_metacyclic(G) == metacyclic, G.label
    if metacyclic:
        assert is_supersolvable(G) and is_metabelian(G), G.label
    return metacyclic


def test_metacyclic_groups_are_supersolvable_and_metabelian():
    pool = [*catalog.distinct_corpus(1, 200, 2000).values(),
            *(entry.build() for entry in catalog.catalog()),
            *(build() for _, _, build in catalog.frobenius_family_sweep())]
    verdicts = Counter(_check_metacyclic_laws(G) for G in pool)
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
