"""Integer multiplication on element ids, and what runs on it.

``groups.id_mul`` multiplies ids for every group kind; closures, quotient
projections, Sylow growth, the conjugation tables of non-derived groups and
the class power map run on it.  The references here are the element-product versions they
replaced, on ``G.mult`` (whose components are ``elements.mul``).  Every
property runs twice: at the module's TABLE_BOUND, and with the bound at 0,
where no group may build a Cayley table.
"""

import dataclasses
import random
from contextlib import contextmanager
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from gklab import catalog, groups
from gklab import elements as el
from gklab.groups import (closure_in, direct_product, element_ids,
                          element_order, enumerate_group, id_mul, id_powers,
                          semidirect_product, small_generating_set)
from gklab.rationality import (INVERSE_SEMIRATIONAL, NEITHER, RATIONAL,
                               ElementVerdict, cut_oracle_via_bg,
                               element_verdict, is_cut_group)
from gklab.structure import (conjugacy_classes, core_p, derived_subgroup,
                             fitting, normal_closure, quotient, sylow)

BOUNDS = {"table": groups.TABLE_BOUND, "no-table": 0}


def _reference_closure(G, gens):
    """Breadth-first closure on G.mult, as closure_in was."""
    elems = {G.identity}
    frontier = [G.identity]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = G.mult(g, s)
                if h not in elems:
                    elems.add(h)
                    new.append(h)
        frontier = new
    return elems


def _reference_generating_set(G, subset):
    """The greedy set, re-closing from scratch after every added generator."""
    subset = set(subset)
    gens = []
    have = {G.identity}
    for g in sorted(subset):
        if g in have:
            continue
        gens.append(g)
        have = _reference_closure(G, gens)
        if len(have) == len(subset):
            break
    return gens


def _reference_normal_closure(G, seeds):
    """Re-close from scratch until the generators' conjugates stay inside."""
    elems = _reference_closure(G, list(seeds))
    while True:
        gens = _reference_generating_set(G, elems)
        extra = [G.conjugate(s, g) for s in gens for g in G.generators]
        extra = [x for x in extra if x not in elems]
        if not extra:
            return frozenset(elems)
        elems = _reference_closure(G, gens + extra)


def _reference_projection(G, nset):
    """Coset projection of G/N by |G| element products, as quotient was."""
    project = {}
    for g in G.sorted_elements():
        if g in project:
            continue
        for x in nset:
            project[G.mult(g, x)] = g
    return project


def _powers(G, g, n):
    """[g^0, g^1, ..., g^(n-1)]."""
    out = [G.identity]
    for _ in range(n - 1):
        out.append(G.mult(out[-1], g))
    return out


def _all_pm(G, g, n, data):
    """Every generator of <g> conjugate to g or g^-1."""
    powers = _powers(G, g, n)
    cid = data.class_index[g]
    cid_inv = data.class_index[powers[(n - 1) % n]]
    return all(data.class_index[powers[m % n]] in (cid, cid_inv)
               for m in range(1, n + 1) if gcd(m, n) == 1)


def _reference_verdict(G, g, data):
    """element_verdict as it was: three walks of <g> on G.mult."""
    n = element_order(G, g)
    powers = _powers(G, g, n)
    units = [m for m in range(1, n + 1) if gcd(m, n) == 1]
    cid = data.class_index[g]
    exps = frozenset(m for m in units
                     if data.class_index[powers[m % n]] == cid)
    if len(exps) == len(units):
        verdict = RATIONAL
    elif _all_pm(G, g, n, data):
        verdict = INVERSE_SEMIRATIONAL
    else:
        verdict = NEITHER
    return ElementVerdict(g, n, len(exps), exps, verdict)


def _invertible(p, rows):
    try:
        el.mat(p, rows)
    except ValueError:
        return False
    return True


def _matrices(p, d=2):
    return st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d).map(
        lambda xs: [xs[i:i + d] for i in range(0, d * d, d)]).filter(
        lambda rows: _invertible(p, rows))


SMALL = {"C1": lambda: catalog.cyclic(1), "C2": lambda: catalog.cyclic(2),
         "C4": lambda: catalog.cyclic(4), "S3": lambda: catalog.sym(3),
         "Q8": catalog.quaternion8, "A4": lambda: catalog.alt(4),
         "D5": lambda: catalog.dihedral(10), "C7:C3": catalog.c7_c3}
SOLVABLE = {"S4": lambda: catalog.sym(4), "SL(2,3)": catalog.sl2_3,
            "C7:C6": catalog.c7_c6, "D6": lambda: catalog.dihedral(12),
            "S3 x C4": lambda: direct_product(catalog.sym(3), catalog.cyclic(4)),
            "C5^2:Q8": lambda: catalog.catalog_entry("fig3.e").build()}


@st.composite
def _recipes(draw):
    """(name, builder): a zero-argument builder of a fresh group, so that
    each example builds its ids under the bound the test has set."""
    kind = draw(st.sampled_from(
        ["perm", "matrix", "direct", "semidirect", "semidirect-of-direct",
         "inner-semidirect", "quotient-of-product", "quotient-of-quotient",
         "view"]))
    if kind == "perm":
        n = draw(st.integers(2, 5))
        perms = draw(st.lists(st.permutations(range(n)), min_size=1,
                              max_size=2))
        return kind, lambda: enumerate_group([el.perm(q) for q in perms])
    if kind == "matrix":
        p = draw(st.sampled_from([2, 3, 5]))
        mats = draw(st.lists(_matrices(p), min_size=1, max_size=2))
        return kind, lambda: enumerate_group([el.mat(p, m) for m in mats])
    if kind == "direct":
        a, b = draw(st.lists(st.sampled_from(sorted(SMALL)), min_size=2,
                             max_size=2))
        return kind, lambda: direct_product(SMALL[a](), SMALL[b]())
    if kind == "semidirect":
        p, rank = draw(st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1),
                                        (5, 2)]))
        mats = draw(st.lists(_matrices(p, rank), min_size=1, max_size=2))
        return kind, lambda: catalog.vector_semidirect(p, rank, mats)
    if kind == "semidirect-of-direct":
        p = draw(st.sampled_from([2, 3, 5]))
        mats = draw(st.lists(_matrices(p), min_size=1, max_size=2))

        def build():
            N = direct_product(catalog.cyclic(p), catalog.cyclic(p))
            ms = [el.mat(p, m) for m in mats]
            return semidirect_product(N, enumerate_group(ms, "H"),
                                      catalog.matrix_action(N, ms))
        return kind, build
    if kind == "inner-semidirect":
        # a non-abelian kernel, so the order of a kernel product matters
        name = draw(st.sampled_from(["S3", "Q8", "A4", "D5", "C7:C3"]))
        pick = draw(st.integers(0, 60))

        def build():
            N = SMALL[name]()
            x = N.sorted_elements()[pick % N.order]
            H = catalog.cyclic(element_order(N, x))
            return semidirect_product(
                N, H, [[N.conjugate(g, x) for g in N.generators]])
        return kind, build
    if kind == "quotient-of-product":
        a, b = draw(st.lists(st.sampled_from(sorted(SMALL)), min_size=2,
                             max_size=2))
        pick = draw(st.integers(0, 10))

        def build():
            P = direct_product(SMALL[a](), SMALL[b]())
            normals = [derived_subgroup(P)] + [
                core_p(P, p) for p in sorted(factorint(P.order))]
            return quotient(P, normals[pick % len(normals)])
        return kind, build
    name = draw(st.sampled_from(sorted(SOLVABLE)))
    if kind == "quotient-of-quotient":
        def build():  # G/F(G), then that by its derived subgroup
            G = SOLVABLE[name]()
            Q = quotient(G, fitting(G))
            return quotient(Q, derived_subgroup(Q))
        return kind, build
    pick = draw(st.integers(0, 10))

    def view():
        G = SOLVABLE[name]()
        subs = [derived_subgroup(G)] + [
            sylow(G, p) for p in sorted(factorint(G.order))]
        return subs[pick % len(subs)].as_group()
    return kind, view


@contextmanager
def _bound(name):
    """TABLE_BOUND set by name; at 0 no Cayley table may be built at all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "TABLE_BOUND", BOUNDS[name])
        if BOUNDS[name] == 0:
            def no_table(G, mul):
                raise AssertionError(f"Cayley table built for {G.label}")
            mp.setattr(groups, "_cayley_mul", no_table)
        yield


by_bound = pytest.mark.parametrize("bound", sorted(BOUNDS))


def _sample_ids(G, rng, k):
    return [rng.randrange(G.order) for _ in range(k)]


class TestIdMultiplication:
    @by_bound
    @settings(max_examples=40, deadline=None)
    @given(recipe=_recipes(), seed=st.integers(0, 2**16))
    def test_product_inverse_and_order(self, bound, recipe, seed):
        with _bound(bound):
            G = recipe[1]()
            srt, ids = G.sorted_elements(), element_ids(G)
            mul = id_mul(G)
            orders, inverses = id_powers(G)
            rng = random.Random(seed)
            context_free = G.mult is el.mul  # an enumerated group
            for i, j in zip(_sample_ids(G, rng, 60), _sample_ids(G, rng, 60)):
                assert mul(i, j) == ids[G.mult(srt[i], srt[j])]
                if context_free:
                    assert mul(i, j) == ids[el.mul(srt[i], srt[j])]
            for i in range(G.order):
                assert inverses[i] == ids[G.inv(srt[i])]
                if context_free:
                    assert inverses[i] == ids[el.inv(srt[i])]
            for i in _sample_ids(G, rng, 20):
                assert orders[i] == element_order(G, srt[i])

    @by_bound
    @settings(max_examples=40, deadline=None)
    @given(recipe=_recipes(), seed=st.integers(0, 2**16))
    def test_associative(self, bound, recipe, seed):
        with _bound(bound):
            G = recipe[1]()
            mul = id_mul(G)
            rng = random.Random(seed)
            for _ in range(60):
                a, b, c = _sample_ids(G, rng, 3)
                assert mul(mul(a, b), c) == mul(a, mul(b, c))


class TestClosures:
    @by_bound
    @settings(max_examples=40, deadline=None)
    @given(recipe=_recipes(), seed=st.integers(0, 2**16))
    def test_lagrange_and_reference(self, bound, recipe, seed):
        with _bound(bound):
            G = recipe[1]()
            rng = random.Random(seed)
            srt = G.sorted_elements()
            gens = [srt[i] for i in _sample_ids(G, rng, rng.randint(1, 3))]
            C = closure_in(G, gens)
            assert G.order % len(C) == 0
            assert all(G.mult(x, s) in C for x in C for s in gens)
            assert C == _reference_closure(G, gens)
            assert small_generating_set(G, C) == _reference_generating_set(G, C)
            assert normal_closure(G, gens) == _reference_normal_closure(G, gens)

    @by_bound
    @settings(max_examples=30, deadline=None)
    @given(recipe=_recipes())
    def test_quotient_projection(self, bound, recipe):
        with _bound(bound):
            G = recipe[1]()
            for N in [derived_subgroup(G)] + [core_p(G, p)
                                              for p in sorted(factorint(G.order))]:
                Q = quotient(G, N)
                assert Q._memo["project"] == _reference_projection(G, N.elements)

    @by_bound
    @settings(max_examples=30, deadline=None)
    @given(recipe=_recipes())
    def test_sylow_and_fitting_are_subgroups(self, bound, recipe):
        with _bound(bound):
            G = recipe[1]()
            for p in sorted(factorint(G.order)):
                P = sylow(G, p).elements
                assert _reference_closure(G, P) == P
            F = fitting(G).elements
            assert _reference_closure(G, F) == F
            assert G.order % len(F) == 0


class TestClassPowerMap:
    @by_bound
    @settings(max_examples=40, deadline=None)
    @given(recipe=_recipes())
    def test_rows_and_verdicts(self, bound, recipe):
        """Each row is the classes of rep^k walked on G.mult, and each
        verdict read from it is the three-walk verdict."""
        with _bound(bound):
            G = recipe[1]()
            data = conjugacy_classes(G)
            assert len(data.powers) == len(data.representatives)
            for rep, row in zip(data.representatives, data.powers):
                walked = [data.class_index[G.identity]]
                h = rep
                while h != G.identity:
                    walked.append(data.class_index[h])
                    h = G.mult(h, rep)
                assert row == tuple(walked)
                assert len(row) == element_order(G, rep)
                assert (element_verdict(G, rep, data)
                        == _reference_verdict(G, rep, data))


def test_only_small_groups_without_structure_are_tabulated():
    def tabulated(G):
        return id_mul(G).__qualname__.startswith("_cayley_mul")
    S4 = catalog.sym(4)
    assert tabulated(S4) and tabulated(sylow(S4, 2).as_group())
    assert not tabulated(direct_product(catalog.sym(3), catalog.cyclic(2)))
    assert not tabulated(catalog.catalog_entry("fig3.e").build())
    assert not tabulated(quotient(S4, core_p(S4, 2)))
    with _bound("no-table"):
        assert not tabulated(catalog.sym(4))


class _Poison:
    """Stands in for an id-core memo: any use of it fails the test."""

    def _fail(self, *args, **kwargs):
        raise AssertionError(
            "the normalizer-scan oracle read the id core or the classes")

    __call__ = __getitem__ = __iter__ = __len__ = __contains__ = _fail


ID_CORE_KEYS = ("ids", "id_mul", "id_mul_from", "id_base_from", "id_powers",
                "conj_tables", "tables_from")


def _c5sq_c4():
    return catalog.vector_semidirect(5, 2, [[[2, 0], [0, 3]]], "C5^2 x| C4")


@pytest.mark.parametrize("build", [
    _c5sq_c4, catalog.c7_c6, lambda: catalog.alt(5),
    lambda: direct_product(catalog.quaternion8(), catalog.cyclic(3)),
    lambda: catalog.catalog_entry("fig3.e").build(),
    lambda: quotient(catalog.sym(4), core_p(catalog.sym(4), 2)),
    *[(lambda label=label: catalog.distinct_corpus(1, 20, 300)[label])
      for label in sorted(catalog.distinct_corpus(1, 20, 300))[:6]],
], ids=lambda b: getattr(b, "__name__", "group"))
def test_oracle_reads_no_id_core(build):
    """With every id memo poisoned, and every field of the class data but
    the representatives, the oracle still gives its verdict.

    Each call of build makes fresh groups, factors included, so no poison
    reaches another case.
    """
    expected = is_cut_group(build())
    G = build()
    # the representatives are the oracle's one input
    G._memo["conjugacy"] = dataclasses.replace(
        conjugacy_classes(G), classes=_Poison(), class_index=_Poison(),
        powers=_Poison())
    for key in ID_CORE_KEYS:
        G._memo[key] = _Poison()
    assert cut_oracle_via_bg(G) == expected
