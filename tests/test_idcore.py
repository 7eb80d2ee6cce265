"""Integer multiplication on element ids, and what runs on it.

``groups.id_mul`` multiplies ids for every group kind; closures, quotient
projections, Sylow growth, the conjugation tables of non-derived groups, the
class power map and the commutators of ``derived_subgroup`` and
``is_metabelian`` run on it.  The references here are the element-product
versions they replaced, on ``G.mult`` (whose components are
``elements.mul``).  Every property runs twice: at the module's TABLE_BOUND,
and with the bound at 0, where no group may build a Cayley table.
"""

import random
from array import array
from contextlib import contextmanager
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)
from sympy import factorint

from gklab import catalog, groups
from gklab import elements as el
from gklab.groups import (GroupHandle, Product, _power_walk, closure_in,
                          conjugation_tables, direct_product, element_ids,
                          element_order, enumerate_group, generator_ids,
                          id_mul, right_rows, semidirect_product,
                          small_generating_set, subgroup_as_group,
                          subgroup_view)
from gklab.rationality import (INVERSE_SEMIRATIONAL, NEITHER, RATIONAL,
                               ElementVerdict, cut_oracle_via_bg,
                               element_verdict, is_cut_group)
from gklab.structure import (ConjugacyData, conjugacy_classes, core_p,
                             derived_subgroup, fitting, fitting_series,
                             is_metabelian, normal_closure, quotient, sylow)

BOUNDS = {"table": groups.TABLE_BOUND, "no-table": 0}


def _reference_closure(G, gens, elems=None):
    """Breadth-first closure on G.mult, as closure_in was.  Given elems, the
    closure of all of gens but the last, t, it is grown in place: an element
    outside it is first reached as x t for some x in it, so the search
    starts from those."""
    if elems is None:
        elems, frontier = {G.identity}, [G.identity]
    else:
        frontier = list({G.mult(x, gens[-1]) for x in elems} - elems)
        elems.update(frontier)
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
    for g in [x for x in G.ordered if x in subset]:  # in id order
        if g in have:
            continue
        gens.append(g)
        have = _reference_closure(G, gens)
        if len(have) == len(subset):
            break
    return gens


def _reference_normal_closure(G, seeds):
    """Grow the closure by each seed, then by each conjugate of an added
    generator by a generator of G, that lies outside it; each step closes
    only by the element added (``_reference_closure`` given elems)."""
    gens, elems = [], {G.identity}
    todo = list(seeds)
    for s in todo:  # grows while it is read
        if s not in elems:
            gens.append(s)
            _reference_closure(G, gens, elems)
            todo += [G.conjugate(s, g) for g in G.generators]
    return frozenset(elems)


def _reference_projection(G, nset):
    """Coset projection of G/N by |G| element products, as quotient was."""
    project = {}
    for g in G.ordered:
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


def _all_pm(G, g, n, index):
    """Every generator of <g> conjugate to g or g^-1."""
    powers = _powers(G, g, n)
    cid = index[g]
    cid_inv = index[powers[(n - 1) % n]]
    return all(index[powers[m % n]] in (cid, cid_inv)
               for m in range(1, n + 1) if gcd(m, n) == 1)


def _reference_verdict(G, g, index):
    """element_verdict as it was: three walks of <g> on G.mult, with the
    element -> class dict index."""
    n = element_order(G, g)
    powers = _powers(G, g, n)
    units = [m for m in range(1, n + 1) if gcd(m, n) == 1]
    cid = index[g]
    exps = frozenset(m for m in units if index[powers[m % n]] == cid)
    if len(exps) == len(units):
        verdict = RATIONAL
    elif _all_pm(G, g, n, index):
        verdict = INVERSE_SEMIRATIONAL
    else:
        verdict = NEITHER
    return ElementVerdict(n, len(exps), exps, verdict)


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


SEMIDIRECT_KINDS = ["semidirect", "semidirect-of-direct", "inner-semidirect"]
KINDS = ["perm", "matrix", "direct", *SEMIDIRECT_KINDS, "quotient-of-product",
         "quotient-of-quotient", "view"]


@st.composite
def _recipes(draw, kinds=KINDS):
    """(name, builder): a zero-argument builder of a fresh group, so that
    each example builds its ids under the bound the test has set."""
    kind = draw(st.sampled_from(kinds))
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
            x = N.ordered[pick % N.order]
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
            def no_table(G):
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
            srt, ids = G.ordered, element_ids(G)
            mul = id_mul(G)
            data = conjugacy_classes(G)
            rng = random.Random(seed)
            context_free = G.mult is el.mul  # an enumerated group
            for i, j in zip(_sample_ids(G, rng, 60), _sample_ids(G, rng, 60)):
                assert mul(i, j) == ids[G.mult(srt[i], srt[j])]
                if context_free:
                    assert mul(i, j) == ids[el.mul(srt[i], srt[j])]
            # the inverse Sylow growth takes: the last power on the walk
            for i in range(G.order):
                inverse = _power_walk(mul, i)[-1]
                assert inverse == ids[G.inv(srt[i])]
                if context_free:
                    assert inverse == ids[el.inv(srt[i])]
            # the order of each id: the row length of its class
            for i in _sample_ids(G, rng, 20):
                assert len(data.powers[data.class_ids[i]]) == \
                    element_order(G, srt[i])

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


def _reference_action(N, H, action):
    """h -> {n: h |> n} for every h in H, as element dicts: each generator's
    images extended along a breadth-first search of N, then composed along
    one of H as (x g) |> n = x |> (g |> n)."""
    gen_maps = []
    for images in action:
        amap, frontier = {N.identity: N.identity}, [N.identity]
        while frontier:
            new = []
            for x in frontier:
                for g, image in zip(N.generators, images):
                    y = N.mult(x, g)
                    if y not in amap:
                        amap[y] = N.mult(amap[x], image)
                        new.append(y)
            frontier = new
        gen_maps.append(amap)
    act, frontier = {H.identity: {n: n for n in N.ordered}}, [H.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, gmap in zip(H.generators, gen_maps):
                y = H.mult(x, g)
                if y not in act:
                    act[y] = {n: act[x][gmap[n]] for n in N.ordered}
                    new.append(y)
        frontier = new
    return act


@contextmanager
def _recording_semidirect():
    """Record (G, N, H, action) for every semidirect product built, in the
    catalog or in a recipe."""
    made = []
    build = groups.semidirect_product

    def record(N, H, action, label=None):
        G = build(N, H, action, label)
        made.append((G, N, H, action))
        return G
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "semidirect_product", record)
        mp.setitem(globals(), "semidirect_product", record)
        yield made


def _check_action(G, N, H, action, rng):
    """G's action rows are the reference's element maps read as ids, and
    its element products and inverses are (n1 * (h1 |> n2), h1 h2) and
    (h^-1 |> n^-1, h^-1) on sampled pairs."""
    ref = _reference_action(N, H, action)
    nid = {x: i for i, x in enumerate(N.ordered)}
    act = G.origin.act
    assert len(act) == H.order
    for row, h in zip(act, H.ordered):
        assert isinstance(row, array) and row.typecode == "I"
        assert list(row) == [nid[ref[h][n]] for n in N.ordered], G.label
    for _ in range(40):
        n1, n2 = rng.choice(N.ordered), rng.choice(N.ordered)
        h1, h2 = rng.choice(H.ordered), rng.choice(H.ordered)
        a, b = (el.PAIR, n1, h1), (el.PAIR, n2, h2)
        assert G.mult(a, b) == (el.PAIR, N.mult(n1, ref[h1][n2]),
                                H.mult(h1, h2))
        hi = H.inv(h1)
        assert G.inv(a) == (el.PAIR, ref[hi][N.inv(n1)], hi)


class TestSemidirectAction:
    @by_bound
    @settings(max_examples=30, deadline=None)
    @given(recipe=_recipes(SEMIDIRECT_KINDS), seed=st.integers(0, 2**16))
    def test_recipes_match_element_maps(self, bound, recipe, seed):
        with _bound(bound), _recording_semidirect() as made:
            G = recipe[1]()
        assert [r[0] for r in made] == [G]
        _check_action(*made[0], random.Random(seed))

    def test_catalog_and_sweep_match_element_maps(self):
        with _recording_semidirect() as made:
            gs = [entry.build() for entry in catalog.catalog()]
            gs += [build() for _, _, build in catalog.frobenius_family_sweep()]
        semidirect = [G for G in gs if isinstance(G.origin, Product)
                      and G.origin.act is not None]
        assert len(semidirect) == 6 + 13  # fig3.e/h, twofrob.*, the sweep
        assert {id(G) for G in semidirect} <= {id(r[0]) for r in made}
        rng = random.Random(0)
        for r in made:
            _check_action(*r, rng)


def _rebuilt(G):
    """Handles of G's group that did not come from enumeration, so compute
    their rows on first read: a renamed copy, a copy with the origin dropped,
    and one built by hand.  A product's pairs become the listed elements of
    the last two."""
    listed = list(G.ordered)
    return [replace(G, label="renamed"),
            replace(G, label="no origin", listed=listed, origin=None),
            GroupHandle("by hand", G.generators, listed, G.identity, G.mult,
                        G.inv)]


@st.composite
def _rows_groups(draw):
    """(name, builder): a permutation group of degree up to 7, a group of
    3 x 3 matrices over F2, a cyclic one over F3, or any recipe's group."""
    kind = draw(st.sampled_from(["perm", "matrix", "recipe"]))
    if kind == "perm":
        n = draw(st.integers(2, 7))
        perms = draw(st.lists(st.permutations(range(n)), min_size=1,
                              max_size=2))
        return kind, lambda: enumerate_group([el.perm(q) for q in perms])
    if kind == "matrix":  # two generators of GL(3,3) mostly give all 11232
        p = draw(st.sampled_from([2, 3]))
        mats = draw(st.lists(_matrices(p, 3), min_size=1, max_size=4 - p))
        return kind, lambda: enumerate_group([el.mat(p, m) for m in mats])
    return draw(_recipes())


def _check_against_products(G):
    """G and its rebuilt handles against element products on G.mult and
    G.inv (``elements.mul`` for an enumerated group): the rows ids[x g], the
    tables ids[g^-1 x g] and sampled id products ids[x y]."""
    xs, mul, inv = G.ordered, G.mult, G.inv
    if G.origin is None:
        assert mul is el.mul and inv is el.inv
    ids = {x: i for i, x in enumerate(xs)}
    rows = [[ids[mul(x, g)] for x in xs] for g in G.generators]
    tables = [[ids[mul(inv(g), mul(x, g))] for x in xs] for g in G.generators]
    rng = random.Random(G.order)
    pairs = list(zip(_sample_ids(G, rng, 30), _sample_ids(G, rng, 30)))
    for H in [G, *_rebuilt(G)]:
        assert [list(r) for r in right_rows(H)] == rows, H.label
        assert [list(t) for t in conjugation_tables(H)] == tables, H.label
        mul_ids = id_mul(H)
        assert all(mul_ids(i, j) == ids[mul(xs[i], xs[j])] for i, j in pairs)


class TestRightRows:
    """Enumeration's id rows, the rows a handle computes on first read, and
    the conjugation tables and semidirect actions read off them, each against
    test-local element products."""

    @by_bound
    @settings(max_examples=25, deadline=None)
    @given(recipe=_rows_groups())
    def test_rows_and_tables_match_element_products(self, bound, recipe):
        with _bound(bound):
            _check_against_products(recipe[1]())

    @by_bound
    @settings(max_examples=15, deadline=None)
    @given(recipe=_recipes(["semidirect", "inner-semidirect"]),
           seed=st.integers(0, 2**16))
    def test_actions_on_rebuilt_handles(self, bound, recipe, seed):
        """The action rows of N x| H, built again from handles of N and H
        that compute their rows on first read, match the element maps."""
        with _bound(bound), _recording_semidirect() as made:
            recipe[1]()
        G, N, H, action = made[0]
        rng = random.Random(seed)
        for N2, H2 in zip(_rebuilt(N), _rebuilt(H)):
            G2 = groups.semidirect_product(N2, H2, action)
            _check_action(G2, N2, H2, action, rng)
            assert [list(r) for r in G2.origin.act] == \
                [list(r) for r in G.origin.act]

    @pytest.mark.parametrize("build", [
        lambda: enumerate_group([el.perm_from_cycles(7, [range(1, 8)]),
                                 el.perm_from_cycles(7, [[1, 2]])]),
        lambda: enumerate_group([el.mat(2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
                                 el.mat(2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]),
        lambda: enumerate_group([el.mat(3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                 el.mat(3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                 el.mat(3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]),
    ], ids=["S7", "GL(3,2)", "F3 monomial"])
    def test_named_groups(self, build):
        """S7 (5040, above TABLE_BOUND), GL(3,2) (168) and the monomial
        matrices of GL(3,3) (48), at the module's TABLE_BOUND."""
        G = build()
        assert G.order in (5040, 168, 48)
        _check_against_products(G)


def _sylow_views(G):
    return [sylow(G, p).as_group() for p in sorted(factorint(G.order))]


def _product_views():
    """S4 x C4's Sylow views, its derived subgroup A4 x 1 and the diagonal
    <(t, c)> of a transposition t and a generator c of C4, which is no
    product of subgroups of the factors."""
    P = direct_product(catalog.sym(4), catalog.cyclic(4))
    t = next(x for x in P.ordered if x[2] == P.identity[2]
             and element_order(P, x) == 2)
    c = (el.PAIR, P.identity[1], P.generators[-1][2])
    diagonal = subgroup_as_group(P, closure_in(P, [P.mult(t, c)]), "diag")
    return _sylow_views(P) + [derived_subgroup(P).as_group(), diagonal]


def _quotient_views():
    """Views of S4/V4 (S3): its Sylow subgroups and its derived subgroup."""
    S4 = catalog.sym(4)
    Q = quotient(S4, core_p(S4, 2))
    return _sylow_views(Q) + [derived_subgroup(Q).as_group()]


def _trivial_views():
    return [subgroup_view(G, {0})
            for G in (catalog.sym(4), catalog.c7_c6())]


VIEWS = {
    "corpus Sylow": lambda: [V for G in catalog.distinct_corpus(
        1, 20, 300).values() for V in _sylow_views(G)],
    "twofrob.l F2": lambda: [fitting_series(
        catalog.catalog_entry("twofrob.l").build()).series[2].as_group()],
    "semidirect": lambda: _sylow_views(catalog.catalog_entry(
        "fig3.e").build()) + [derived_subgroup(catalog.c7_c6()).as_group()],
    "quotient": _quotient_views,
    "direct": _product_views,
    "trivial": _trivial_views,
}


def _reference_view_tables(V):
    """The tables as views once built them: each generator's inverse read
    off the walk of its powers, then two id products per id."""
    mul = id_mul(V)
    tables = []
    for k in generator_ids(V):
        ki = _power_walk(mul, k)[-1]
        tables.append([mul(ki, mul(i, k)) for i in range(V.order)])
    return tables


class TestViewTables:
    """Subgroup views read their conjugation tables off their rows, as
    enumerated groups do."""

    @by_bound
    @pytest.mark.parametrize("views", sorted(VIEWS))
    def test_tables_match_conjugation(self, bound, views):
        """Each view's tables against g^-1 x g on elements and against the
        walk-and-multiply tables views used to build."""
        with _bound(bound):
            vs = VIEWS[views]()
            assert vs
            for V in vs:
                assert isinstance(V.origin, groups.View)
                xs, ids = V.ordered, element_ids(V)
                want = [[ids[V.conjugate(x, g)] for x in xs]
                        for g in V.generators]
                got = [list(t) for t in conjugation_tables(V)]
                assert got == want, V.label
                assert got == _reference_view_tables(V), V.label

    @by_bound
    @pytest.mark.parametrize("views", sorted(VIEWS))
    def test_tables_make_one_product_per_id_and_generator(self, bound,
                                                          views):
        """A fresh view's tables cost at most |V| k products of its parent's
        ids: the rows they are read off, and nothing more."""
        with _bound(bound):
            for V in VIEWS[views]():
                parent = V.origin.parent
                assert not V._memo
                mul, calls = id_mul(parent), []

                def counting(a, b, mul=mul, calls=calls):
                    calls.append(None)
                    return mul(a, b)
                parent._memo["id_mul"] = counting
                conjugation_tables(V)
                assert len(calls) <= V.order * len(V.generators), V.label


class TestClosures:
    @by_bound
    @settings(max_examples=40, deadline=None)
    @given(recipe=_recipes(), seed=st.integers(0, 2**16))
    def test_lagrange_and_reference(self, bound, recipe, seed):
        with _bound(bound):
            G = recipe[1]()
            rng = random.Random(seed)
            srt = G.ordered
            gens = [srt[i] for i in _sample_ids(G, rng, rng.randint(1, 3))]
            C = closure_in(G, gens)
            assert G.order % len(C) == 0
            assert all(G.mult(x, s) in C for x in C for s in gens)
            assert C == _reference_closure(G, gens)
            assert small_generating_set(G, C) == _reference_generating_set(G, C)
            assert normal_closure(G, gens).elements == \
                _reference_normal_closure(G, gens)

    @by_bound
    @settings(max_examples=30, deadline=None)
    @given(recipe=_recipes())
    def test_quotient_projection(self, bound, recipe):
        """The coset projection, read on the origin-free reference (a direct
        product's quotient by N_A x N_B is a product, with no projection),
        and G/N with the reference's elements."""
        with _bound(bound):
            G = recipe[1]()
            R = replace(G, listed=G.ordered, origin=None)
            for N in [derived_subgroup(G)] + [core_p(G, p)
                                              for p in sorted(factorint(G.order))]:
                Q = quotient(R, N)
                srt, reps = R.ordered, Q.ordered
                project = {srt[i]: reps[q]
                           for i, q in enumerate(Q.origin.to_q)}
                assert project == _reference_projection(G, N.elements)
                assert quotient(G, N).ordered == reps

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

    @by_bound
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(recipes=st.tuples(_recipes(), _recipes()))
    def test_direct_product_fitting_series(self, bound, recipes):
        """The series read off the factors is the one the element-multiplying
        path grows on the product: its terms, length and quotients."""
        with _bound(bound):
            A, B = (recipe[1]() for recipe in recipes)
            assume(A.order * B.order <= 2000)
            P = direct_product(A, B)
            got, want = (fitting_series(P),
                         fitting_series(replace(P, listed=P.ordered,
                                              origin=None)))
            assert [F.ids for F in got.series] == [F.ids for F in want.series]
            assert got.length == want.length
            assert [Q.ordered for Q in got.quotients] == \
                [Q.ordered for Q in want.quotients]

    @by_bound
    @settings(max_examples=30, deadline=None)
    @given(recipe=_recipes())
    # A4 = <(2 3 4), (1 2)(3 4)>: the generators' commutators lie in one
    # <d> of order 2, and only the first generator's table moves d, so
    # G' = V4 is reached only through that table
    @example(recipe=("perm", lambda: enumerate_group(
        [el.perm([0, 2, 3, 1]), el.perm([1, 0, 3, 2])])))
    def test_commutators(self, bound, recipe):
        with _bound(bound):
            G = recipe[1]()
            derived = _reference_derived(G)
            assert derived_subgroup(G).elements == derived
            assert is_metabelian(G) == _reference_metabelian(G, derived)


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
            index = dict(zip(G.ordered, data.class_ids))  # element -> class
            assert len(data.powers) == len(data.representatives)
            for rep, row in zip(data.representatives, data.powers):
                walked = [index[G.identity]]
                h = rep
                while h != G.identity:
                    walked.append(index[h])
                    h = G.mult(h, rep)
                assert row == tuple(walked)
                assert len(row) == element_order(G, rep)
                assert (element_verdict(G, rep)
                        == _reference_verdict(G, rep, index))


def test_only_enumerated_groups_are_tabulated():
    """Enumerated groups within the bound build a Cayley table; a subgroup
    view multiplies in its parent's ids at any order, as a quotient does."""
    def tabulated(G):
        return id_mul(G).__qualname__.startswith("_cayley_mul")
    S4 = catalog.sym(4)
    assert tabulated(S4) and not tabulated(sylow(S4, 2).as_group())
    L = catalog.catalog_entry("twofrob.l").build()
    F2 = fitting_series(L).series[2].as_group()
    assert F2.order == 448 <= groups.TABLE_BOUND and not tabulated(F2)
    assert not tabulated(direct_product(catalog.sym(3), catalog.cyclic(2)))
    assert not tabulated(catalog.catalog_entry("fig3.e").build())
    assert not tabulated(quotient(S4, core_p(S4, 2)))
    with _bound("no-table"):
        assert not tabulated(catalog.sym(4))


class _Poison:
    """Stands in for an id-core memo or an origin: any use of it fails the
    test."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("a poisoned memo or origin was read")

    __call__ = __getitem__ = __iter__ = __len__ = __contains__ = _fail
    __getattr__ = _fail


ID_CORE_KEYS = ("ids", "right_rows", "id_mul", "conj_tables")


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
    """With every id memo and the construction record poisoned, and every
    field and view of the class data but the representatives, the oracle
    still gives its verdict.

    Each call of build makes fresh groups, factors included, so no poison
    reaches another case.
    """
    expected = is_cut_group(build())
    G = build()
    # the representatives, read here beforehand, are the oracle's one input
    data = ConjugacyData(rep_ids=_Poison(), sizes=_Poison(), powers=_Poison(),
                         class_ids=_Poison(), elements=_Poison())
    vars(data).update(representatives=conjugacy_classes(G).representatives)
    G._memo["conjugacy"] = data
    for key in ID_CORE_KEYS:
        G._memo[key] = _Poison()
    object.__setattr__(G, "origin", _Poison())
    assert cut_oracle_via_bg(G) == expected


def _reference_derived(G):
    """The elements of G': the generators' commutators by element products,
    normally closed on G.mult (``_reference_normal_closure``)."""
    comms = {G.mult(G.inv(a), G.conjugate(a, b))
             for a in G.generators for b in G.generators}
    return _reference_normal_closure(G, sorted(comms))


def _reference_metabelian(G, derived):
    """Whether G' (its elements, ``derived``) is abelian: a generating set
    of it, multiplied as elements, commutes."""
    gens = _reference_generating_set(G, derived)
    return all(G.mult(a, b) == G.mult(b, a) for a in gens for b in gens)


def _commutator_inputs():
    """The corpus, the catalog, the sweep's semidirect products, a quotient,
    a quotient of a product, subgroup views, and S7 and GL(2,7) above the
    bound, all built fresh."""
    gs = list(catalog.distinct_corpus(1, 200, 2000).values())
    gs += [entry.build() for entry in catalog.catalog()]
    gs += [build() for _, _, build in catalog.frobenius_family_sweep()]
    S4 = catalog.sym(4)
    P = direct_product(catalog.sym(3), catalog.quaternion8())
    gs += [quotient(S4, core_p(S4, 2)), quotient(P, core_p(P, 3)),
           sylow(S4, 2).as_group(), derived_subgroup(S4).as_group(),
           fitting_series(catalog.catalog_entry("twofrob.l").build())
           .series[2].as_group()]
    gs.append(enumerate_group([el.perm_from_cycles(7, [[1, 2]]),
                               el.perm_from_cycles(7, [list(range(1, 8))])],
                              "S7"))
    # 3 is a primitive root mod 7, so diag(3, 1) adds every determinant
    gs.append(enumerate_group([el.mat(7, [[1, 1], [0, 1]]),
                               el.mat(7, [[0, 1], [1, 0]]),
                               el.mat(7, [[3, 0], [0, 1]])], "GL(2,7)"))
    return gs


def test_commutators_on_ids_match_element_products():
    """G' from the commutator ids and the metabelian test on G's classes
    agree with the element-product versions, under both bounds."""
    for bound in sorted(BOUNDS):
        with _bound(bound):
            gs = _commutator_inputs()
            assert {G.order for G in gs} >= {5040, 2016}
            verdicts = set()
            for G in gs:
                derived = _reference_derived(G)
                assert derived_subgroup(G).elements == derived, \
                    (G.label, bound)
                verdict = is_metabelian(G)
                assert verdict == _reference_metabelian(G, derived), \
                    (G.label, bound)
                verdicts.add(verdict)
            assert verdicts == {True, False}
