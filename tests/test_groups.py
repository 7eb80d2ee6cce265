import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from gklab import catalog
from gklab import elements as el
from gklab.cli import load_spec
from gklab.frobenius import fingerprint
from gklab.groups import (DEFAULT_CAP, ActionNotWellDefined, CapExceeded,
                          NotAnAutomorphism, NotMember, closure_in,
                          default_cap, direct_product, element_order,
                          element_orders_multiset, enumerate_group,
                          extend_to_automorphism, right_rows,
                          semidirect_product, subgroup_as_group)
from gklab.structure import core_p, derived_subgroup, quotient
from test_elements import _enumerated_parts, _reference_closure


def _check_search_order(G):
    """G's ids are the positions at which a test-local breadth-first search
    on ``elements.mul`` finds its elements, with the identity at id 0, and
    R_k[i] of its right rows is the id of x_i g_k."""
    listed = _reference_closure(G.generators, el.mul)
    assert G.ordered == listed, G.label
    assert G.ordered[0] is G.identity, G.label
    ids = {x: i for i, x in enumerate(listed)}
    assert [list(row) for row in right_rows(G)] == [
        [ids[el.mul(x, g)] for x in listed] for g in G.generators], G.label


# one perm spec of S5 and of W(B_4), and matgrp specs of dimension 2, 3, 4
SEARCH_SPEC = {"groups": {
    "S5": {"type": "perm", "degree": 5, "gens": [[[1, 2]], [[1, 2, 3, 4, 5]]]},
    "W(B_4)": {"type": "perm", "degree": 8,
               "gens": [[[1, 5]], [[1, 2, 3, 4], [5, 6, 7, 8]],
                        [[1, 2], [5, 6]]]},
    "GL(2,5)": {"type": "matgrp", "p": 5,
                "gens": [[[2, 0], [0, 1]], [[4, 1], [4, 0]]]},
    "SL(3,3)": {"type": "matgrp", "p": 3,
                "gens": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                         [[0, 0, 1], [1, 0, 0], [0, 1, 2]]]},
    "W(B_4) on F_3^4": {"type": "matgrp", "p": 3, "gens": [
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]},
}}

# the arguments each builtin is called with
BUILTIN_ARGS = {
    "cyclic": [(1,), (2,), (12,)], "elem_abelian": [(2, 3), (5, 2)],
    "dihedral": [(6,), (10,)], "quaternion8": [()], "sl2_3": [()],
    "dicyclic12": [()], "sym": [(n,) for n in range(1, 7)],
    "alt": [(n,) for n in range(3, 7)], "c7_c3": [()], "c7_c6": [()]}


@pytest.fixture(scope="module")
def search_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "search.json"
    path.write_text(json.dumps(SEARCH_SPEC))
    return load_spec(str(path))


def _det(rows, p):
    """Determinant mod p, by the Leibniz formula."""
    n, out = len(rows), 0
    for sigma in itertools.permutations(range(n)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))
        out += sign * math.prod(rows[i][sigma[i]] for i in range(n))
    return out % p


@st.composite
def _drawn_perms(draw):
    n = draw(st.integers(1, 7))
    return [el.perm(images) for images in draw(st.lists(
        st.permutations(range(n)), min_size=1, max_size=3))]


@st.composite
def _drawn_matrices(draw):
    """Invertible d x d matrices over F_p: GL(2, p) for p <= 7, or GL(3, 2)."""
    p, d = draw(st.sampled_from([(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)]))
    entries = st.lists(st.lists(st.integers(0, p - 1), min_size=d,
                                max_size=d), min_size=d, max_size=d)
    invertible = entries.filter(lambda rows: _det(rows, p))
    return [el.mat(p, rows) for rows in draw(st.lists(
        invertible, min_size=1, max_size=3))]


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

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv("GKLAB_MAX_ORDER", "100")
        with pytest.raises(CapExceeded):
            enumerate_group([el.perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]]),
                             el.perm_from_cycles(7, [[1, 2]])])

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

    @pytest.mark.parametrize("name", SEARCH_SPEC["groups"])
    def test_ids_follow_the_search_order(self, search_spec, name):
        _check_search_order(search_spec[name])

    def test_builtins_follow_the_search_order(self):
        assert set(BUILTIN_ARGS) == set(catalog.BUILTINS)
        for name, calls in BUILTIN_ARGS.items():
            for args in calls:
                _check_search_order(catalog.BUILTINS[name](*args))

    def test_catalog_and_corpus_groups_follow_the_search_order(self):
        builders = [e.build for e in catalog.catalog()] + catalog._corpus_pool()
        parts = {}
        for build in builders:
            _enumerated_parts(build(), parts)
        assert len(parts) > 40, len(parts)
        for G in parts.values():
            _check_search_order(G)

    @settings(max_examples=60, deadline=None)
    @given(gens=st.one_of(_drawn_perms(), _drawn_matrices()))
    def test_drawn_generators_follow_the_search_order(self, gens):
        _check_search_order(enumerate_group(gens))


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

    def test_cap_from_env(self, s3, monkeypatch):
        c2 = catalog.cyclic(2)
        monkeypatch.setenv("GKLAB_MAX_ORDER", "11")
        with pytest.raises(CapExceeded, match="product order 12 exceeds cap 11"):
            direct_product(s3, c2)
        monkeypatch.setenv("GKLAB_MAX_ORDER", "12")
        assert direct_product(s3, c2).order == 12


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

    def test_cap_from_env(self, monkeypatch):
        N, H = catalog.cyclic(3), catalog.cyclic(2)
        action = [[N.inv(N.generators[0])]]
        monkeypatch.setenv("GKLAB_MAX_ORDER", "5")
        with pytest.raises(CapExceeded, match="product order 6 exceeds cap 5"):
            semidirect_product(N, H, action)
        monkeypatch.setenv("GKLAB_MAX_ORDER", "6")
        assert semidirect_product(N, H, action).order == 6

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

    def test_non_subgroup_rejected(self, s4):
        # a ValueError, not an assert, so that python -O rejects it too
        with pytest.raises(ValueError, match=f"of {s4.label} is not a subgroup"):
            subgroup_as_group(s4, s4.ordered[:5])


SMALL_FACTORS = [catalog.cyclic(1), catalog.cyclic(2), catalog.cyclic(4),
                 catalog.elem_abelian(2, 2), catalog.sym(3),
                 catalog.quaternion8(), catalog.alt(4), catalog.dihedral(10),
                 catalog.c7_c3()]
QUOTIENT_SOURCES = [catalog.sym(4), catalog.sl2_3(), catalog.c7_c6(),
                    catalog.alt(4), catalog.dihedral(10), catalog.quaternion8(),
                    direct_product(catalog.sym(3), catalog.cyclic(4)),
                    catalog.vector_semidirect(3, 2, [[[0, 2], [1, 0]]])]


def _invertible(p: int, rows) -> bool:
    try:
        el.mat(p, rows)
    except ValueError:
        return False
    return True


def _invertible_matrices(p: int, d: int):
    return st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d).map(
        lambda xs: [xs[i:i + d] for i in range(0, d * d, d)]).filter(
        lambda rows: _invertible(p, rows))


@st.composite
def _built_groups(draw):
    """A direct product, semidirect product or quotient of small groups."""
    kind = draw(st.sampled_from(["direct", "semidirect", "quotient"]))
    if kind == "direct":
        return direct_product(draw(st.sampled_from(SMALL_FACTORS)),
                              draw(st.sampled_from(SMALL_FACTORS)))
    if kind == "semidirect":
        p, rank = draw(st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1)]))
        mats = draw(st.lists(_invertible_matrices(p, rank),
                             min_size=1, max_size=2))
        return catalog.vector_semidirect(p, rank, mats)
    G = draw(st.sampled_from(QUOTIENT_SOURCES))
    p = draw(st.sampled_from(sorted(factorint(G.order))))
    N = draw(st.sampled_from([core_p(G, p), derived_subgroup(G)]))
    return quotient(G, N)


class TestGeneratorsGenerate:
    """Products and quotients no longer check this when they are built."""

    @settings(max_examples=60, deadline=None)
    @given(X=_built_groups())
    def test_closure_of_generators_is_the_group(self, X):
        assert closure_in(X, X.generators) == X.elements


NOT_BIJECTIVE = "generator images do not induce a bijection"
NOT_MULTIPLICATIVE = "generator images are not multiplicative"


def _reference_extension(N, images):
    """Generator images multiplied along BFS words over N's generators, as
    before words were dropped: the automorphism, or the rejection message."""
    words = {N.identity: ()}
    frontier = [N.identity]
    while frontier:
        new = []
        for g in frontier:
            for i, s in enumerate(N.generators):
                h = N.mult(g, s)
                if h not in words:
                    words[h] = words[g] + (i,)
                    new.append(h)
        frontier = new
    amap = {}
    for n, word in words.items():
        acc = N.identity
        for i in word:
            acc = N.mult(acc, images[i])
        amap[n] = acc
    if len(set(amap.values())) != len(amap):
        return NOT_BIJECTIVE
    if any(amap[N.mult(n, g)] != N.mult(amap[n], images[i])
           for n in N.elements for i, g in enumerate(N.generators)):
        return NOT_MULTIPLICATIVE
    return amap


def _extension_or_message(N, images):
    try:
        return extend_to_automorphism(N, images)
    except NotAnAutomorphism as exc:
        return str(exc)


ELEMENTARY_KERNELS = {(p, rank): catalog.elem_abelian(p, rank)
                      for p, rank in [(2, 2), (3, 2), (2, 3), (5, 1)]}
# C4 x C2 on 6 points and C6 generated by g^2, g^3: generators of unequal
# orders, so some image pairs extend to bijections that are not multiplicative
OTHER_KERNELS = [catalog.sym(3), catalog.quaternion8(),
                 enumerate_group([el.perm_from_cycles(6, [[1, 2, 3, 4]]),
                                  el.perm_from_cycles(6, [[5, 6]])], "C4xC2"),
                 enumerate_group([el.perm_from_cycles(6, [[1, 3, 5], [2, 4, 6]]),
                                  el.perm_from_cycles(6, [[1, 4], [2, 5], [3, 6]])],
                                 "C6")]


@st.composite
def _kernel_images(draw):
    """A kernel with generator images: invertible linear maps of elementary
    abelian kernels, conjugations, or arbitrary (mostly invalid) images."""
    if draw(st.booleans()):
        (p, rank), N = draw(st.sampled_from(sorted(ELEMENTARY_KERNELS.items())))
        if draw(st.booleans()):
            rows = draw(_invertible_matrices(p, rank))
            return N, catalog.matrix_action(N, [el.mat(p, rows)])[0]
    else:
        N = draw(st.sampled_from(OTHER_KERNELS))
        if draw(st.booleans()):
            x = draw(st.sampled_from(N.ordered))
            return N, [N.conjugate(g, x) for g in N.generators]
    rank = len(N.generators)
    return N, draw(st.lists(st.sampled_from(N.ordered),
                            min_size=rank, max_size=rank))


class TestExtendToAutomorphism:
    @settings(max_examples=120, deadline=None)
    @given(case=_kernel_images())
    def test_matches_word_reference(self, case):
        N, images = case
        assert _extension_or_message(N, images) == _reference_extension(N, images)

    @pytest.mark.parametrize("N, outcomes", [
        (ELEMENTARY_KERNELS[2, 2], {"automorphism", NOT_BIJECTIVE}),
        (OTHER_KERNELS[2], {"automorphism", NOT_BIJECTIVE, NOT_MULTIPLICATIVE}),
    ], ids=["C2^2", "C4xC2"])
    def test_every_image_pair(self, N, outcomes):
        seen = set()
        for images in itertools.product(N.ordered, repeat=2):
            got = _extension_or_message(N, list(images))
            assert got == _reference_extension(N, list(images))
            seen.add(got if isinstance(got, str) else "automorphism")
        assert seen == outcomes


def _counting_mult(G):
    """G with a multiplication that counts its calls, and the count."""
    calls = [0]

    def mult(a, b):
        calls[0] += 1
        return G.mult(a, b)
    return replace(G, mult=mult), calls


class TestOneSearch:
    """The BFS that builds a map from generator images also checks it, on
    id rows: a handle that did not come from enumeration multiplies each
    Cayley edge once, for its rows, and the map and its check multiply
    none."""

    @pytest.mark.parametrize("N", [*ELEMENTARY_KERNELS.values(), *OTHER_KERNELS],
                             ids=lambda N: N.label)
    def test_extension_multiplies_each_edge_once(self, N):
        x = N.ordered[-1]
        images = [N.conjugate(g, x) for g in N.generators]
        counted, calls = _counting_mult(N)
        assert extend_to_automorphism(counted, images) == \
            extend_to_automorphism(N, images)
        assert calls[0] == N.order * len(N.generators)

    def test_action_multiplies_each_acting_edge_once(self):
        N = catalog.cyclic(7)
        g = N.generators[0]
        cube = N.mult(g, N.mult(g, g))  # x -> x^3 has order 6 in Aut(C7)
        S3 = catalog.sym(3)
        # S3 acts on C7 through its sign: odd generators invert
        by_sign = [[N.inv(g)] if sum(len(c) - 1 for c in el.perm_to_cycles(h)) % 2
                   else [g] for h in S3.generators]
        for H, action in [(catalog.cyclic(6), [[cube]]), (S3, by_sign)]:
            counted, calls = _counting_mult(H)
            assert semidirect_product(N, counted, action).order == 7 * H.order
            assert calls[0] == H.order * len(H.generators)
