"""The normalizer-scan cut oracle against its old full scan.

The oracle skips class representatives whose order n has phi(n) <= 2 and
reads each cyclic subgroup's exponent set once, by orbit-stabiliser: a BFS
orbit of <g> under conjugation by the generators, its Schreier generators'
exponents, and their closure mod n.  The reference below is the old oracle:
every representative with n > 2 scanned by conjugating g with every element
of G, each conjugation with a fresh ``G.inv``.  ``TestOrbitStabiliser``
compares the two exponent sets on every class representative of groups of
each construction kind.  ``TestPruningLemmas`` checks the lemmas that let it
scan less: generators of one cyclic subgroup, and conjugates, share the
exponent set, so each conjugacy class of cyclic subgroups is scanned once,
and the powers of a passing representative pass; ``_parent_oracle``, the
oracle that scanned each cyclic subgroup once, gives the same verdicts on
the corpus.  ``TestEarlyStop`` checks that the scan, which stops once the
exponents it found generate all of U(|g|), reads the image of the whole
orbit's scan (``_whole_orbit_scan``), and indexes part of that scan's
index only when the image is full.  The oracle seeds its scan with |g| - 1
and stops once the exponents and -1 generate U(|g|), which is all it asks:
g is inverse semi-rational iff they do.  Seeded so, the scan's closure is
the whole scan's image and its negatives, its verdict is the whole scan's,
and it indexes part of that scan's index only when g passes.  Counting
spies on ``elements.mul`` pin how few element products the oracle makes
on fig3.k and on the sweep's C7^2 x| (Q8 x C3).
"""

import functools
from math import gcd

import pytest

from gklab import catalog
from gklab import elements as el
from gklab.groups import (direct_product, element_order, enumerate_group,
                          semidirect_product)
from gklab.rationality import (NEITHER, _powers, _scan_orbit,
                               cut_oracle_via_bg, element_verdict,
                               is_cut_group, scanned_iota_exponents)
from gklab.structure import (class_representatives, conjugacy_classes, core_p,
                             cyclic_subgroup_set, minimal_normal_subgroups,
                             quotient)


def _units(n):
    return [m for m in range(1, n + 1) if gcd(m, n) == 1]


def _reference_scan(G, g):
    n = element_order(G, g)
    powers = [G.identity]
    for _ in range(n - 1):
        powers.append(G.mult(powers[-1], g))
    power_index = {h: m for m, h in enumerate(powers)}
    cyc = cyclic_subgroup_set(G, g)
    exps = set()
    for x in G.elements:
        h = G.conjugate(g, x)
        if h in cyc:
            exps.add(power_index[h] % n or n)
    return frozenset(exps)


def _scan_passes(n, exps):
    full = set(_units(n))
    return exps == full or (2 * len(exps) == len(full) and n - 1 not in exps)


def _reference_passes(G, g):
    """Is g inverse semi-rational, by the reference scan?"""
    return _scan_passes(element_order(G, g), _reference_scan(G, g))


def _reference_oracle(G):
    for rep in class_representatives(G):
        n = element_order(G, rep)
        if n > 2 and not _scan_passes(n, _reference_scan(G, rep)):
            return False
    return True


def _parent_oracle(G):
    """The oracle as it was before it skipped conjugates: one scan per
    cyclic subgroup <rep> with phi(|rep|) > 2."""
    seen = set()
    for rep in class_representatives(G):
        cyc = cyclic_subgroup_set(G, rep)
        n = len(cyc)
        if n in (1, 2, 3, 4, 6) or cyc in seen:
            continue
        seen.add(cyc)
        if not _scan_passes(n, scanned_iota_exponents(G, rep)):
            return False
    return True


def _c5_c4():
    return catalog.vector_semidirect(5, 1, [[[2]]], "C5 x| C4")


SMALL_BUILDERS = {
    "C12": lambda: catalog.cyclic(12), "C3^2": lambda: catalog.elem_abelian(3, 2),
    "D4": lambda: catalog.dihedral(8), "D5": lambda: catalog.dihedral(10),
    "D6": lambda: catalog.dihedral(12), "Q8": catalog.quaternion8,
    "SL(2,3)": catalog.sl2_3, "Dic12": catalog.dicyclic12,
    "Q8 x C3": catalog.quaternion8_times_c3, "C7 x| C3": catalog.c7_c3,
    "C7 x| C6": catalog.c7_c6, "S4": lambda: catalog.sym(4),
    "A4": lambda: catalog.alt(4), "A5": lambda: catalog.alt(5),
    "C5 x| C4": _c5_c4,
}

# Not cut, with a failing element of order n where phi(n) > 2.  In the
# C5^2 x| C4 and C7^2 x| C3 groups (diagonal actions) the basis lines pass
# and the mixed lines of the same order fail, and no other order fails, so
# an oracle that scanned one subgroup per order would call them cut.  In
# C5 x D5 and D5 x C5 every order-5 and order-10 subgroup fails.
NON_CUT_BUILDERS = {
    "C5": lambda: catalog.cyclic(5),
    "C8": lambda: catalog.cyclic(8),
    "C5 x| C4 x C7 x| C3": lambda: direct_product(_c5_c4(), catalog.c7_c3()),
    "C5 x D5": lambda: direct_product(catalog.cyclic(5), catalog.dihedral(10)),
    "D5 x C5": lambda: direct_product(catalog.dihedral(10), catalog.cyclic(5)),
    "C5^2 x| C4 (2, 3)": lambda: catalog.vector_semidirect(
        5, 2, [[[2, 0], [0, 3]]]),
    "C5^2 x| C4 (3, 2)": lambda: catalog.vector_semidirect(
        5, 2, [[[3, 0], [0, 2]]]),
    "C7^2 x| C3 (2, 4)": lambda: catalog.vector_semidirect(
        7, 2, [[[2, 0], [0, 4]]]),
}


def _matrix_semidirect_of_direct():
    """(C5 x C5) x| <diag(2, 3), swap>, acting through ``matrix_action``."""
    N = direct_product(catalog.cyclic(5), catalog.cyclic(5))
    ms = [el.mat(5, [[2, 0], [0, 3]]), el.mat(5, [[0, 1], [1, 0]])]
    return semidirect_product(N, enumerate_group(ms, "H"),
                              catalog.matrix_action(N, ms))


def _inner_semidirect():
    """C7 x| C6 extended by C6 acting as conjugation by an element of
    order 6: a non-abelian kernel."""
    N = catalog.c7_c6()
    x = next(x for x in N.ordered if element_order(N, x) == 6)
    return semidirect_product(N, catalog.cyclic(6),
                              [[N.conjugate(g, x) for g in N.generators]])


def _s4_mod_o2():
    S4 = catalog.sym(4)
    return quotient(S4, core_p(S4, 2))


def _product_mod_o7():
    """((C7 x| C6) x (C5 x| C4)) / O_7, built as (C7 x| C6)/C7 x C5 x| C4:
    elements of order 5, 10, 12, 15 and 30."""
    P = direct_product(catalog.c7_c6(), _c5_c4())
    return quotient(P, core_p(P, 7))


def _dic12_c4_mod_diagonal():
    """(Dic12 x C4) / <(z, w)>, z and w the factors' involutions: a
    diagonal N, so a quotient of a product on the generic path, with
    elements of order 12."""
    P = direct_product(catalog.dicyclic12(), catalog.cyclic(4))
    N, = [N for N in minimal_normal_subgroups(P) if N.order == 2
          and len({i // 4 for i in N.ids}) == len({i % 4 for i in N.ids}) == 2]
    return quotient(P, N)


ORBIT_BUILDERS = {
    "C1": lambda: catalog.cyclic(1),
    "S4 / O_2(S4)": _s4_mod_o2,
    "(C7 x| C6 x C5 x| C4) / O_7": _product_mod_o7,
    "(Dic12 x C4) / diagonal C2": _dic12_c4_mod_diagonal,
    "C5 x| C4 x D5": lambda: direct_product(_c5_c4(), catalog.dihedral(10)),
    "C5^2 x| H (matrix_action)": _matrix_semidirect_of_direct,
    "(C7 x| C6) x| C6 (inner)": _inner_semidirect,
}


@pytest.fixture(scope="module")
def corpus_groups():
    return list(catalog.distinct_corpus(1, 60, 700).values())


class TestAgainstFullScan:
    @pytest.mark.parametrize("name", sorted(SMALL_BUILDERS))
    def test_small_catalog(self, name):
        G = SMALL_BUILDERS[name]()
        assert cut_oracle_via_bg(G) == _reference_oracle(G)

    def test_corpus(self, corpus_groups):
        assert len(corpus_groups) >= 20
        for G in corpus_groups:
            assert cut_oracle_via_bg(G) == _reference_oracle(G), G.label

    @pytest.mark.parametrize("name", sorted(NON_CUT_BUILDERS))
    def test_non_cut_with_large_phi(self, name):
        G = NON_CUT_BUILDERS[name]()
        assert not _reference_oracle(G)
        assert not cut_oracle_via_bg(G)
        assert not is_cut_group(G)

    def test_scanned_exponents_match(self):
        for G in (catalog.c7_c6(), catalog.sl2_3(), _c5_c4(),
                  NON_CUT_BUILDERS["C5^2 x| C4 (2, 3)"]()):
            for rep in class_representatives(G):
                assert scanned_iota_exponents(G, rep) == _reference_scan(G, rep)


class TestPruningLemmas:
    @pytest.mark.parametrize("name", ["C7 x| C6", "Dic12", "C5 x| C4", "C8",
                                      "C5^2 x| C4 (2, 3)"])
    def test_generators_of_one_cyclic_subgroup_share_exponents(self, name):
        G = {**SMALL_BUILDERS, **NON_CUT_BUILDERS}[name]()
        for rep in class_representatives(G):
            n = element_order(G, rep)
            exps = scanned_iota_exponents(G, rep)
            for k in _units(n):
                power = functools.reduce(G.mult, [rep] * k, G.identity)
                assert scanned_iota_exponents(G, power) == exps

    def test_orders_3_4_6_pass_both_oracles(self, corpus_groups):
        groups = corpus_groups + [b() for b in SMALL_BUILDERS.values()] + \
            [b() for b in NON_CUT_BUILDERS.values()]
        seen = 0
        for G in groups:
            for rep in class_representatives(G):
                n = element_order(G, rep)
                if n in (3, 4, 6):
                    seen += 1
                    assert element_verdict(G, rep).verdict != NEITHER
                    assert _scan_passes(n, _reference_scan(G, rep))
        assert seen > 50

    @pytest.mark.parametrize("name", sorted(ORBIT_BUILDERS)
                             + sorted(NON_CUT_BUILDERS))
    def test_conjugates_share_exponents(self, name):
        """x^-1 g^k x has g's exponent set for every unit k; x runs over
        the generators, their inverses and a few other elements."""
        G = {**ORBIT_BUILDERS, **NON_CUT_BUILDERS}[name]()
        xs = list(G.generators) + [G.inv(s) for s in G.generators] + \
            G.ordered[::max(1, G.order // 4)]
        for rep in class_representatives(G):
            n = element_order(G, rep)
            exps = scanned_iota_exponents(G, rep)
            units = _units(n)
            for k in {units[0], units[len(units) // 2], units[-1]}:
                power = functools.reduce(G.mult, [rep] * k, G.identity)
                for x in xs:
                    assert scanned_iota_exponents(
                        G, G.conjugate(power, x)) == exps, (rep, k, x)

    def test_powers_of_a_passing_representative_pass(self, corpus_groups):
        """If g is inverse semi-rational, so is every g^j, which lets the
        oracle skip a representative among the powers of one that passed.
        Generators of one cyclic subgroup share the exponent set, so g^d
        for each divisor d of |g| stands for every power."""
        seen = 0
        for G in corpus_groups:
            passes = functools.cache(functools.partial(_reference_passes, G))
            for rep in class_representatives(G):
                n = element_order(G, rep)
                ds = [d for d in range(2, n // 2) if n % d == 0]  # |g^d| > 2
                if not ds or not passes(rep):
                    continue
                for d in ds:
                    seen += 1
                    power = functools.reduce(G.mult, [rep] * d)
                    assert passes(power), (G.label, rep, d)
        assert seen > 50

    def test_oracle_matches_parent_oracle(self):
        """One scan per conjugacy class of cyclic subgroups gives the
        verdicts of one scan per cyclic subgroup."""
        groups = catalog.distinct_corpus(1, 200, 2000)
        assert len(groups) > 100
        verdicts = set()
        for label, G in groups.items():
            verdict = cut_oracle_via_bg(G)
            assert verdict == _parent_oracle(G), label
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestOrbitStabiliser:
    @pytest.mark.parametrize("name", sorted(ORBIT_BUILDERS))
    def test_every_representative_matches_reference(self, name):
        G = ORBIT_BUILDERS[name]()
        reps = class_representatives(G)
        assert G.identity in reps
        for rep in reps:
            assert scanned_iota_exponents(G, rep) == _reference_scan(G, rep)

    def test_direct_product_has_four_generators(self):
        assert len(ORBIT_BUILDERS["C5 x| C4 x D5"]().generators) >= 4

    def test_large_product_agrees_with_class_oracle(self):
        # order 2304 with 336 cyclic subgroups to read: too slow for the
        # reference scan, so the class-partition oracle is the check
        A = direct_product(catalog.cyclic(6), catalog.quaternion8())
        G = direct_product(A, A)
        assert cut_oracle_via_bg(G) == is_cut_group(G)


def _whole_orbit_scan(G, g):
    """The orbit-stabiliser scan as it was before it stopped at a full
    image: (image, index) over the whole orbit of <g>."""
    first = [g]
    while first[-1] != G.identity:
        first.append(G.mult(first[-1], g))
    n = len(first)
    units = _units(n)
    gens = [(s, G.inv(s)) for s in G.generators]
    exps = set()
    frontier = [[first[k - 1] for k in units]]
    index = dict(zip(frontier[0], units))
    while frontier:
        new = []
        for hs in frontier:
            for s, si in gens:
                x = G.mult(si, G.mult(hs[0], s))
                k = index.get(x)
                if k is None:
                    xs = [x, *(G.mult(si, G.mult(y, s)) for y in hs[1:])]
                    index.update(zip(xs, units))
                    new.append(xs)
                elif k != 1:
                    exps.add(k)
        frontier = new
    closed, frontier = {1}, [1]
    while frontier:
        new = []
        for m in frontier:
            for k in exps:
                mk = m * k % n
                if mk not in closed:
                    closed.add(mk)
                    new.append(mk)
        frontier = new
    return frozenset(closed), index


class TestEarlyStop:
    def test_image_and_index_match_the_whole_orbit_scan(self):
        """On every class representative of the distinct corpus and the
        catalog: the same image; the index is the whole scan's, or, when
        the image is full, part of it.  On each one the oracle scans
        (phi(|g|) > 2), the scan seeded with |g| - 1 closes to the image
        and its negatives and gives the whole scan's verdict; its index is
        part of the whole scan's, and less only when g passes."""
        groups = list(catalog.distinct_corpus(1, 200, 2000).values())
        groups += [entry.build() for entry in catalog.catalog()]
        stopped = seeded_stops = 0
        for G in groups:
            gens = [(s, G.inv(s)) for s in G.generators]
            for rep in class_representatives(G):
                image, index = _whole_orbit_scan(G, rep)
                assert scanned_iota_exponents(G, rep) == image, (G.label, rep)
                first = _powers(G, rep)
                n = len(first)
                units = _units(n)
                exps, part = _scan_orbit(G, first, gens)
                assert exps == image and part.items() <= index.items()
                if part != index:
                    assert len(image) == len(units)
                    stopped += 1
                if n in (1, 2, 3, 4, 6):
                    continue
                closure, part = _scan_orbit(G, first, gens, (n - 1,))
                assert closure == image | {n - k for k in image}
                passes = len(closure) == len(units)
                assert passes == _scan_passes(n, image), (G.label, rep)
                assert part.items() <= index.items()
                if part != index:
                    assert passes, (G.label, rep)
                    seeded_stops += 1
        assert stopped > 50 and seeded_stops > 50, (stopped, seeded_stops)

    def test_oracle_on_fig3k_multiplies_little(self, monkeypatch):
        """fig3.k = (C5^2 x| Q8) x S3 is rational, so every scan stops
        early, and conjugating by a generator multiplies only the component
        it moves: the oracle makes 327 element products.  Whole orbits,
        scanned with every component multiplied, take 5,928."""
        calls = _oracle_products(monkeypatch,
                                 catalog.catalog_entry("fig3.k").build)
        assert 0 < calls <= 1000

    def test_oracle_on_the_sweeps_c7_square_group_multiplies_little(
            self, monkeypatch):
        """C7^2 x| (Q8 x C3) is cut and not rational: an element of order
        12 has the image {1, 7} in U(12), which generates U(12) only
        together with -1.  The oracle's scan stops there: 107 element
        products in all.  A scan that stops only at a full image walks
        those orbits whole and takes 2,123."""
        sweep = {name: build for name, _, build
                 in catalog.frobenius_family_sweep()}
        build = sweep["C7^2 x| (Q8 x C3)"]
        assert 0 < _oracle_products(monkeypatch, build) <= 150


def _oracle_products(monkeypatch, build) -> int:
    """``elements.mul`` calls of ``cut_oracle_via_bg`` on build(), a cut
    group built on the counting spy, its classes listed beforehand."""
    real, calls = el.mul, []

    def counting(a, b):
        calls.append(a[0])
        return real(a, b)
    monkeypatch.setattr(el, "mul", counting)
    G = build()
    class_representatives(G)
    del calls[:]
    assert cut_oracle_via_bg(G)
    return len(calls)
