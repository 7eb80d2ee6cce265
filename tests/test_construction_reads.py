"""Frobenius, Sylow and metacyclic structure read off what G already holds.

The 2-Frobenius test decides whether F_2 is Frobenius on G's own classes,
with no subgroup view, by the kernel test that decides G itself; the
Frobenius family match reads the kernel off G's classes and the complement
as G/K, with no subgroup view; a semidirect product N x| H whose kernel
is a p-group or a p'-group composes its Sylow p-subgroup from H's; and the
metacyclic test reads one power-map entry per prime of the index.  Each is
checked against a local copy of the code it replaced, or against the
generic path ``replace(G, listed=G.ordered, origin=None)``, and a spy
checks that the replaced work is not done.
"""

import json
import re
from dataclasses import replace
from math import gcd

import pytest
from sympy import factorint

from gklab import catalog, cli, frobenius, groups, structure
from gklab import elements as el
from gklab.frobenius import (_REFERENCE_BUILDS, _decompose,
                             _reference_fingerprint, _two_frobenius,
                             fingerprint, frobenius_kind, is_frobenius,
                             match_frobenius_cut_family)
from gklab.groups import (_LazyTuple, direct_product, enumerate_group, id_mul,
                          semidirect_product)
from gklab.structure import (InvariantFailed, SubgroupHandle,
                             conjugacy_classes, exponent, fitting,
                             fitting_series, is_abelian, is_cyclic,
                             is_metacyclic, minimal_normal_subgroups, quotient,
                             sylow)
from gklab.verify import _check_group_invariants
from test_idcore import BOUNDS, _bound
from test_pair_arithmetic import (_c7_by_c3_x_c2, _direct_by_direct,
                                  _matrix_semidirect_of_direct)
from test_product_structure import _check_sylow

by_bound = pytest.mark.parametrize("bound", sorted(BOUNDS))


def _reference_complement(G, ks, m):
    """The complement scan as ``_decompose`` ran it on every decomposition:
    C_G(t) for the first class representative t outside the kernel whose
    class has |K| elements."""
    mul, data = id_mul(G), conjugacy_classes(G)
    t = next((rep for rep, size in zip(data.rep_ids, data.sizes)
              if size == len(ks) and rep not in ks), None)
    if t is None:
        raise InvariantFailed(f"no class of size {len(ks)} in {G.label}")
    cent = frozenset(x for x in range(G.order) if mul(x, t) == mul(t, x))
    if len(cent) != m or len(cent & ks) != 1:
        raise InvariantFailed(f"no complement of order {m} in {G.label}")
    return cent


def _reference_view_decompose(H):
    """``_decompose`` of the F_2 view as it ran before the class read: the
    view's own Fitting subgroup, the coprimality test, the kernel condition
    on the view's classes and the complement scan.  The reason, or None."""
    F = fitting(H)
    if F.order in (1, H.order):
        return f"{H.label}: Fitting subgroup is trivial or all of G"
    m = H.order // F.order
    if gcd(F.order, m) != 1:
        return f"{H.label}: kernel order not coprime to index"
    data = conjugacy_classes(H)
    if not all(size % m == 0 for rep, size in zip(data.rep_ids, data.sizes)
               if rep != 0 and rep in F.ids):
        return f"{H.label}: centralizer condition fails"
    _reference_complement(H, F.ids, m)
    return None


def _reference_two_frobenius(G):
    """The 2-Frobenius verdict with F_2 tested on its subgroup view: the
    reason G is not 2-Frobenius, or None."""
    fs = fitting_series(G)
    if isinstance(reason := _decompose(fs.quotients[0]), str):
        return reason
    return _reference_view_decompose(fs.series[2].as_group(f"{G.label}-F2"))


def _reference_inline_two_frobenius(G):
    """The 2-Frobenius verdict with F_2's kernel test inline, as it ran
    before ``_kernel_reason``, and G/F_1 decided as ``_decompose`` did by
    class sizes: the reason G is not 2-Frobenius, or None."""
    fs = fitting_series(G)
    if not fs.solvable or fs.length != 3:
        return f"{G.label}: Fitting length is not 3"
    _, F1, F2, _ = fs.series
    if (reason := _reference_view_decompose(fs.quotients[0])) is not None:
        return reason
    k, m = F1.order, F2.order // F1.order
    if gcd(k, m) != 1:
        return f"{G.label}-F2: kernel order not coprime to index"
    data = conjugacy_classes(G)
    if any(gcd(len(row), k) > 1 and gcd(len(row), m) > 1
           for rep, row in zip(data.rep_ids, data.powers) if rep in F2.ids):
        return f"{G.label}-F2: centralizer condition fails"
    return None


def _fitting_length_three():
    """Every group of Fitting length 3 in two corpora, the catalog and the
    family sweep, and S4, each built fresh."""
    pool = [*catalog.distinct_corpus(1, 400, 3000).values(),
            *catalog.distinct_corpus(2, 400, 3000).values(),
            *(entry.build() for entry in catalog.catalog()),
            *(build() for _, _, build in catalog.frobenius_family_sweep()),
            catalog.sym(4)]
    return [G for G in pool if fitting_series(G).length == 3]


@by_bound
def test_two_frobenius_reads_match_the_view(bound):
    """The class read of F_2 against ``_decompose`` of F_2's view and
    against the inline test it replaced: the same verdict and the same
    reason, and F_1, F_2 as the series holds them."""
    with _bound(bound):
        reasons = set()
        inputs = _fitting_length_three()
        for G in inputs:
            got = _two_frobenius(G)
            want = _reference_two_frobenius(G)
            assert _reference_inline_two_frobenius(G) == want, G.label
            if want is None:
                _, F1, F2, _ = fitting_series(G).series
                assert (got.f1, got.f2) == (F1, F2), G.label
                reasons.add(None)
            else:
                assert got == want, G.label
                reasons.add(want.split(": ")[-1] if "-F2: " in want
                            else "G/F_1")
    assert len(inputs) >= 48, len(inputs)
    assert reasons == {None, "G/F_1", "kernel order not coprime to index",
                       "centralizer condition fails"}, reasons


def _frobenius_groups():
    """Every Frobenius group the repo builds: catalog entries, the family
    sweep, the corpus, and the first Fitting quotient of each 2-Frobenius
    catalog entry."""
    entries = [entry.build() for entry in catalog.catalog()]
    pool = [*entries,
            *(build() for _, _, build in catalog.frobenius_family_sweep()),
            *catalog.distinct_corpus(1, 200, 2000).values(),
            *(fitting_series(G).quotients[0] for G in entries
              if fitting_series(G).length == 3)]
    return [G for G in pool if is_frobenius(G)]


def _spy_views(monkeypatch):
    """The labels of the subgroup views built from now on."""
    views = []
    for module in (groups, structure):
        view = module.subgroup_view

        def counting(parent, members, label="", *args, view=view, **kwargs):
            views.append(label)
            return view(parent, members, label, *args, **kwargs)
        monkeypatch.setattr(module, "subgroup_view", counting)
    return views


def test_verdicts_and_reports_scan_no_complement(monkeypatch):
    """``frobenius_kind``, the analysis report and the invariant check
    decompose each Frobenius group, and the family match then builds no
    subgroup view: it reads the kernel off G's classes and fingerprints
    G/K."""
    for name in _REFERENCE_BUILDS:  # built once per process, before
        _reference_fingerprint(name)
    fresh = _frobenius_groups()
    assert len(fresh) > 20, len(fresh)
    for G in fresh:
        assert frobenius_kind(G) == frobenius.FROBENIUS
        cli.analysis_report({G.label: G}, {})
        _check_group_invariants(G)
    views = _spy_views(monkeypatch)
    assert [match_frobenius_cut_family(G) for G in fresh]
    assert views == []


def test_missing_complement_class_still_fails_at_decomposition():
    """The decomposition keeps its eager check that some class outside K
    has |K| elements: with every class size doubled, and the class rows
    that the kernel test reads left as they are, it raises."""
    G = catalog.c7_c6()
    fitting(G)  # read on the true classes
    data = conjugacy_classes(G)
    G._memo["conjugacy"] = replace(data,
                                   sizes=tuple(2 * s for s in data.sizes))
    with pytest.raises(InvariantFailed, match="no class of size 7"):
        _decompose(G)


def _reference_family(G):
    """The family match as it ran on subgroup views: the decomposition by
    class sizes and the centralizer scan, the kernel view tested elementary
    abelian, the complement view fingerprinted."""
    if _reference_view_decompose(G) is not None:
        return None
    F = fitting(G)
    kernel = F.as_group(f"{G.label}-kernel")
    cs = _reference_complement(G, F.ids, G.order // F.order)
    comp = SubgroupHandle(G, cs).as_group(f"{G.label}-comp")
    kfact = factorint(kernel.order)
    if len(kfact) != 1:
        return None
    [(p, n)] = kfact.items()
    if not (is_abelian(kernel) and exponent(kernel) == p):
        return None
    cf = fingerprint(comp)
    name = next((nm for nm in _REFERENCE_BUILDS
                 if _reference_fingerprint(nm) == cf), None)
    if name is None:
        return None
    table = {
        (3, "C2"): "C3^n x| C2",
        (3, "C4"): "C3^2n x| C4" if n % 2 == 0 else None,
        (3, "Q8"): "C3^2n x| Q8" if n % 2 == 0 else None,
        (5, "C4"): "C5^n x| C4",
        (5, "Q8"): "C5^2 x| Q8" if n == 2 else None,
        (5, "C3:C4"): "C5^2 x| (C3 x| C4)" if n == 2 else None,
        (5, "SL(2,3)"): "C5^2 x| SL(2,3)" if n == 2 else None,
        (7, "C6"): "C7^n x| C6",
        (7, "Q8xC3"): "C7^2n x| (Q8 x C3)" if n % 2 == 0 else None,
        (7, "SL(2,3)"): "C7^2 x| SL(2,3)" if n == 2 else None,
    }
    family = table.get((p, name))
    if family is not None:
        return family
    return "unmatched-but-consistent" if name == "C3" else None


def _more_kernels():
    """(expected family, group) for Frobenius groups the family sweep does
    not reach: kernels of rank 3 and 4, and two that belong to no family,
    as their kernels are not elementary abelian: C9 x| C2, abelian of
    exponent 9, and U(3,7) x| C3, of exponent 7 but not abelian."""
    i3, j3 = [[0, 2], [1, 0]], [[1, 1], [1, 2]]

    def scalar(rank, a):
        return [[a if r == c else 0 for c in range(rank)] for r in range(rank)]

    def blocks(m):  # diag(m, m)
        return [row + [0, 0] for row in m] + [[0, 0] + row for row in m]
    unitriangular = [el.mat(7, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                     el.mat(7, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])]
    # x -> x^2, y -> y^2, [x, y] -> [x, y]^4: no fixed point but 1
    c3 = el.mat(7, [[4, 0, 0], [0, 2, 0], [0, 0, 1]])
    c9 = catalog.cyclic(9)
    (g,) = c9.generators
    return [
        ("C3^n x| C2", catalog.vector_semidirect(3, 3, [scalar(3, 2)],
                                                 "C3^3 x| C2")),
        ("C5^n x| C4", catalog.vector_semidirect(5, 3, [scalar(3, 2)],
                                                 "C5^3 x| C4")),
        ("C7^n x| C6", catalog.vector_semidirect(7, 3, [scalar(3, 3)],
                                                 "C7^3 x| C6")),
        ("C3^2n x| C4", catalog.vector_semidirect(3, 4, [blocks(i3)],
                                                  "C3^4 x| C4")),
        ("C3^2n x| Q8", catalog.vector_semidirect(
            3, 4, [blocks(i3), blocks(j3)], "C3^4 x| Q8")),
        (None, semidirect_product(c9, catalog.cyclic(2), [[c9.inv(g)]])),
        (None, enumerate_group([*unitriangular, c3], "U(3,7) x| C3")),
    ]


def test_more_kernels_match_their_families():
    orders = []
    for tag, G in _more_kernels():
        assert is_frobenius(G), G.label
        assert match_frobenius_cut_family(G) == tag, G.label
        orders.append(G.order)
    assert orders == [54, 500, 2058, 324, 648, 18, 1029]


@by_bound
def test_family_match_matches_the_view_match(bound):
    """The family match against its copy on subgroup views, on the
    distinct corpus, the catalog, the family sweep and ``_more_kernels``,
    each built fresh: the same answer for every group."""
    def pool():
        return [*catalog.distinct_corpus(1, 200, 2000).values(),
                *(entry.build() for entry in catalog.catalog()),
                *(build() for _, _, build in catalog.frobenius_family_sweep()),
                *(G for _, G in _more_kernels())]
    with _bound(bound):
        got = [match_frobenius_cut_family(G) for G in pool()]
        assert got == [_reference_family(G) for G in pool()]
    matched = [tag for tag in got if tag is not None]
    assert len(matched) >= 35 and None in got
    assert "unmatched-but-consistent" in matched


def _q8_by_c3(tmp_path):
    """Q8 as 2x2 matrices over F_3, acted on by C3 cycling i -> j -> ij,
    from a spec."""
    spec = tmp_path / "q8c3.json"
    spec.write_text(json.dumps({"groups": {
        "q8": {"type": "matgrp", "p": 3,
               "gens": [[[0, 2], [1, 0]], [[1, 1], [1, 2]]]},
        "c3": {"type": "builtin", "name": "cyclic", "args": [3]},
        "sd": {"type": "semidirect", "kernel": "q8", "acting": "c3",
               "action_images": [[[1], [0, 1]]]}}}))
    return cli.load_spec(str(spec))["sd"]


def _c6_by_c2():
    """C6 x| C2 by inversion: a kernel that is neither a 2-group nor a
    2'-group, nor a 3-group nor a 3'-group."""
    N = catalog.cyclic(6)
    (g,) = N.generators
    return semidirect_product(N, catalog.cyclic(2), [[N.inv(g)]])


SEMIDIRECT = {
    "Q8 x| C3": _q8_by_c3,
    "C7 x| (C3 x C2)": lambda tmp_path: _c7_by_c3_x_c2(),
    "(C3 x C3) x| (C2 x C2)": lambda tmp_path: _direct_by_direct(),
    "(C5 x C5) x| H": lambda tmp_path: _matrix_semidirect_of_direct(),
    **{name: lambda tmp_path, build=build: build()
       for name, _, build in catalog.frobenius_family_sweep()},
}


def _span_groups(monkeypatch):
    """The handles each new ``groups.Span`` is built on, from now on."""
    built = []
    init = groups.Span.__init__
    monkeypatch.setattr(groups.Span, "__init__", lambda self, G:
                        built.append(G) or init(self, G))
    return built


def _closure(G, gens):
    """The closure of ids gens under G's id products, breadth first."""
    mul, out = id_mul(G), {0}
    frontier = list(out)
    for x in frontier:  # grows while it is read
        for s in gens:
            if (y := mul(x, s)) not in out:
                out.add(y)
                frontier.append(y)
    return out


@pytest.mark.parametrize("name", SEMIDIRECT)
def test_semidirect_sylow_composes_from_the_acting_group(monkeypatch,
                                                         tmp_path, name):
    """N x| H with N a p-group or a p'-group: no ``Span`` grows on G and G's
    classes are not built; each Sylow subgroup matches the generic path's
    order, normal flag, closure and table test, and its kept generators
    close to it."""
    G = SEMIDIRECT[name](tmp_path)
    N = G.origin.left
    primes = sorted(factorint(G.order))
    assert all(N.order % p or len(factorint(N.order)) == 1 for p in primes)
    built = _span_groups(monkeypatch)
    got = {p: sylow(G, p) for p in primes}
    assert not any(H is G for H in built)
    assert "conjugacy" not in G._memo
    monkeypatch.undo()
    _check_sylow(G, replace(G, listed=G.ordered, origin=None))
    for p, S in got.items():
        assert _closure(G, S.gens) == S.ids, p
        assert S.order == p ** factorint(G.order).get(p, 0), p


def test_p_group_and_p_prime_group_grow_nothing(monkeypatch):
    """The Sylow p-subgroup of a p-group is G, on G's generators, and that
    of a p'-group is 1: no ``Span`` grows and no class is built."""
    built = _span_groups(monkeypatch)
    cases = [(catalog.quaternion8(), 2, 8), (catalog.elem_abelian(3, 2), 3, 9),
             (catalog.sym(3), 7, 1), (catalog.cyclic(1), 2, 1)]
    for G, p, order in cases:
        S = sylow(G, p)
        assert S.order == order, G.label
        assert "conjugacy" not in G._memo, G.label
    assert built == []
    monkeypatch.undo()
    for G, p, _ in cases:
        assert _closure(G, sylow(G, p).gens) == sylow(G, p).ids, G.label
        assert structure._is_normal(G, sylow(G, p).ids), G.label


def test_q8_kernel_gives_a_conjugate_of_growth(tmp_path):
    """Q8 over F_3 has its identity at id 0, and the composed Sylow
    3-subgroup {1} x| C3 is the one growth finds on the generic path.  It
    is a Sylow 3-subgroup, and the analysis gives the same bytes on both
    paths."""
    G = _q8_by_c3(tmp_path)
    R = replace(G, listed=G.ordered, origin=None)
    assert sorted(sylow(G, 3).ids) == sorted(sylow(R, 3).ids) == [0, 1, 2]
    assert sylow(G, 2).ids == sylow(R, 2).ids
    _check_sylow(G, R)
    assert json.dumps(cli.analysis_report({"sd": G}, {})) == \
        json.dumps(cli.analysis_report({"sd": R}, {}))


def test_a_listing_with_the_identity_elsewhere_is_refused(tmp_path):
    """Listed in value order, Q8 over F_3 has its identity at id 2: the
    handle refuses that listing, naming its label, since every id walk
    starts at 0."""
    Q8 = _q8_by_c3(tmp_path).origin.left
    listed = sorted(Q8.ordered)
    assert listed.index(Q8.identity) == 2
    with pytest.raises(ValueError, match=f"^{re.escape(Q8.label)} "):
        replace(Q8, listed=listed, origin=None)


def test_mixed_kernel_keeps_growth(monkeypatch):
    """A kernel whose order has p and another prime still grows its Sylow
    subgroup on G, and matches the generic path."""
    G = _c6_by_c2()
    built = _span_groups(monkeypatch)
    for p in (2, 3):
        sylow(G, p)
    assert [H for H in built if H is G] == [G, G]
    monkeypatch.undo()
    _check_sylow(G, replace(G, listed=G.ordered, origin=None))


def _reference_metacyclic(G):
    """``is_metacyclic`` as it scanned: for each cyclic normal N, the order
    of gN is the least k >= 1 with g^k in N, found by a walk up to |g|."""
    if is_cyclic(G):
        return True
    data = conjugacy_classes(G)
    rows = tuple(data.powers)
    seen = set()
    for row in rows:
        cs = frozenset(row)
        if len(row) == 1 or cs in seen:
            continue
        seen.add(cs)
        if sum(map(data.sizes.__getitem__, cs)) != len(row):
            continue
        index = G.order // len(row)
        for r in rows:
            n = len(r)
            if next(k for k in range(1, n + 1) if r[k % n] in cs) == index:
                return True
    return False


@by_bound
def test_metacyclic_reads_match_the_scan(bound):
    """The corpus, the catalog and their Fitting quotients and quotients by
    minimal normal subgroups, built fresh under each bound."""
    with _bound(bound):
        pool = [*catalog.distinct_corpus(1, 200, 2000).values(),
                *(entry.build() for entry in catalog.catalog())]
        for G in list(pool):
            fs = fitting_series(G)
            pool += fs.quotients
            if fs.solvable:
                pool += [quotient(G, N) for N in minimal_normal_subgroups(G)]
        verdicts = set()
        for G in pool:
            got = is_metacyclic(G)
            assert got == _reference_metacyclic(G), G.label
            verdicts.add(got)
    assert verdicts == {True, False}


def test_lazy_slots_wait_for_a_read():
    """A product's class data allocates no slots until an item is read,
    and then one slot per item."""
    P = direct_product(catalog.sym(3), catalog.quaternion8())
    cids = conjugacy_classes(P).class_ids
    assert isinstance(cids, _LazyTuple) and len(cids) == 48
    assert vars(cids)["_items"] is None
    assert cids[7] == conjugacy_classes(P).class_ids[7]
    assert len(vars(cids)["_items"]) == 48
