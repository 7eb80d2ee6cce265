"""Frobenius, Sylow and metacyclic structure read off what G already holds.

The 2-Frobenius test decides whether F_2 is Frobenius on G's own classes,
with no subgroup view; a Frobenius decomposition scans for its complement
only when ``complement`` is read; a semidirect product N x| H whose kernel
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

from gklab import catalog, cli, frobenius, groups
from gklab.frobenius import (_decompose, _two_frobenius, frobenius_kind,
                             is_frobenius, match_frobenius_cut_family)
from gklab.groups import _LazyTuple, direct_product, id_mul, semidirect_product
from gklab.structure import (InvariantFailed, conjugacy_classes, fitting,
                             fitting_series, is_cyclic, is_metacyclic,
                             minimal_normal_subgroups, quotient, sylow)
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
    """The class read of F_2 against ``_decompose`` of F_2's view: the same
    verdict and the same reason, and F_1, F_2 as the series holds them."""
    with _bound(bound):
        reasons = set()
        inputs = _fitting_length_three()
        for G in inputs:
            got = _two_frobenius(G)
            want = _reference_two_frobenius(G)
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


def test_verdicts_and_reports_scan_no_complement(monkeypatch):
    """``frobenius_kind``, the analysis report and the invariant check
    decompose each Frobenius group but never look for its complement; the
    family match still does, as it reads the complement."""
    calls = []
    find = frobenius._find_complement

    def spy(G, *args):
        calls.append(G.label)
        return find(G, *args)

    monkeypatch.setattr(frobenius, "_find_complement", spy)
    fresh = _frobenius_groups()
    assert len(fresh) > 20, len(fresh)
    for G in fresh:
        assert frobenius_kind(G) == frobenius.FROBENIUS
        cli.analysis_report({G.label: G}, {})
        _check_group_invariants(G)
    assert calls == []
    for G in fresh:
        match_frobenius_cut_family(G)
    assert sorted(calls) == sorted(G.label for G in fresh)


def test_complement_on_first_read_matches_the_eager_scan():
    """``complement`` is read once per decomposition, and equals the scan
    each decomposition used to run when it was built."""
    for G in _frobenius_groups():
        dec = _decompose(G)
        assert "complement" not in vars(dec), G.label
        K = dec.kernel
        want = _reference_complement(G, K.ids, G.order // K.order)
        assert dec.complement.ids == want and not dec.complement.normal
        assert dec.complement.parent is G
        assert dec.complement is dec.complement


def test_missing_complement_class_still_fails_at_decomposition(monkeypatch):
    """The decomposition keeps its eager check that some class outside K
    has |K| elements: with every class size doubled, it raises."""
    G = catalog.c7_c6()
    fitting(G)  # read on the true classes
    data = conjugacy_classes(G)
    G._memo["conjugacy"] = replace(data,
                                   sizes=tuple(2 * s for s in data.sizes))
    monkeypatch.setattr(frobenius, "_kernel_condition", lambda G, ks: True)
    with pytest.raises(InvariantFailed, match="no class of size 7"):
        _decompose(G)


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
        assert (S.order, S.normal) == (order, True), G.label
        assert "conjugacy" not in G._memo, G.label
    assert built == []
    monkeypatch.undo()
    for G, p, _ in cases:
        assert _closure(G, sylow(G, p).gens) == sylow(G, p).ids, G.label


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
