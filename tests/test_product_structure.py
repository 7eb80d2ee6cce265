"""Products read their conjugation tables and Fitting data off their factors.

``groups.conjugation_tables`` composes a semidirect product's tables from
its kernel's ids, its acting group's tables and the action ids, and
``structure`` reads a direct product's O_p, Fitting subgroup, derived
subgroup, Fitting series (terms, length and quotients), supersolvability,
metabelianness and commutativity off its factors', as ``rationality`` does
its class verdicts.  The reference is the element-multiplying
generic path, run on a copy of each product with no construction record
(``dataclasses.replace(G, listed=G.ordered, origin=None)``): the same
elements in the same order, so the same ids, with everything computed from
``G.mult``.  A direct product's Sylow subgroups, the products of its
factors', are not canonical, so they are checked against the reference's
tables rather than its picks: the same order and normality, closed under
the reference's multiplication, and nilpotent exactly when it is.  The
reference also checks ``groups.elements_at`` and its inverse
``groups.ids_of``, which compose a product's elements and ids from its
factors', and ``structure.quotient`` by F(G), G' and every minimal normal
subgroup, diagonal ones included.

``fitting_series`` is one recursion for every group, the product and its
reference alike: F_1 = F(G), and each term above it is read off the
memoised series of G/F_1.  So ``_summary``'s series keys compare the
product's quotients with the generic ones the same recursion reaches on
the reference.  The recursion is checked on its own against a loop that
composes its generic quotients' coset projections and scans G for each
preimage (``_projection_series``), under both TABLE_BOUND values, on every
group of the distinct corpus, every catalog entry, the nested products, the
products with a non-solvable factor, the Frobenius sweep, and the catalog's
Fitting quotients, quotients by minimal normal subgroups and Sylow
subgroup views.

Each rule for a direct product is stated once, in ``groups.memoised``, and
``quotient`` is memoised, so the Fitting chain of A x B is built from its
factors' own quotients: each factor of its k-th quotient is the k-th
quotient of that factor's chain, the same handle.  ``sylow`` checks its
prime on a product before composing the factors' subgroups.

The products are every direct and semidirect product of the distinct corpus,
the catalog entries, the nested products of ``test_product_classes.py`` and
products with a non-solvable factor, whose Fitting series stalls; the
commutativity test also runs on the deep products of ``test_cli.py``'s
depth specs.  fig3.r (25200) and twofrob.g (15309) are left out: their
reference multiplies elements for 7 and 21 s on a 2-CPU Xeon (Python 3.11).
"""

import functools
import json
import re
from dataclasses import replace

import pytest
from sympy import factorint

from gklab import catalog, cli, groups, structure
from gklab import elements as el
from gklab.groups import (GroupHandle, NotMember, Product, Quotient,
                          conjugation_tables, direct_factors, direct_product,
                          elements_at, generator_ids, id_mul, ids_of,
                          semidirect_product)
from gklab.rationality import rationality_report
from gklab.structure import (NotNormal, SubgroupHandle, _is_normal,
                             class_representatives, conjugacy_classes, core_p,
                             derived_subgroup, fitting, fitting_series,
                             is_abelian, is_metabelian, is_nilpotent,
                             is_solvable, is_supersolvable,
                             minimal_normal_subgroups, quotient, sylow)
from test_cli import chain_spec, wide_spec
from test_idcore import BOUNDS, _bound, _sylow_views
from test_product_classes import CATALOG_PRODUCTS, NESTED


def _summary(G) -> dict:
    """Everything the factor paths produce, as comparable values."""
    fs = fitting_series(G)
    return {
        "tables": [list(t) for t in conjugation_tables(G)],
        "core_p": {p: core_p(G, p).ids for p in sorted(factorint(G.order))},
        "fitting": fitting(G).ids,
        "derived": derived_subgroup(G).ids,
        "series": [F.ids for F in fs.series],
        "length": fs.length,
        "quotients": [(Q.label, Q.ordered, conjugacy_classes(Q),
                       list(conjugacy_classes(Q).class_ids))
                      for Q in fs.quotients],
        "supersolvable": is_supersolvable(G),
        "metabelian": is_metabelian(G),
        "abelian": is_abelian(G),
        "verdicts": rationality_report(G).per_class,
    }


def _check_sylow(G, R) -> None:
    """G's Sylow subgroups against the reference R's multiplication and
    tables; their ids are not compared, as a Sylow subgroup is not
    canonical."""
    mul, fg, fr = id_mul(R), fitting(G).order, fitting(R).order
    for p in sorted(factorint(G.order)):
        got, want = sylow(G, p), sylow(R, p)
        # a Sylow subgroup is normal iff its order divides |F|
        normal = fg % got.order == 0
        assert (got.order, normal) == (want.order, fr % want.order == 0), p
        assert all(mul(a, b) in got.ids for a in got.ids for b in got.ids), p
        assert normal == _is_normal(R, got.ids), p
    assert is_nilpotent(G) == is_nilpotent(R)


def _check_elements_at(G, R) -> None:
    """elements_at, which composes a product's elements from its factors',
    against the reference's list: all ids, some in descending order, and
    the frozenset of F(G)'s ids.  ids_of reads them back, and names G in the
    NotMember it raises for a non-member of the reference, a non-pair (one
    of another kind, and the identity's components under another kind's
    tag), and a pair with a foreign component."""
    assert elements_at(G, range(G.order)) == R.ordered
    some = list(range(G.order - 1, -1, -7))
    assert elements_at(G, some) == [R.ordered[i] for i in some]
    ids = fitting(G).ids
    assert elements_at(G, ids) == [R.ordered[i] for i in ids]
    assert ids_of(G, R.ordered) == list(range(G.order))
    assert ids_of(G, elements_at(G, some)) == some
    alien = el.perm_identity(99)  # no group here acts on 99 points
    _, a, b = G.identity
    names_g = f"not in {re.escape(G.label)}$"
    with pytest.raises(NotMember, match=names_g):
        ids_of(R, [R.identity, alien])
    for foreign in [alien, (el.PERM, a, b), (el.PAIR, alien, b),
                    (el.PAIR, a, alien)]:
        with pytest.raises(NotMember, match=names_g):
            ids_of(G, [G.identity, foreign])


def _check_quotients(G, R) -> None:
    """G/N against R/N for N = F(G), G' and, for a solvable G, each minimal
    normal subgroup (which may be diagonal in a product)."""
    normals = [fitting(G), derived_subgroup(G)]
    if is_solvable(G):
        normals += minimal_normal_subgroups(G)
    for N in normals:
        _check_quotient(quotient(G, N), R, N)


def _check_quotient(got, R, N) -> None:
    """got = G/N against R/N on the reference R: the same elements,
    generator cosets, identity, class data and multiplication."""
    want = quotient(R, SubgroupHandle(R, N.ids))
    assert got.ordered == want.ordered, N.order
    assert got.generators == want.generators, N.order
    assert got.identity == want.identity, N.order
    dg, dw = conjugacy_classes(got), conjugacy_classes(want)
    assert dg == dw and list(dg.class_ids) == list(dw.class_ids)
    assert class_representatives(got) == class_representatives(want)
    assert all(got.mult(x, g) == want.mult(x, g)
               and got.inv(x) == want.inv(x)
               for g in got.generators for x in got.ordered), N.order


def _check_against_reference(G) -> None:
    assert G.origin is not None
    R = replace(G, listed=G.ordered, origin=None)
    got = _summary(G)
    want = _summary(R)
    for key, value in want.items():
        assert got[key] == value, (G.label, key)
    _check_sylow(G, R)
    _check_elements_at(G, R)
    _check_quotients(G, R)


@functools.cache
def _corpus_at(table_bound) -> dict:
    """The distinct corpus, built once for each TABLE_BOUND value while that
    value is set, so that its memos are filled at that bound."""
    return catalog.distinct_corpus(1, 200, 2000)


def _corpus() -> dict:
    return _corpus_at(groups.TABLE_BOUND)


@functools.cache
def _corpus_products() -> dict:
    return {label: G for label, G in _corpus().items()
            if G.origin is not None}


@pytest.mark.parametrize("label", sorted(_corpus_products()))
def test_corpus_product(label):
    _check_against_reference(_corpus_products()[label])


def test_corpus_has_both_kinds_of_product():
    acts = {G.origin.act is None for G in _corpus_products().values()}
    assert acts == {True, False}


def test_catalog_products_are_listed():
    built = {e.name: e.build() for e in catalog.catalog()
             if e.name not in ("fig3.r", "twofrob.g")}
    assert sorted(name for name, G in built.items()
                  if G.origin is not None) == CATALOG_PRODUCTS


@pytest.mark.parametrize("name", CATALOG_PRODUCTS)
def test_catalog_product(name):
    _check_against_reference(catalog.catalog_entry(name).build())


@pytest.mark.parametrize("build", NESTED.values(), ids=NESTED)
def test_nested_product(build):
    _check_against_reference(build())


def _a5_by_transposition():
    """A5 x| C2, C2 acting by conjugation with (1 2): S5 as a product."""
    A5 = catalog.alt(5)
    S5 = catalog.sym(5)
    t = next(x for x in S5.ordered if x[1][:3] == (1, 0, 2))
    images = [S5.conjugate(g, t) for g in A5.generators]
    return semidirect_product(A5, catalog.cyclic(2), [images])


NON_SOLVABLE = {
    "A5xS4": lambda: direct_product(catalog.alt(5), catalog.sym(4)),
    "C2xA5": lambda: direct_product(catalog.cyclic(2), catalog.alt(5)),
    "A5xC1": lambda: direct_product(catalog.alt(5), catalog.cyclic(1)),
    "S3x(A5xC2)": lambda: direct_product(
        catalog.sym(3), direct_product(catalog.alt(5), catalog.cyclic(2))),
    "A5:C2": _a5_by_transposition,
}


@pytest.mark.parametrize("build", NON_SOLVABLE.values(), ids=NON_SOLVABLE)
def test_non_solvable_factor(build):
    G = build()
    assert fitting_series(G).length is None
    _check_against_reference(G)


def _generic_quotient(G, N) -> GroupHandle:
    """G/N for any G, direct products included, on the least-id coset
    representatives and the coset projection ``origin.to_q``; generator k
    is the coset of G's generator k.  The loop below multiplies no element
    of it, so it is given no element multiplication."""
    mul = id_mul(G)
    to_q = [-1] * G.order
    rep_ids = []
    for g in range(G.order):
        if to_q[g] < 0:
            for x in N.ids:
                to_q[mul(g, x)] = len(rep_ids)
            rep_ids.append(g)
    reps = elements_at(G, rep_ids)
    gens = tuple(reps[to_q[i]] for i in generator_ids(G))
    return GroupHandle(f"{G.label}/N{N.order}", gens, reps,
                       reps[to_q[0]], None, None,
                       Quotient(G, to_q, rep_ids))


def _projection_series(G):
    """The reference Fitting series: the loop that composes its quotients'
    coset projections and takes F_k as the preimage of F(G/F_(k-1)) by a
    scan of G's ids.  Returns the terms' ids, the length and the
    quotients."""
    series = [frozenset({0})]
    quotients = []
    length = 0 if G.order == 1 else None
    current = G
    proj = range(G.order)  # composed id projection G -> current
    while G.order > 1:
        F = fitting(current)
        if F.order == 1:
            break
        preimage = frozenset(g for g in range(G.order) if proj[g] in F.ids)
        series.append(preimage)
        if len(preimage) == G.order:
            length = len(series) - 1
            break
        current = _generic_quotient(current, F)
        quotients.append(current)
        proj = list(map(current.origin.to_q.__getitem__, proj))
    return series, length, quotients


def _fitting_quotients(G) -> list:
    return list(fitting_series(G).quotients)


def _minimal_normal_quotients(G) -> list:
    if not is_solvable(G):
        return []
    return [quotient(G, N) for N in minimal_normal_subgroups(G)]


def _catalog_groups(name, derive=lambda G: [G]):
    """The groups derive reads off catalog entry name, built fresh."""
    return lambda: derive(catalog.catalog_entry(name).build())


def _one(build):
    return lambda: [build()]


SERIES_CASES = {
    **{f"corpus:{label}": lambda label=label: [_corpus()[label]]
       for label in sorted(_corpus())},
    **{f"catalog:{e.name}": _catalog_groups(e.name)
       for e in catalog.catalog()},
    **{f"nested:{k}": _one(build) for k, build in NESTED.items()},
    **{f"non-solvable:{k}": _one(build) for k, build in NON_SOLVABLE.items()},
    **{f"sweep:{name}": _one(build)
       for name, _, build in catalog.frobenius_family_sweep()},
    **{f"{kind}:{e.name}": _catalog_groups(e.name, derive)
       for kind, derive in [("fitting-quotients", _fitting_quotients),
                            ("minimal-normal-quotients",
                             _minimal_normal_quotients),
                            ("sylow-views", _sylow_views)]
       for e in catalog.catalog()},
}


@pytest.mark.parametrize("build", SERIES_CASES.values(), ids=SERIES_CASES)
def test_fitting_series_matches_projection_loop(build):
    """fitting_series, which reads each term above F_1 off the memoised
    series of G/F_1 and quotients a direct product factor by factor,
    against the reference loop: the terms, the length, and each quotient's
    label, elements and generators.  Each case's groups are built afresh
    under each TABLE_BOUND value; the corpus once per value."""
    for bound in sorted(BOUNDS):
        with _bound(bound):
            for G in build():
                got = fitting_series(G)
                series, length, quotients = _projection_series(G)
                assert [F.ids for F in got.series] == series, (G.label, bound)
                assert got.length == length, (G.label, bound)
                assert [(Q.label, Q.ordered, Q.generators)
                        for Q in got.quotients] == \
                    [(Q.label, Q.ordered, Q.generators)
                     for Q in quotients], (G.label, bound)


def test_series_quotients_are_the_memoised_chain():
    """G/F_1 is the memoised quotient(G, F(G)), and the rest of G's chain is
    G/F_1's own chain, handle for handle: on every catalog entry and on
    A5 x S4, whose series stalls."""
    lengths = set()
    for G in [*(e.build() for e in catalog.catalog()),
              NON_SOLVABLE["A5xS4"]()]:
        fs = fitting_series(G)
        lengths.add(len(fs.quotients))
        if fs.quotients:
            assert fs.quotients[0] is quotient(G, fitting(G)), G.label
            assert fitting_series(fs.quotients[0]).quotients == \
                fs.quotients[1:], G.label
    assert {0, 1, 2, 3} <= lengths


@pytest.mark.parametrize("name, sizes", [
    ("fig3.p", [200]), ("fig3.q", [200]), ("twofrob.l", [2688])])
def test_series_projects_only_where_a_term_needs_it(monkeypatch, name,
                                                    sizes):
    """The series of a fresh catalog group composes the projections below
    and no other.  fig3.p and fig3.q have length 2, so no term lies
    strictly between F_1 and G, and G/F_1 composes one projection, that of
    their semidirect factor C5^2 x| Q8 (200 entries).  twofrob.l has length
    3, and F_2 is the preimage of a term of G/F_1 under G's projection onto
    it (2,688 entries)."""
    made = []
    pair_projection = structure._pair_projection

    def spy(*args):
        out = pair_projection(*args)
        made.append(len(out))
        return out
    G = catalog.catalog_entry(name).build()
    monkeypatch.setattr(structure, "_pair_projection", spy)
    fitting_series(G)
    assert made == sizes


def test_stalled_series_keeps_its_quotients():
    """A5 x S4 grows three times (S4's series) and then stalls: three terms
    above F_0 and the three quotients G/F_1, G/F_2, G/F_3, the last A5."""
    fs = fitting_series(NON_SOLVABLE["A5xS4"]())
    assert [F.order for F in fs.series] == [1, 4, 12, 24]
    assert [Q.order for Q in fs.quotients] == [360, 120, 60]


SERIES_PRODUCTS = {
    "S4x(C7:C6)": lambda: (catalog.sym(4), catalog.c7_c6()),
    "(S3xC2)x(C3xA4)": lambda: direct_factors(NESTED["(S3xC2)x(C3xA4)"]()),
    "A5xS4": lambda: direct_factors(NON_SOLVABLE["A5xS4"]()),
}


@pytest.mark.parametrize("product_first", [True, False])
@pytest.mark.parametrize("build", SERIES_PRODUCTS.values(),
                         ids=SERIES_PRODUCTS)
def test_product_series_reuses_factor_quotients(build, product_first):
    """Each factor of the k-th quotient of A x B's Fitting chain is the k-th
    quotient of that factor's own chain, the same handle, for every k the
    factor's chain has, whichever chain is built first."""
    A, B = build()
    G = direct_product(A, B)
    if product_first:
        fitting_series(G)
    own = [fitting_series(F).quotients for F in (A, B)]
    quotients = fitting_series(G).quotients
    assert quotients
    for k, Q in enumerate(quotients):
        for F_k, chain in zip(direct_factors(Q), own):
            if k < len(chain):
                assert F_k is chain[k], (Q.label, k)


def _memo_keys(G) -> set:
    """The memo keys of G and of its direct factors, recursively."""
    return set(G._memo).union(*map(_memo_keys, direct_factors(G) or ()))


@pytest.mark.parametrize("n", [0, 1, 4, 6])
def test_sylow_refuses_a_non_prime(n):
    """An enumerated group, a direct product and a nested product refuse a
    non-prime n, and no group keeps anything under ("sylow", n)."""
    for G in (catalog.sym(4), direct_product(catalog.sym(3), catalog.cyclic(2)),
              NESTED["(S3xC2)x(C3xA4)"]()):
        with pytest.raises(ValueError, match="is not prime"):
            sylow(G, n)
        assert ("sylow", n) not in _memo_keys(G)


def _dic12_x_c4():
    return direct_product(catalog.dicyclic12(), catalog.cyclic(4))


def test_diagonal_minimal_normal_subgroup():
    """Dic12 x C4 has one diagonal minimal normal subgroup, <(z, w)> for
    the factors' involutions z and w: its quotient takes the generic path,
    and is checked against the reference with the others."""
    G = _dic12_x_c4()
    generic = [N for N in minimal_normal_subgroups(G)
               if isinstance(quotient(G, N).origin, Quotient)]
    assert [N.order for N in generic] == [2]
    _check_against_reference(G)


def _normals(F) -> list:
    """Normal subgroups of F, distinct by ids: 1, each O_p, F(F), F' and F."""
    subs = [SubgroupHandle(F, frozenset({0})),
            *(core_p(F, p) for p in sorted(factorint(F.order))),
            fitting(F), derived_subgroup(F),
            SubgroupHandle(F, frozenset(range(F.order)))]
    return list({N.ids: N for N in subs}.values())


PRODUCT_QUOTIENTS = {**NESTED, "Dic12xC4": _dic12_x_c4,
                     "A5xS4": NON_SOLVABLE["A5xS4"],
                     "S3x(A5xC2)": NON_SOLVABLE["S3x(A5xC2)"]}


@pytest.mark.parametrize("build", PRODUCT_QUOTIENTS.values(),
                         ids=PRODUCT_QUOTIENTS)
def test_quotient_by_product_of_normal_subgroups(build):
    """G/(N_A x N_B), for every pair of the factors' ``_normals``, is the
    direct product of the factors' quotients under G's quotient label, and
    agrees with the generic quotient on the reference."""
    G = build()
    A, B = direct_factors(G)
    R = replace(G, listed=G.ordered, origin=None)
    m = B.order
    for a in _normals(A):
        for b in _normals(B):
            N = SubgroupHandle(
                G, frozenset(i * m + j for i in a.ids for j in b.ids))
            Q = quotient(G, N)
            assert direct_factors(Q) is not None, (a.order, b.order)
            assert Q.label == f"{G.label}/N{N.order}"
            _check_quotient(Q, R, N)


def test_product_quotient_lists_no_pair(monkeypatch):
    """Building G/(N_A x N_B), or the generic quotient by the diagonal C2 of
    Dic12 x C4, multiplying and inverting its elements and reading its
    classes and verdicts list no product's pairs: a generic quotient's
    multiplication reads G's ids through ``ids_of``."""
    listed = []
    ordered = Product.__dict__["ordered"].func

    def spy(origin):
        listed.append(origin)
        return ordered(origin)
    monkeypatch.setattr(Product, "ordered", property(spy))
    P = direct_product(catalog.sym(4), catalog.sym(3))
    nested = NESTED["(S3xC2)x(C3xA4)"]()
    dic = _dic12_x_c4()
    diagonal = next(N for N in minimal_normal_subgroups(dic)
                    if isinstance(quotient(dic, N).origin, Quotient))
    for G, N in [(P, core_p(P, 2)), (nested, fitting(nested)),
                 (dic, diagonal)]:
        Q = quotient(G, N)
        xs = elements_at(Q, range(Q.order))
        for x in xs:
            Q.inv(x)
            for g in Q.generators:
                Q.mult(x, g)
        class_representatives(Q)
        rationality_report(Q)
        is_abelian(Q)
    assert listed == []


def test_product_membership_lists_no_pair(monkeypatch):
    """``g in P`` reads the factors' ids (``ids_of``): for S4 x S5 and a
    nested product it lists no pair and builds no id dict, and members,
    pairs with a foreign component and non-pairs get the answers the id
    dict of all pairs gives."""
    def queries(P):
        (a,), (b,) = (elements_at(F, [F.order - 1])
                      for F in direct_factors(P))
        return [*elements_at(P, range(0, P.order, 37)),
                (el.PAIR, b, a), (el.PAIR, a, el.perm_from_cycles(6, [])),
                (el.PAIR, a, el.mat(3, [[1]])), (el.PAIR, a),
                ("P", a, b), a, b, 5, (), P.identity]

    builds = [lambda: direct_product(catalog.sym(4), catalog.sym(5)),
              NESTED["(S3xC2)x(C3xA4)"]]
    listed = []
    ordered = Product.__dict__["ordered"].func

    def spy(origin):
        listed.append(origin)
        return ordered(origin)
    with monkeypatch.context() as mp:
        mp.setattr(Product, "ordered", property(spy))
        got = []
        for build in builds:
            P = build()
            got.append([x in P for x in queries(P)])
            assert "ids" not in P._memo
        assert listed == []
    for build, answers in zip(builds, got):
        P = build()
        ids = {x: i for i, x in enumerate(P.ordered)}
        assert answers == [x in ids for x in queries(P)]
        assert answers.count(True) == len(range(0, P.order, 37)) + 1


def test_product_quotient_checks_normality():
    """A non-normal C2 of S3 times the trivial subgroup of C2 is refused by
    S3's own quotient, and a subgroup of a factor by the membership check."""
    S3, C2 = catalog.sym(3), catalog.cyclic(2)
    P = direct_product(S3, C2)
    t = next(i for i, x in enumerate(S3.ordered)
             if i != 0 and S3.mult(x, x) == S3.identity)
    N = SubgroupHandle(P, frozenset({0, t * 2}))
    with pytest.raises(NotNormal, match="not normal"):
        quotient(P, N)
    with pytest.raises(NotNormal, match="does not live in this group"):
        quotient(P, core_p(S3, 3))


def test_quotient_by_a_subgroup_of_a_renamed_copy():
    """A renamed copy lists the product's elements in the same order, so N's
    ids are its ids and the quotient has the same cosets; a subgroup of
    another product is still refused."""
    P = direct_product(catalog.sym(4), catalog.cyclic(6))
    F = fitting(P)
    Q = quotient(replace(P, label="R"), F)
    assert Q.ordered == quotient(P, F).ordered
    other = fitting(direct_product(catalog.sym(3), catalog.cyclic(6)))
    with pytest.raises(NotNormal, match="does not live in this group"):
        quotient(replace(P, label="R"), other)


def _s3_chain() -> dict:
    """chain_spec(64) on S3 instead of the trivial r64: r0 is S3 x C1 x ...
    x C1, non-abelian at every level."""
    spec = chain_spec(64, top_first=True)
    spec["groups"]["r64"] = {"type": "builtin", "name": "sym", "args": [3]}
    return spec


@pytest.mark.parametrize("spec, top", [
    (chain_spec(64, top_first=True), "r0"), (wide_spec(65), "w"),
    (_s3_chain(), "r0"),
], ids=["chain-64", "wide-65", "S3-chain-64"])
def test_deep_product_is_abelian_as_its_generators_commute(tmp_path, spec,
                                                           top):
    """Read off the factors at every level, is_abelian agrees with the
    generator products, which recurse through all 64 levels."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    G = cli.load_spec(str(path))[top]
    assert is_abelian(G) == all(G.mult(a, b) == G.mult(b, a)
                                for a in G.generators for b in G.generators)
