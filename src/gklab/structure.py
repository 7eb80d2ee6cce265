"""Exhaustive structure analysis: conjugacy, Sylow, Fitting series, predicates.

Everything here works on fully enumerated groups, and on element ids
(``groups.element_ids``) wherever elements would be multiplied.  Subgroups
are returned as id sets (``SubgroupHandle.ids``); Sylow subgroups, normal
closures and the derived subgroup are built with ``groups.Span`` (closures
grown one generator at a time) and ``groups.id_mul``, unless a product's
construction gives them, and O_p(G) and F(G) are read off the classes.  A
handle's element set is derived on first read, and a Sylow subgroup's
handle keeps the generators it was grown or composed from
(``SubgroupHandle.gens``), so its view runs no second closure.
Classes, their representatives, Sylow subgroups, F(G), the Fitting series,
quotients and the abelian, metabelian and supersolvable tests are cached
through ``groups.memoised``; O_p(G) and G' are not, as nothing reads them
twice.
Deliberate choices:

* Sylow subgroups grow deterministically inside their normalizer, never by
  random search: each step adds the least p-element outside P that
  normalizes P.  The candidates are the members of the classes whose
  power-map row length is a power of p > 1, and an inverse is walked
  (``groups._power_walk``) only for a candidate that is tested, once per
  call.  A product N x H, or N x| H whose kernel is a p-group or a
  p'-group, grows none: its Sylow p-subgroup is P_N x P_H, composed from
  its factors' by one call for both kinds of product
  (``_product_subgroup``).  P_N is N or 1 in N x| H, which H carries into
  itself.  Any other kernel grows.  A Sylow subgroup is not canonical, so
  the two ways may give conjugate subgroups.  No handle stores whether it
  is normal: P is normal iff P = O_p(G), and |F(G)|_p = |O_p(G)| (Huppert,
  *Endliche Gruppen I*, III.4), so ``is_nilpotent`` and the verify checks
  read it off F(G).
* Normal subgroup discovery goes through normal closures of single elements;
  the full subgroup lattice is never enumerated.  A normal closure grows a
  span by the conjugates of its generators, read from the conjugation
  tables.  The minimal normal subgroups of a solvable group are p-groups,
  so they lie in F(G): only the classes of prime order inside F(G) are
  closed.
* A coset's representative is its least id, so quotients are
  reproducible bit for bit.  The coset projection is built on ids (the
  quotient's ``origin.to_q``).  A product's quotient by N_A x N_B
  composes it from its factors' quotients with no product
  (``_pair_projection``); G/G is one coset, with no product; for any other
  N, the cosets are walked: |G| id products, one per element and element
  of N.  Either way a coset's representative is the first id mapped to its
  number.  A quotient multiplies no element: its ids and conjugation
  tables come from its parent's through the projection
  (``groups.Quotient``), and its generator k is the coset of its parent's
  generator k.  Only the representatives are read as elements
  (``groups.elements_at``), and its element ``mult`` and ``inv`` read the
  parent's ids back through ``groups.ids_of``, so the quotient of a product
  lists none of the product's pairs.
* ``fitting_series`` is one recursion: F_1 = F(G), and F_(k+1)/F_1 =
  F_k(G/F_1), so the terms above F_1 and the quotients G/F_2, G/F_3, ...,
  which the 2-Frobenius test reads, are those of Q = G/F_1's own memoised
  series.  Q itself lifts to all of G, and a term strictly between 1 and Q
  to the preimage of its ids under G's projection onto Q (``_projection``):
  one read per id of G and no product, built only when such a term
  exists.
* Conjugacy classes and the normality test of ``quotient`` run on integer
  ids and per-generator conjugation tables (``groups.conjugation_tables``);
  ``quotient(G, N)`` may run before G's classes exist, so its test stays on
  the tables.  Each class is the orbit of its smallest id, which is its
  representative.
* O_p(G) and F(G) are read off the class partition, as a normal subgroup is
  a union of classes.  O_p(G) is the union of the classes that lie inside a
  Sylow p-subgroup P, since x lies in every conjugate of P exactly when its
  class lies in P; the members of each class in P are counted over P's
  ids.  F(G) is the union of the classes whose p-parts all lie in O_p(G):
  for rep_c of order n and p^a || n, the class row[n // p^a] of its
  power-map row holds a generator of the p-part's cyclic group.
* Class data lives on ids (``ConjugacyData``): the least id and the size of
  each class, the power map, and the class of each id, all stored fields.
  A direct product composes each item from its factors' when it is read;
  any other group, a quotient included, lists them all from its own orbits
  and power walks.  The record holds ids only.  The representatives as
  elements have their own memo (``class_representatives``), read through
  ``groups.elements_at``, which lists no product's pairs; only the
  normalizer-scan cut oracle reads it.  A subgroup's element set is read
  the same way.
* The class power map (``ConjugacyData.powers``, GAP's ``PowerMap``) is the
  one class-level primitive: row c lists the classes of rep_c^k for
  0 <= k < |rep_c|.  The classes are taken in order, and <rep_c> is walked
  on ids (``groups._power_walk``) only when no earlier walk gave row c: the
  class of g^j, for g of order n with row r, has the row r[j*i mod n] for
  i < n/gcd(j, n), so one walk serves every class the cyclic group meets.
  Element orders are read from it as row lengths; no table of orders by id
  is kept.  Sylow growth and the rationality verdicts read the rows; code
  that needs only the orders reads their counts
  (``groups.element_orders_multiset``), which a direct product composes
  from its factors' without reading a row: ``is_cyclic`` and ``exponent``.
* A direct product G x H visits no element: each rule here is stated once,
  as the ``product`` argument of ``groups.memoised`` or, for Sylow
  subgroups, in ``sylow``'s body, and reads the factors' memoised results.
  Its classes are the products C x D of the factors' classes, and the
  class of (g, h)^k is the pair of the classes of g^k and h^k
  (``_product_classes``).  Each composed field is composed
  per item (``groups._LazyTuple``): a least id, a size or a power-map row is
  composed from the factors' on its first read, by index, slice or
  iteration, and kept.  So the prime graph composes none of them, the
  rationality report composes one row per pair of factor-class keys, and
  the class of each id too is composed only when it is read.  The Sylow
  p-subgroup and the Fitting subgroup are the id sets {i*|H| + j} of
  P_G x P_H and F(G) x F(H) (``_product_subgroup``, which ``sylow`` calls
  for a semidirect product too); it is abelian, metabelian or
  supersolvable iff both factors are (``_both``).  Its quotient by
  N_G x N_H is G/N_G x H/N_H, with the same elements in the same order
  (``_factor_quotients``).  ``quotient`` is memoised under N, so G/F_1,
  and with it each quotient of G/F_1's own series, is built from the
  factors' own quotients, and a factor whose N_G is trivial is kept as it
  is.  A diagonal N takes the generic coset walk.
* Commutators run on ids: G' is the normal closure of the generators'
  commutators a^-1 a^b, read from the conjugation tables (``_commutators``).
  The metabelian test builds no G': G' is generated by the union U of the
  commutators' classes, and U commutes elementwise iff each of those
  classes' representatives commutes with every member of U.
* The predicates read the rows and the class sizes (Holt, Eick & O'Brien,
  *Handbook of Computational Group Theory*, CRC 2005).  A normal subgroup
  is a union of classes, so <g> is normal iff the classes its row meets
  hold |g| elements in all; the set of those classes then names <g>.  For
  a cyclic normal N, the order of gN in G/N is the least k >= 1 with g^k
  in N, a class function, so whether G/N is cyclic is read from the rows:
  gN has order |G : N| iff g^(|G : N|/r) lies outside N for each prime r
  dividing |G : N|.
  Supersolvability passes to quotients and to extensions by a normal
  subgroup of prime order, so any normal subgroup of prime order decides
  it: the test descends through the first one, never backtracking.
* ``centralizer`` and ``normalizer_of_cyclic`` scan elements with element
  products.  Nothing in the library calls them; they are kept as references
  for the tests, and because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import add

from .elements import Element
from .groups import (GroupHandle, NotMember, Product, Quotient, Span,
                     _LazyTuple, _power_walk, _product_handle,
                     conjugation_tables, direct_factors, element_order,
                     element_orders_multiset, elements_at, generator_ids,
                     id_mul, ids_of, memoised, subgroup_view)
from .numtheory import factorint, isprime


class NotNormal(ValueError):
    pass


class NotSolvable(ValueError):
    pass


class InvariantFailed(RuntimeError):
    """A computation reached a state the theory rules out (a library bug)."""


@dataclass(frozen=True)
class ConjugacyData:
    """Class data on element ids; class c is numbered by its least id.

    It holds ids only: the representatives as elements are read through
    ``class_representatives``.  Equality compares the classes' least ids,
    sizes and power map.
    """
    # rep_ids[c] is the least id in class c, and sizes[c] is |class c|;
    # powers[c][k] is the class id of rep_c^k, 0 <= k < |rep_c|; class_ids[i]
    # is the class of id i.  A tuple each (class_ids a list), or for a
    # direct product a ``groups._LazyTuple`` that composes each item from
    # the factors' on its first read
    rep_ids: Sequence[int]
    sizes: Sequence[int]
    powers: Sequence[tuple[int, ...]]
    class_ids: Sequence[int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of parent, by its members' ids there.  ``gens``, when
    known, are the ids in parent of the generators it was grown from
    (``sylow``, ``_product_subgroup``), and ``as_group`` builds its view on
    them with no closure.  They are not compared, hashed or printed, so a
    memo keyed on the handle does not see them.  Normality is not stored:
    ``_is_normal`` tests an id set, and a Sylow p-subgroup is normal iff
    its order divides |F(G)| (``fitting``)."""
    parent: GroupHandle
    ids: frozenset[int]  # the members' ids in parent
    gens: tuple[int, ...] | None = field(default=None, compare=False,
                                         repr=False, kw_only=True)

    @property
    def order(self) -> int:
        return len(self.ids)

    @cached_property
    def elements(self) -> frozenset[Element]:
        return frozenset(elements_at(self.parent, self.ids))

    def as_group(self, label: str = "") -> GroupHandle:
        return subgroup_view(self.parent, self.ids, label, self.gens)


@dataclass(frozen=True)
class FittingData:
    series: tuple[SubgroupHandle, ...]  # F_0 <= F_1 <= ...
    length: int | None                  # None when the series stalls below G
    quotients: tuple[GroupHandle, ...]  # G/F_1, G/F_2, ... below G/G

    @property
    def solvable(self) -> bool:
        return self.length is not None


def _product_classes(P: GroupHandle, dg: ConjugacyData,
                     dh: ConjugacyData) -> ConjugacyData:
    """Classes of P = G x H from its factors' dg and dh: C_a x D_b, numbered
    a*k(H) + b.  Its least id is i*|H| + j for the least ids i of C_a and j
    of D_b, so the classes stay ordered by least id.  The class of (g, h)^k
    is that of (g^k, h^k), so row (a, b) pairs G's row a, each class id
    times k(H), with H's row b for lcm(|g|, |h|) steps.  Nothing here visits
    an element; each least id, size and row, and the class of each id, is
    composed from the factors' only when it is read (``groups._LazyTuple``).
    """
    m, kh = direct_factors(P)[1].order, len(dh.rep_ids)
    n = len(dg.rep_ids) * kh

    def row(c: int) -> tuple[int, ...]:
        ra, rb = dg.powers[c // kh], dh.powers[c % kh]
        na, nb = len(ra), len(rb)
        k = lcm(na, nb)
        scaled = tuple(map(kh.__mul__, ra)) * (k // na)
        return tuple(map(add, scaled, rb * (k // nb)))

    return ConjugacyData(
        _LazyTuple(n, lambda c: dg.rep_ids[c // kh] * m + dh.rep_ids[c % kh]),
        _LazyTuple(n, lambda c: dg.sizes[c // kh] * dh.sizes[c % kh]),
        _LazyTuple(n, row),
        _LazyTuple(P.order,
                   lambda i: dg.class_ids[i // m] * kh + dh.class_ids[i % m]))


@memoised("conjugacy", product=_product_classes)
def conjugacy_classes(G: GroupHandle) -> ConjugacyData:
    """Class partition and class power map on ids; memoised.

    A direct product reads them off its factors' (``_product_classes``);
    any other group closes orbits on its conjugation tables, then takes the
    classes in order and walks a representative's powers on ids only for a
    class whose row no earlier walk gave: if class d holds g^j, for a
    walked g of order n with row r, d's row is r[j*i mod n] for
    i < n/gcd(j, n).
    """
    tables = conjugation_tables(G)
    cids = [-1] * G.order
    reps = []
    sizes = []
    for start in range(G.order):
        if cids[start] >= 0:
            continue
        cid = len(reps)
        cids[start] = cid
        orbit = [start]
        for i in orbit:  # grows while it is read: a breadth-first search
            for t in tables:
                j = t[i]
                if cids[j] < 0:
                    cids[j] = cid
                    orbit.append(j)
        reps.append(start)
        sizes.append(len(orbit))
    mul, powers = id_mul(G), [None] * len(reps)
    for c, g in enumerate(reps):  # one walk per cyclic subgroup reached
        if powers[c] is None:
            r = powers[c] = tuple(map(cids.__getitem__, _power_walk(mul, g)))
            n = len(r)
            for j, d in enumerate(r):  # class d holds g^j, of order n/(j, n)
                if powers[d] is None:
                    powers[d] = tuple(r[j * i % n]
                                      for i in range(n // gcd(j, n)))
    return ConjugacyData(tuple(reps), tuple(sizes), tuple(powers), cids)


@memoised("representatives")
def class_representatives(G: GroupHandle) -> tuple[Element, ...]:
    """The class representatives as elements, in class order, read through
    ``groups.elements_at``, which lists no product's pairs; memoised.  Only
    the normalizer-scan cut oracle reads them."""
    return tuple(elements_at(G, conjugacy_classes(G).rep_ids))


def centralizer(G: GroupHandle, g: Element) -> SubgroupHandle:
    if g not in G:
        raise NotMember(f"element not in {G.label}")
    elems = (x for x in G.ordered if G.mult(x, g) == G.mult(g, x))
    return SubgroupHandle(G, frozenset(ids_of(G, elems)))


def normalizer_of_cyclic(G: GroupHandle, g: Element) -> SubgroupHandle:
    """N_G(<g>): all x with <g>^x = <g>."""
    if g not in G:
        raise NotMember(f"element not in {G.label}")
    cyc = cyclic_subgroup_set(G, g)
    elems = (x for x in G.ordered if G.conjugate(g, x) in cyc)
    return SubgroupHandle(G, frozenset(ids_of(G, elems)))


def cyclic_subgroup_set(G: GroupHandle, g: Element) -> frozenset:
    out = {G.identity}
    h = g
    while h != G.identity:
        out.add(h)
        h = G.mult(h, g)
    return frozenset(out)


def _is_normal(G: GroupHandle, members) -> bool:
    """Is the subgroup with these ids carried into itself by every
    generator's table?"""
    return all(t[i] in members for t in conjugation_tables(G) for i in members)


def is_p_element(G: GroupHandle, g: Element, p_part: int) -> bool:
    """True iff g^p_part = 1: g is a p-element when p_part is |G|'s p-part."""
    return p_part % element_order(G, g) == 0


def _product_subgroup(G: GroupHandle, a: SubgroupHandle,
                      b: SubgroupHandle) -> SubgroupHandle:
    """a x b in G = A x B, or in G = A x| B when b carries a into itself,
    for subgroups a of A and b of B: the ids of the pairs, generated by
    (x_i, 1) and (1, y_j), ids i*|B| and j, for the generators x_i of a and
    y_j of b when both have them.  ``sylow`` composes both kinds of product
    with it, and it is the product rule of ``fitting``."""
    o = G.origin
    m = o.right.order
    ids = frozenset([i * m + j for i in a.ids for j in b.ids])
    gens = None if a.gens is None or b.gens is None else tuple(
        i * m for i in a.gens) + b.gens
    return SubgroupHandle(G, ids, gens=gens)


def _whole_or_trivial(G: GroupHandle, whole: bool) -> SubgroupHandle:
    """G itself, generated by its generators, or its trivial subgroup: the
    Sylow p-subgroup of a p-group or of a p'-group."""
    if whole:
        return SubgroupHandle(G, frozenset(range(G.order)),
                              gens=tuple(generator_ids(G)))
    return SubgroupHandle(G, frozenset({0}), gens=())


@memoised("sylow")
def sylow(G: GroupHandle, p: int) -> SubgroupHandle:
    """Sylow p-subgroup by deterministic normalizer growth; G or 1 when G is
    a p-group or a p'-group; memoised.  A product N x H or N x| H is
    P_N x P_H, for its factors' P_N = sylow(N, p) and P_H = sylow(H, p)
    (``_product_subgroup``), when H carries P_N into itself: always in
    N x H, and in N x| H when N is a p-group or a p'-group, so that P_N is
    N or 1.  P_N P_H is then a subgroup of order |G|_p.  Any other kernel
    grows.  No normality is tested: P is normal iff |P| divides |F(G)|, as
    |F(G)|_p = |O_p(G)|."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    p_part = p ** factorint(G.order).get(p, 0)
    if p_part in (1, G.order):
        return _whole_or_trivial(G, p_part > 1)
    if isinstance(o := G.origin, Product):
        n_part = p ** factorint(o.left.order).get(p, 0)
        if o.act is None or n_part in (1, o.left.order):
            return _product_subgroup(G, sylow(o.left, p), sylow(o.right, p))
    data = conjugacy_classes(G)
    # orders are row lengths and divide |G|: a class of order > 1 holds
    # p-elements iff its order divides p_part
    p_class = [1 < len(row) and p_part % len(row) == 0 for row in data.powers]
    candidates = [x for x, c in enumerate(data.class_ids) if p_class[c]]
    mul = id_mul(G)
    inverses = {}  # of the candidates tested, walked once each
    P = Span(G)
    members, gens = P.elements, P.gens
    while len(members) < p_part:
        # P is generated by gens, so x normalizes P iff it conjugates gens into P
        for x in candidates:
            if x in members:
                continue
            xi = inverses.get(x)
            if xi is None:
                xi = inverses[x] = _power_walk(mul, x)[-1]
            if all(mul(xi, mul(s, x)) in members for s in gens):
                break
        else:
            raise InvariantFailed(
                f"no p-element of {G.label} normalizes a p-subgroup of order "
                f"{len(members)} < {p_part}")
        P.add(x)
    return SubgroupHandle(G, frozenset(members), gens=tuple(gens))


def core_p(G: GroupHandle, p: int) -> SubgroupHandle:
    """O_p(G): the union of the classes inside a Sylow p-subgroup P, as x
    lies in every conjugate of P iff its class lies in P.  A class lies in P
    iff P holds all its members, counted over P's ids.  Not memoised: its one
    library caller, ``fitting``, is."""
    data = conjugacy_classes(G)
    P, cids = sylow(G, p).ids, data.class_ids
    held = Counter(map(cids.__getitem__, P))
    return SubgroupHandle(G, frozenset(
        [x for x in P if held[cids[x]] == data.sizes[cids[x]]]))


@memoised("fitting", product=_product_subgroup)
def fitting(G: GroupHandle) -> SubgroupHandle:
    """F(G), the product of the O_p(G): the union of the classes whose
    elements have each p-part in O_p(G).  For rep_c of order n and
    p^a || n, rep_c^(n/p^a) generates the p-part's cyclic group, so the class
    row[n // p^a] names it; a class lies in O_p(G) iff its least id does.
    F(A) x F(B) for a direct product A x B; memoised."""
    data = conjugacy_classes(G)
    cores = {p: core_p(G, p).ids for p in factorint(G.order)}
    inside = [all(data.rep_ids[row[len(row) // p ** a]] in cores[p]
                  for p, a in factorint(len(row)).items())
              for row in data.powers]
    return SubgroupHandle(G, frozenset(
        [x for x, c in enumerate(data.class_ids) if inside[c]]))


@memoised("fitting_series")
def fitting_series(G: GroupHandle) -> FittingData:
    """F_0 = 1 < F_1 = F(G) < F_2 < ..., and the quotients G/F_1, G/F_2,
    ...; memoised.  F_(k+1)/F_1 = F_k(G/F_1) (Huppert, *Endliche Gruppen
    I*, III.4), so above F_1 the series is Q = G/F_1's own, each term the
    preimage of its ids under G's projection onto Q (``_projection``),
    which is read only when a term lies strictly between 1 and Q.  The
    quotients are Q and then Q's own."""
    one, F = SubgroupHandle(G, frozenset({0})), fitting(G)
    if F.order == G.order:  # nilpotent: F_1 = G, or F_0 = G if G = 1
        series = (one,) if G.order == 1 else (one, F)
        return FittingData(series, len(series) - 1, ())
    if F.order == 1:  # stalled below G: not solvable
        return FittingData((one,), None, ())
    Q = quotient(G, F)
    rest = fitting_series(Q)
    # G's ids -> Q's, read only for a term strictly between 1 and Q
    proj = _projection(G, Q) if len(rest.series) > 1 + rest.solvable else ()
    lifted = (range(G.order) if S.order == Q.order else
              compress(range(G.order), map(S.ids.__contains__, proj))
              for S in rest.series[1:])
    return FittingData(
        (one, F, *(SubgroupHandle(G, frozenset(ids)) for ids in lifted)),
        rest.length and rest.length + 1, (Q, *rest.quotients))


@memoised("quotient")
def quotient(G: GroupHandle, N: SubgroupHandle) -> GroupHandle:
    """G/N on least-id coset representatives with induced multiplication;
    generator k is the coset of G's generator k; memoised under N, so G
    keeps it alive.  A product's quotient by N = N_A x N_B comes from its
    factors' memoised quotients (``_factor_quotients``): a direct product's
    is A/N_A x B/N_B, and a semidirect product's coset projection is
    composed from theirs (``_pair_projection``).  N = G is one coset, with
    no product; any other N is walked: one id product per element of G."""
    # equal element lists give equal ids, so N's ids are G's (a copy made
    # with dataclasses.replace passes here, listing a product's pairs)
    if not (N.parent is G or N.parent.ordered == G.ordered):
        raise NotNormal("subgroup does not live in this group")
    qs = _factor_quotients(G, N)
    if qs and G.origin.act is None:
        return _product_handle(*qs, None, f"{G.label}/N{N.order}")
    if N.order == G.order:  # one coset, and G is normal in itself
        to_q = [0] * G.order
    elif not _is_normal(G, N.ids):
        raise NotNormal("subgroup is not normal")
    elif qs:  # (n, h)N = n N_A x h N_B, as N_A = N meet A is H-invariant
        to_q = _pair_projection(G.origin, *qs)
    else:
        mul, to_q, n = id_mul(G), [-1] * G.order, 0  # G id -> coset number
        for g in range(G.order):
            if to_q[g] < 0:  # g is gN's least id: smaller ones are placed
                for x in N.ids:
                    to_q[mul(g, x)] = n
                n += 1
    rep_ids = []
    for g, c in enumerate(to_q):  # cosets are numbered by least id
        if c == len(rep_ids):
            rep_ids.append(g)
    reps = elements_at(G, rep_ids)
    gm, gi = G.mult, G.inv

    def mult(a, b):
        return reps[to_q[ids_of(G, [gm(a, b)])[0]]]

    def inv(a):
        return reps[to_q[ids_of(G, [gi(a)])[0]]]

    gens = tuple(reps[to_q[i]] for i in generator_ids(G))
    return GroupHandle(f"{G.label}/N{N.order}", gens, reps, reps[0], mult, inv,
                       Quotient(G, to_q, rep_ids))


def _factor_quotients(G: GroupHandle, N: SubgroupHandle):
    """(A/N_A, B/N_B) for G = A x B or A x| B when N = N_A x N_B, else None
    (a diagonal N, or G no product).  N is such a product iff the sizes of
    its projections, the id sets {i // |B|} and {i % |B|}, multiply to |N|.
    The least-id representative of the coset (a, b)N is the pair of the
    factors' least representatives, in the same order, so the elements,
    generators and identity are the generic quotient's.  Each factor's
    ``quotient`` tests its projection's normality; a factor whose
    projection is trivial is used as it is, with its memos."""
    if not isinstance(o := G.origin, Product):
        return None
    m = o.right.order
    parts = ({i // m for i in N.ids}, {i % m for i in N.ids})
    if len(parts[0]) * len(parts[1]) != N.order:
        return None
    return tuple(F if len(ids) == 1 else
                 quotient(F, SubgroupHandle(F, frozenset(ids)))
                 for F, ids in zip((o.left, o.right), parts))


def _projection(G: GroupHandle, Q: GroupHandle) -> Sequence[int]:
    """G's ids -> Q's, for Q = quotient(G, N), or Q = G itself (a factor
    ``_factor_quotients`` keeps): the origin's ``to_q``, or a product
    quotient's composed from its factors' (``_pair_projection``)."""
    if Q is G:
        return range(G.order)
    if isinstance(Q.origin, Quotient):
        return Q.origin.to_q
    return _pair_projection(G.origin, *direct_factors(Q))


def _pair_projection(o: Product, qa: GroupHandle,
                     qb: GroupHandle) -> list[int]:
    """The projection of A x B or A x| B (origin o) onto its quotient by
    N_A x N_B, for qa = A/N_A and qb = B/N_B: the id i*|B| + j goes to
    pa[i]*|qb| + pb[j], pa and pb the factors' projections."""
    m = qb.order
    pb = _projection(o.right, qb)
    return [x * m + y for x in _projection(o.left, qa) for y in pb]


def normal_closure(G: GroupHandle, seed_elems) -> SubgroupHandle:
    """Smallest normal subgroup containing the seed elements."""
    K = _normal_span(G, set(ids_of(G, seed_elems)))
    return SubgroupHandle(G, frozenset(K.elements))


def _normal_span(G: GroupHandle, seeds) -> Span:
    """Normal closure of the seed ids, as a span: its gens generate it."""
    K = Span(G)
    for x in seeds:
        K.add(x)
    tables = conjugation_tables(G)
    for s in K.gens:  # grows while it is read
        for t in tables:
            K.add(t[s])
    return K


def minimal_normal_subgroups(G: GroupHandle) -> list[SubgroupHandle]:
    """All minimal normal subgroups of a solvable group."""
    if not is_solvable(G):
        raise NotSolvable("minimal normal subgroup search requires solvability")
    data = conjugacy_classes(G)
    F = fitting(G).ids  # a minimal normal subgroup is a p-group: inside F
    # the distinct normal closures of the classes of prime order inside F
    closures = dict.fromkeys(frozenset(_normal_span(G, [rep]).elements)
                             for rep, row in zip(data.rep_ids, data.powers)
                             if rep in F and isprime(len(row)))
    minimal: list[SubgroupHandle] = []
    for ids in sorted(closures, key=len):
        if not any(m.ids <= ids for m in minimal):
            minimal.append(SubgroupHandle(G, ids))
    return minimal


def derived_subgroup(G: GroupHandle) -> SubgroupHandle:
    """G', the normal closure of the generators' commutators.  Not
    memoised: its one library caller, ``frobenius.fingerprint``, is."""
    K = _normal_span(G, _commutators(G))
    return SubgroupHandle(G, frozenset(K.elements))


def _commutators(G: GroupHandle) -> list[int]:
    """The ids of the generators' commutators [a, b] = a^-1 a^b, read from
    the conjugation tables, in order; a^-1 is the last id of the walk of
    <a>, walked once per generator."""
    mul, tables = id_mul(G), conjugation_tables(G)
    return sorted({mul(ai, t[a]) for a in generator_ids(G)
                   for ai in [_power_walk(mul, a)[-1]] for t in tables})


def is_solvable(G: GroupHandle) -> bool:
    return fitting_series(G).solvable


def is_nilpotent(G: GroupHandle) -> bool:
    """F(G) = G: G is then the product of its O_p(G), so every Sylow
    subgroup is normal."""
    return fitting(G).order == G.order


def _both(G: GroupHandle, a: bool, b: bool) -> bool:
    """A direct product has the property iff both factors have it."""
    return a and b


@memoised("abelian", product=_both)
def is_abelian(G: GroupHandle) -> bool:
    """The generators commute pairwise.  A direct product is abelian iff
    both factors are; memoised."""
    return all(G.mult(a, b) == G.mult(b, a)
               for a in G.generators for b in G.generators)


def is_cyclic(G: GroupHandle) -> bool:
    return G.order in element_orders_multiset(G)


def exponent(G: GroupHandle) -> int:
    return lcm(*element_orders_multiset(G))


def _normal_cyclic_rows(G: GroupHandle):
    """(rep id, power-map row) for one generator of each nontrivial normal
    cyclic subgroup <rep>, named by the set of classes its row meets."""
    data = conjugacy_classes(G)
    sizes = data.sizes
    seen = set()
    for rep, row in zip(data.rep_ids, data.powers):
        n = len(row)
        cs = frozenset(row)
        if n == 1 or cs in seen:
            continue
        seen.add(cs)
        if sum(map(sizes.__getitem__, cs)) == n:
            yield rep, row


def is_metacyclic(G: GroupHandle) -> bool:
    """Some cyclic normal N, the union of the classes in cs, has an element
    gN of order index = |G : N| in G/N; no quotient is built.  The order of
    gN is index iff g^index lies in N and g^(index/r) does not, for each
    prime r dividing index: one row entry each.  A metacyclic group is
    supersolvable (Huppert, *Endliche Gruppen I*), so a G that is not
    supersolvable is refused without the search; ``class_predicates``
    computes that memo anyway."""
    if is_cyclic(G):
        return True
    if not is_supersolvable(G):
        return False
    rows = tuple(conjugacy_classes(G).powers)  # iterated once per N below
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


@memoised("metabelian", product=_both)
def is_metabelian(G: GroupHandle) -> bool:
    """G' is abelian, decided on the classes without building G'.  G' is
    generated by U, the union of the commutators' classes, so it is abelian
    iff U commutes elementwise.  Conjugation permutes U, so that holds iff
    each of those classes' representatives commutes with every member of U.
    A direct product is metabelian iff both factors are; memoised."""
    data, mul = conjugacy_classes(G), id_mul(G)
    cs = {data.class_ids[x] for x in _commutators(G)}
    members = [x for x, c in enumerate(data.class_ids) if c in cs]
    return all(mul(r, x) == mul(x, r)
               for r in map(data.rep_ids.__getitem__, cs) for x in members)


@memoised("supersolvable", product=_both)
def is_supersolvable(G: GroupHandle) -> bool:
    """Descent through the first normal subgroup of prime order, with no
    backtracking.  A direct product is supersolvable iff both factors are;
    memoised."""
    if G.order == 1:
        return True
    for rep, row in _normal_cyclic_rows(G):
        if isprime(len(row)):
            walk = _power_walk(id_mul(G), rep)
            N = SubgroupHandle(G, frozenset(walk))
            return N.order == G.order or is_supersolvable(quotient(G, N))
    return False


def class_predicates(G: GroupHandle) -> dict[str, bool]:
    """The class memberships the report lists.  A metacyclic, metabelian or
    supersolvable group is solvable, so those three tests run only on a
    solvable G; called on their own, they stay exact."""
    fs = fitting_series(G)
    solvable = fs.solvable
    return {
        "solvable": solvable,
        "nilpotent": is_nilpotent(G),
        "abelian": is_abelian(G),
        "cyclic": is_cyclic(G),
        "metacyclic": solvable and is_metacyclic(G),
        "metabelian": solvable and is_metabelian(G),
        "supersolvable": solvable and is_supersolvable(G),
        "metanilpotent": solvable and fs.length <= 2,
    }
