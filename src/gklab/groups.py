"""Enumerated finite groups: closure from generators, products, element orders.

A :class:`GroupHandle` owns a fully enumerated element set together with
multiplication and inversion callables.  Its fields are fixed at
construction, but derived data (sorted elements, the order map, conjugacy
classes, ...) is written lazily into ``_memo`` on first read, so a handle
must not be shared between threads without a lock.

Handles store no generator words: a map given on generators (a kernel
automorphism, a group action) is extended along a BFS tree of the Cayley
graph and then checked on every Cayley edge (Holt, Eick & O'Brien, *Handbook
of Computational Group Theory*, ch. 4).  Products list their elements
directly, without a closure.

Element ids: an element's id is its position in ``sorted_elements()``, so
ids follow the value order.  Every group multiplies ids (``id_mul``), built
lazily and memoised, the way the group was built:

* a direct product G x H gives the pair (x_i, y_j) the id i*|H| + j (its
  sorted order is the nested loop over the factors' sorted orders) and
  multiplies componentwise on the factors' ids;
* a semidirect product N x| H uses the same ids and computes
  (i1, j1)(i2, j2) = (i1 * a[j1][i2], j1 j2), where a is the |H| x |N| id
  array of the action;
* a quotient multiplies its representatives' ids in the parent and maps the
  product back through the id-level coset projection;
* an enumerated group multiplies elements, and a subgroup view multiplies
  in its parent's ids.  At order TABLE_BOUND or less either one is then
  tabulated: a Cayley table of 2-byte ``array`` rows, filled along a BFS tree
  from the generators' right-multiplication rows.

TABLE_BOUND (1024) is set by memory: a table at the bound takes 2 MB, about
3% of the benchmark workloads' ``peak_rss_mb`` (63-70 MB), whose bound is
15%; a corpus pass keeps the tables of all its groups alive at once.  No
|G|^2 structure exists above the bound.  ``id_powers`` walks each cyclic
subgroup once on ids and gives every id's order and inverse; ``Span`` grows a
subgroup on ids one generator at a time (Dimino's algorithm), which closures,
generating sets, Sylow growth, Fitting and normal closures run on.

``conjugation_tables(G)`` holds one memoised table per generator g, whose
entry i is the id of g^-1 x_i g; conjugacy classes, O_p(G) and normality
tests (:mod:`gklab.structure`) run on these int tables.  A direct product
derives its tables from its factors' tables and a quotient from its
parent's (see ``structure.quotient``), with no multiplication; every other
group conjugates on ``id_mul``.  ``relabel`` keeps this structural record.

``order_map`` (element -> order) is read from ``id_powers``, keyed by G's
own element objects.  ``inverse_map`` (element -> inverse, keys and values
G's own objects) inverts elements with ``G.inv``: it serves the
normalizer-scan cut oracle, which multiplies elements and reads nothing of
the id core, so that it stays independent of the class partition.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import elements as el
from .elements import Element, IncompatibleKinds

DEFAULT_CAP = 1 << 20
# Enumerated groups and subgroup views of at most this order tabulate their
# id multiplication: 2-byte ids, 2 MB at the bound (module docstring).
TABLE_BOUND = 1024


class CapExceeded(RuntimeError):
    """Closure grew past the element cap."""


class NotMember(ValueError):
    """Element does not belong to the group."""


class NotAnAutomorphism(ValueError):
    """A supplied generator map does not extend to an automorphism."""


class ActionNotWellDefined(ValueError):
    """Generator automorphisms are inconsistent with the acting group's relations."""


def default_cap() -> int:
    """Element cap from ``GKLAB_MAX_ORDER``, or DEFAULT_CAP when unset."""
    raw = os.environ.get("GKLAB_MAX_ORDER")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"GKLAB_MAX_ORDER must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True, eq=False)
class GroupHandle:
    label: str
    generators: tuple[Element, ...]
    elements: frozenset[Element]
    identity: Element
    mult: Callable[[Element, Element], Element]
    inv: Callable[[Element], Element]
    # single-writer caches (conjugacy data etc.) keyed by computation name
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Element) -> bool:
        return g in self.elements

    def sorted_elements(self) -> list[Element]:
        key = "sorted"
        if key not in self._memo:
            self._memo[key] = sorted(self.elements)
        return self._memo[key]

    def conjugate(self, g: Element, x: Element) -> Element:
        """g^x = x^-1 g x."""
        return self.mult(self.inv(x), self.mult(g, x))

    def power(self, g: Element, n: int) -> Element:
        if n < 0:
            return self.power(self.inv(g), -n)
        acc = self.identity
        base = g
        while n:
            if n & 1:
                acc = self.mult(acc, base)
            base = self.mult(base, base)
            n >>= 1
        return acc

    def relabel(self, label: str) -> "GroupHandle":
        """The same group under a new label.

        The structural record (the sorted order and where the conjugation
        tables come from) carries over; nothing that depends on the label does.
        """
        G = GroupHandle(label, self.generators, self.elements, self.identity,
                        self.mult, self.inv)
        for key in ("sorted", "tables_from", "id_mul_from", "id_base_from"):
            if key in self._memo:
                G._memo[key] = self._memo[key]
        return G


def _closure(gens, identity, mult, cap) -> set[Element]:
    """Breadth-first closure of gens from identity; CapExceeded past cap."""
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = mult(g, s)
                if h not in elems:
                    elems.add(h)
                    new.append(h)
                    if len(elems) > cap:
                        raise CapExceeded(
                            f"closure exceeded cap of {cap} elements")
        frontier = new
    return elems


def _along_bfs_tree(G: GroupHandle, start, step) -> dict:
    """Map on G built along a BFS spanning tree of its Cayley graph.

    The identity gets ``start`` and each tree edge n -> n * g_i gets
    ``step(value at n, i)``.  Callers check the non-tree edges themselves.
    """
    out = {G.identity: start}
    frontier = [G.identity]
    while frontier:
        new = []
        for n in frontier:
            v = out[n]
            for i, g in enumerate(G.generators):
                h = G.mult(n, g)
                if h not in out:
                    out[h] = step(v, i)
                    new.append(h)
        frontier = new
    return out


def enumerate_group(generators, label: str = "G",
                    cap: Optional[int] = None) -> GroupHandle:
    """Subgroup generated by compatible permutation or matrix elements."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if any(not el.same_kind(g, generators[0]) for g in generators):
        raise IncompatibleKinds("generators mix element kinds")
    if generators[0][0] == el.PAIR:
        raise IncompatibleKinds(
            "pair elements can only be enumerated inside their product group")
    cap = default_cap() if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be >= 1")
    first = generators[0]
    identity = (el.perm_identity(len(first[1])) if first[0] == el.PERM
                else el.mat_identity(first[1], first[2]))
    elems = frozenset(_closure(generators, identity, el.mul, cap))
    return GroupHandle(label, generators, elems, identity, el.mul, el.inv)


def element_order(G: GroupHandle, g: Element) -> int:
    """Least k >= 1 with g^k = identity."""
    if g not in G.elements:
        raise NotMember(f"element not in {G.label}")
    k = 1
    h = g
    while h != G.identity:
        h = G.mult(h, g)
        k += 1
    return k


def order_map(G: GroupHandle) -> dict[Element, int]:
    """Element -> order for all of G, read from ``id_powers``; memoised.

    The map is keyed by G's own element objects (its sorted elements).
    """
    orders = G._memo.get("orders")
    if orders is None:
        orders = dict(zip(G.sorted_elements(), id_powers(G)[0]))
        G._memo["orders"] = orders
    return orders


def inverse_map(G: GroupHandle) -> dict[Element, Element]:
    """Element -> inverse for all of G, computed once per group and memoised.

    Keys and values are G's own element objects, as in ``order_map``: the
    map starts with all of G.elements as keys, and ``d[G.inv(x)] = x``
    assigns through an equal key, so the fresh inverse is not retained.
    """
    inverses = G._memo.get("inverses")
    if inverses is not None:
        return inverses
    inverses = dict.fromkeys(G.elements)
    for x in G.elements:
        inverses[G.inv(x)] = x
    G._memo["inverses"] = inverses
    return inverses


def element_ids(G: GroupHandle) -> dict[Element, int]:
    """Element -> id, its position in ``G.sorted_elements()``; memoised."""
    ids = G._memo.get("ids")
    if ids is None:
        ids = {x: i for i, x in enumerate(G.sorted_elements())}
        G._memo["ids"] = ids
    return ids


def id_mul(G: GroupHandle) -> Callable[[int, int], int]:
    """(i, j) -> id of x_i x_j, built on first use and memoised.

    A product or a quotient composes the ids of its factors or parent
    (``_memo["id_mul_from"]``).  Any other group multiplies its elements, or,
    for a subgroup view, its parent's ids (``_memo["id_base_from"]``); at
    order TABLE_BOUND or less it tabulates that once (``_cayley_mul``).
    """
    mul = G._memo.get("id_mul")
    if mul is not None:
        return mul
    derive = G._memo.get("id_mul_from")
    if derive is not None:
        mul = derive()
    else:
        base = G._memo.get("id_base_from")
        mul = base() if base is not None else _element_mul(G)
        if G.order <= TABLE_BOUND:
            mul = _cayley_mul(G, mul)
    G._memo["id_mul"] = mul
    return mul


def _element_mul(G: GroupHandle) -> Callable[[int, int], int]:
    ids, srt, mult = element_ids(G), G.sorted_elements(), G.mult
    return lambda a, b: ids[mult(srt[a], srt[b])]


def _cayley_mul(G: GroupHandle, mul) -> Callable[[int, int], int]:
    """Cayley table of mul, one array row per right factor: rows[j][i] is the
    id of x_i x_j.  Only the generators' rows are multiplied out; the other
    rows follow a BFS tree, as x_j = x_p g gives rows[j] = rows[g] o rows[p].
    """
    ids = element_ids(G)
    n = G.order
    gen_rows = [array("H", [mul(i, ids[g]) for i in range(n)])
                for g in G.generators]
    start = ids[G.identity]
    rows: list = [None] * n
    rows[start] = array("H", range(n))
    frontier = [start]
    while frontier:
        new = []
        for p in frontier:
            prev = rows[p]
            for r in gen_rows:
                j = r[p]
                if rows[j] is None:
                    rows[j] = array("H", itemgetter(*prev)(r))
                    new.append(j)
        frontier = new
    return lambda a, b: rows[b][a]


def induced_mul(mul, out, into) -> Callable[[int, int], int]:
    """Multiplication carried over from another group's ids: out maps this
    group's ids there, into maps the product back."""
    return lambda a, b: into[mul(out[a], out[b])]


def id_powers(G: GroupHandle) -> tuple[array, array]:
    """(orders, inverses), both indexed by id; memoised.

    Each id not yet seen starts a walk over its cyclic subgroup g, g^2, ...,
    g^n = 1 on ``id_mul``: g^k gets order n / gcd(k, n) and inverse g^(n-k).
    """
    got = G._memo.get("id_powers")
    if got is not None:
        return got
    mul = id_mul(G)
    e = element_ids(G)[G.identity]
    orders = array("I", [0]) * G.order
    inverses = orders[:]
    orders[e], inverses[e] = 1, e
    for g in range(G.order):
        if orders[g]:
            continue
        powers = [g]
        h = mul(g, g)
        while h != e:
            powers.append(h)
            h = mul(h, g)
        n = len(powers) + 1
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
            inverses[x] = powers[n - k - 1]
    got = G._memo["id_powers"] = (orders, inverses)
    return got


class Span:
    """A subgroup of G on ids, grown one generator at a time.

    ``add`` runs one step of Dimino's algorithm (Handbook ch. 4): the old
    subgroup H is kept, and the new one is listed as right cosets H y, each
    added whole, for y = (coset representative) * (generator) outside it.
    """

    def __init__(self, G: GroupHandle):
        self.mul = id_mul(G)
        self.elements = {element_ids(G)[G.identity]}
        self.gens: list[int] = []
        self._srt = G.sorted_elements()

    def as_elements(self) -> frozenset[Element]:
        return frozenset(map(self._srt.__getitem__, self.elements))

    def add(self, s: int) -> None:
        members = self.elements
        if s in members:
            return
        mul = self.mul
        old = list(members)
        self.gens.append(s)
        reps = [s]
        members.update([mul(h, s) for h in old])
        for r in reps:  # grows while it is read
            for t in self.gens:
                y = mul(r, t)
                if y not in members:
                    members.update([mul(h, y) for h in old])
                    reps.append(y)


def id_set(G: GroupHandle, elems) -> set[int]:
    """Ids of the given elements of G; NotMember for any other element."""
    ids = element_ids(G)
    try:
        return {ids[x] for x in elems}
    except KeyError:
        raise NotMember(f"element not in {G.label}") from None


def conjugation_tables(G: GroupHandle) -> list[Sequence[int]]:
    """One table per generator g, t[i] = id of g^-1 x_i g; memoised.

    Direct products and quotients derive theirs from their factors' or
    parent's tables (``_memo["tables_from"]``); every other group conjugates
    each id by each generator on ``id_mul``.
    """
    tables = G._memo.get("conj_tables")
    if tables is not None:
        return tables
    derive = G._memo.get("tables_from")
    if derive is not None:
        tables = derive()
    else:
        ids = element_ids(G)
        mul = id_mul(G)
        tables = []
        for g in G.generators:
            k, ki = ids[g], ids[G.inv(g)]
            tables.append(array("I", [mul(ki, mul(i, k))
                                      for i in range(G.order)]))
    G._memo["conj_tables"] = tables
    return tables


def _product_tables(G: GroupHandle, H: GroupHandle) -> list[list[int]]:
    """Tables of G x H, whose id i*|H| + j is the pair (x_i, y_j)."""
    m = H.order
    hs = range(m)
    tables = [[a * m + j for a in t for j in hs] for t in conjugation_tables(G)]
    for t in conjugation_tables(H):
        tables.append([i + b for i in range(0, G.order * m, m) for b in t])
    return tables


def element_orders_multiset(G: GroupHandle) -> dict[int, int]:
    """order -> number of elements of that order (via the class power map)."""
    from .structure import conjugacy_classes  # cycle-free at call time
    data = conjugacy_classes(G)
    out: dict[int, int] = {}
    for row, cls in zip(data.powers, data.classes):
        out[len(row)] = out.get(len(row), 0) + len(cls)
    return out


def direct_product(G: GroupHandle, H: GroupHandle,
                   cap: Optional[int] = None) -> GroupHandle:
    """Cartesian product with componentwise multiplication."""
    cap = default_cap() if cap is None else cap
    if G.order * H.order > cap:
        raise CapExceeded(
            f"product order {G.order * H.order} exceeds cap {cap}")
    gm, hm, gi, hi = G.mult, H.mult, G.inv, H.inv

    def mult(a, b):
        return (el.PAIR, gm(a[1], b[1]), hm(a[2], b[2]))

    def inv(a):
        return (el.PAIR, gi(a[1]), hi(a[2]))

    ordered = _pairs_in_order(G, H)
    identity = (el.PAIR, G.identity, H.identity)
    gens = tuple((el.PAIR, g, H.identity) for g in G.generators) + \
        tuple((el.PAIR, G.identity, h) for h in H.generators)
    P = GroupHandle(f"{G.label} x {H.label}", gens, frozenset(ordered),
                    identity, mult, inv)
    P._memo["sorted"] = ordered
    P._memo["tables_from"] = lambda: _product_tables(G, H)
    P._memo["id_mul_from"] = lambda: _pair_mul(G, H, None)
    return P


def _pairs_in_order(G: GroupHandle, H: GroupHandle) -> list[Element]:
    """All pairs (x, y), sorted: the nested loop over both sorted orders."""
    hs = H.sorted_elements()
    return [(el.PAIR, a, b) for a in G.sorted_elements() for b in hs]


def extend_to_automorphism(N: GroupHandle, images) -> dict[Element, Element]:
    """Extend generator images to an automorphism of N, or raise.

    The extension follows a BFS tree of N's Cayley graph; multiplicativity is
    then verified on every (element, generator) pair, which covers all
    products by induction.
    """
    if len(images) != len(N.generators):
        raise NotAnAutomorphism("one image per generator required")
    for im in images:
        if im not in N.elements:
            raise NotAnAutomorphism("image lies outside the kernel group")
    amap = _along_bfs_tree(N, N.identity,
                           lambda acc, i: N.mult(acc, images[i]))
    if len(set(amap.values())) != len(amap):
        raise NotAnAutomorphism("generator images do not induce a bijection")
    for n in N.elements:
        fn = amap[n]
        for i, g in enumerate(N.generators):
            if amap[N.mult(n, g)] != N.mult(fn, images[i]):
                raise NotAnAutomorphism("generator images are not multiplicative")
    return amap


def semidirect_product(N: GroupHandle, H: GroupHandle, action,
                       label: Optional[str] = None,
                       cap: Optional[int] = None) -> GroupHandle:
    """N x| H with multiplication (n1,h1)(n2,h2) = (n1 * (h1 |> n2), h1 h2).

    ``action`` gives, per H generator, the images of N's generators under the
    automorphism that H generator induces.  The per-generator maps are checked
    to be automorphisms and the induced action of all of H is checked to be
    well defined over H's enumerated multiplication.
    """
    cap = default_cap() if cap is None else cap
    if N.order * H.order > cap:
        raise CapExceeded(
            f"product order {N.order * H.order} exceeds cap {cap}")
    if len(action) != len(H.generators):
        raise ActionNotWellDefined("one automorphism per acting generator required")
    gen_maps = [extend_to_automorphism(N, images) for images in action]

    # Propagate along a BFS tree of H, then verify every Cayley edge agrees.
    act = _along_bfs_tree(
        H, {n: n for n in N.elements},
        lambda prev, i: {n: prev[gen_maps[i][n]] for n in N.elements})
    for h in H.elements:
        for i, g in enumerate(H.generators):
            hg = H.mult(h, g)
            gmap = gen_maps[i]
            ah = act[h]
            if any(act[hg][n] != ah[gmap[n]] for n in N.generators):
                raise ActionNotWellDefined(
                    "generator automorphisms violate the acting group's relations")

    trivial = all(gmap[n] == n for gmap in gen_maps for n in N.elements)

    nm, hm, ni, hi = N.mult, H.mult, N.inv, H.inv

    def mult(a, b):
        return (el.PAIR, nm(a[1], act[a[2]][b[1]]), hm(a[2], b[2]))

    def inv(a):
        h_inv = hi(a[2])
        return (el.PAIR, act[h_inv][ni(a[1])], h_inv)

    ordered = _pairs_in_order(N, H)
    identity = (el.PAIR, N.identity, H.identity)
    gens = tuple((el.PAIR, n, H.identity) for n in N.generators) + \
        tuple((el.PAIR, N.identity, h) for h in H.generators)
    if label is None:
        sep = " x " if trivial else " x| "
        label = f"{N.label}{sep}{H.label}"
    G = GroupHandle(label, gens, frozenset(ordered), identity, mult, inv)
    G._memo["sorted"] = ordered
    G._memo["id_mul_from"] = lambda: _pair_mul(N, H, act)
    return G


def _pair_mul(N: GroupHandle, H: GroupHandle, act) -> Callable[[int, int], int]:
    """Id multiplication of N x H, or of N x| H when act is given: ids
    i*|H| + j, and (i1, j1)(i2, j2) = (i1 * a[j1][i2], j1 j2) with a[j] the
    action of h_j on N's ids (the identity for a direct product)."""
    nm, hm, m = id_mul(N), id_mul(H), H.order
    if act is None:
        def mul(x, y):
            i1, j1 = divmod(x, m)
            i2, j2 = divmod(y, m)
            return nm(i1, i2) * m + hm(j1, j2)
        return mul
    nid = element_ids(N)
    ns = N.sorted_elements()
    a = [array("I", [nid[image[x]] for x in ns])
         for image in map(act.__getitem__, H.sorted_elements())]

    def twisted(x, y):
        i1, j1 = divmod(x, m)
        i2, j2 = divmod(y, m)
        return nm(i1, a[j1][i2]) * m + hm(j1, j2)
    return twisted


def _span_of(G: GroupHandle, members: set[int]) -> Span:
    """Greedy span of a subgroup given by ids: each id, in order, that the
    span does not yet hold is added, until the span is as large as members."""
    span = Span(G)
    for x in sorted(members):
        if len(span.elements) == len(members):
            break
        span.add(x)
    return span


def small_generating_set(G: GroupHandle, subset) -> list[Element]:
    """Greedy generating set for a subgroup given as an element set."""
    srt = G.sorted_elements()
    return [srt[i] for i in _span_of(G, id_set(G, subset)).gens]


def closure_in(G: GroupHandle, gens) -> set[Element]:
    """Closure of gens under G's multiplication (subset of G)."""
    span = Span(G)
    for x in id_set(G, gens):
        span.add(x)
    return set(span.as_elements())


def subgroup_as_group(G: GroupHandle, subset, label: str = "") -> GroupHandle:
    """View a subgroup element set as a standalone GroupHandle.

    The view's ids multiply in G's (``induced_mul``).
    """
    members = id_set(G, subset)
    span = _span_of(G, members)
    if span.elements != members:
        raise ValueError(f"subset of {G.label} is not a subgroup")
    srt = G.sorted_elements()
    out = sorted(members)
    gens = tuple(srt[i] for i in span.gens) or (G.identity,)
    ordered = [srt[i] for i in out]
    V = GroupHandle(label or f"{G.label}-sub{len(out)}", gens,
                    frozenset(ordered), G.identity, G.mult, G.inv)
    V._memo["sorted"] = ordered
    V._memo["id_base_from"] = lambda: induced_mul(
        id_mul(G), out, {x: k for k, x in enumerate(out)})
    return V
