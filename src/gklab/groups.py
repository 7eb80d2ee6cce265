"""Enumerated finite groups: closure from generators, products, element orders.

A :class:`GroupHandle` owns its fully enumerated elements, listed once in
id order (``ordered``; a product's origin lists them on first read),
together with multiplication and inversion callables, and a frozen
``origin`` recording how it was built: ``None`` for an enumerated group,
else a :class:`Product`, :class:`Quotient` or :class:`View`.
``elements_at`` is the one way from ids to elements: a product composes
its factors' elements there, so subgroup views, quotient representatives,
generating sets and class representatives list no pair.  ``ids_of`` is the
read back from elements to ids, composed from a product's factors' ids the
same way: the ids of the generators and of subsets, and the element
products of a quotient go through it, so they list no pair either.
Derived data (ids, tables, conjugacy classes, ...) is cached by
:func:`memoised`.

Handles store no generator words, only their Cayley edges as id rows
(``right_rows``: R_k[i] is the id of x_i g_k), which enumeration keeps from
its own search and any other handle computes once.  A map given on
generators (a kernel automorphism, a group action, the rows of a Cayley
table) is extended along a BFS tree of those rows and checked on every edge
(``_along_bfs_tree``; Holt, Eick & O'Brien, *Handbook of Computational
Group Theory*, ch. 4), which multiplies no element.  Conjugation tables
have one rule per construction, stated in ``conjugation_tables``, and both
kinds of product share one (``_pair_tables``).  A product runs no closure
and lists no element when built (``_product_handle``): its order, the ids
of its elements (``ids_of``) and everything on ids come from its factors,
and its pairs are listed only when an element-level read needs them all
(``Product.ordered``, or the id dict ``element_ids``); nothing in the
analysis or the verify suites makes that read.  Enumeration and both
products stop at ``default_cap()`` elements, which only ``GKLAB_MAX_ORDER``
sets: no public function takes a cap argument.

Element ids: an element's id is its position in ``G.ordered``, and the
identity is id 0 in every group.  An enumerated group numbers its elements
in the order its search finds them, from the identity, and every other
handle numbers its own from the ids it is built on, as stated below, which
keeps the identity first: a product's (1, 1) is 0*|H| + 0, a quotient's
cosets go by least id and a view lists its parent's ids in ascending
order.  ``GroupHandle`` refuses a listed handle whose first element is not
its identity, so every walk, tree and span on ids starts at 0 and no group
looks its identity up.  Nothing gklab prints depends on the numbering.
The one hash structure of a group is the memoised id dict
(``element_ids``), which ``G.elements`` reads.  Membership reads
``ids_of``, so a product's reads its factors' dicts and lists no pair.
Every group multiplies ids (``id_mul``) the way it was built:

* a direct product G x H gives the pair (x_i, y_j) the id i*|H| + j (its
  ``ordered`` list is the nested loop over the factors' lists) and
  multiplies componentwise on the factors' ids.  It reads its conjugacy
  classes (``structure.conjugacy_classes``) and its element order counts
  (``element_orders_multiset``) off its factors' (``direct_factors``),
  with no multiplication; each least id, size and power-map row of its
  classes is composed from the factors' only when it is read
  (``_LazyTuple``);
* a semidirect product N x| H uses the same ids and computes
  (i1, j1)(i2, j2) = (i1 * a[j1][i2], j1 j2), where a is the |H| x |N| id
  array of the action, ``Product.act``: its one copy, filled along a BFS
  tree of H's ``right_rows`` from its generators' automorphism rows, which
  its element products read too.  It carries (k, 1) only for the
  generators k of N, in order, that lie outside the H-invariant subgroup
  spanned by the ones kept before (``_kernel_generators``), then (1, h)
  for H's generators: one kernel generator on an irreducible H-module, so
  the 2-Frobenius witnesses carry 3 generators, and every table, class
  orbit and generator scan runs on those.  One id multiplication
  (``_pair_mul``) serves both kinds of product, and one element
  multiplication and inversion (``_product_handle``) and one rule for the
  conjugation tables (``_pair_tables``), a direct product being the case
  where h |> n = n.
  The element operations skip each component that is its factor's
  ``identity`` object, compared with ``is``: 1 x = x 1 = x, 1^-1 = 1, the
  action fixes 1_N, and 1_H acts trivially.  The product's generators
  carry each factor's identity object, as an enumerated factor's listed
  elements do, so conjugating by a generator multiplies only the component
  it moves; an equal object that is not the identity is multiplied, as any
  other;
* a quotient multiplies its representatives' ids in the parent and maps the
  product back through the id-level coset projection ``to_q``.  Its
  generator k is the coset of its parent's generator k, and it walks its
  class power map on those products, as an enumerated group does.  The
  quotient of A x B by N_A x N_B is instead built as the direct product
  A/N_A x B/N_B (``structure.quotient``), and multiplies as one;
* a subgroup view multiplies in its parent's ids, as a quotient does, and
  is never tabulated: its ``right_rows`` are computed once on those
  products, one per id and generator.  It is built on the generators its
  subgroup was grown from when they are known, with no closure, and its
  element orders are its members' orders in its parent
  (``element_orders_multiset``), so it builds no class data to count them;
* only an enumerated group is tabulated, at order TABLE_BOUND or less: a
  Cayley table of 2-byte ``array`` rows, filled from its ``right_rows``
  along a BFS tree.  A larger one multiplies elements.

TABLE_BOUND (1024) is set by memory: a table at the bound takes 2 MB
(1024 rows of 1024 2-byte ids), and a corpus pass keeps the tables of all
its groups alive at once, which the benchmark's bound on ``peak_rss_mb``
must absorb.  No |G|^2 structure exists above the bound, and no group holds
an order or an inverse for every id: ``_power_walk`` walks <g> on ids only
for the few g that need it (one class representative per cyclic subgroup
the class walks reach, generators, the candidates Sylow growth tests).
``Span`` grows a subgroup on ids one generator at a time (Dimino's
algorithm), which closures, generating sets, Sylow growth and normal
closures run on.
"""

from __future__ import annotations

import functools
import os
from array import array
from dataclasses import dataclass, field
from itertools import islice
from math import lcm
from types import MappingProxyType
from typing import Callable, KeysView, Mapping, Optional, Sequence

from . import elements as el
from .elements import Element, IncompatibleKinds

DEFAULT_CAP = 1 << 20
# Enumerated groups of at most this order tabulate their id multiplication;
# the module docstring gives the memory this costs.
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


def check_cap(name: str, order: int) -> None:
    """CapExceeded when a group of more elements than the cap is asked for,
    before a single element is listed."""
    if order > (cap := default_cap()):
        raise CapExceeded(f"{name} order {order} exceeds cap {cap}")


def memoised(key, product=None):
    """Cache f(G, *args) in ``G._memo`` under key, or (key, *args).

    With ``product``, a direct product G = A x B (``direct_factors``) caches
    product(G, f(A, *args), f(B, *args)) instead of running f; each factor's
    result is read through this cache, so it lands in that factor's memo.
    The one writer of ``_memo`` but ``enumerate_group``, which seeds ``ids``
    and ``right_rows`` from its search: a handle fills its caches on first
    read, so it must not be shared between threads without a lock.
    """
    def wrap(f):
        @functools.wraps(f)
        def cached(G, *args):
            k = (key, *args) if args else key
            if k not in G._memo:
                factors = product and direct_factors(G)
                G._memo[k] = (product(G, *(cached(F, *args) for F in factors))
                              if factors else f(G, *args))
            return G._memo[k]
        return cached
    return wrap


@dataclass(frozen=True, eq=False)
class GroupHandle:
    """A fully enumerated group.

    ``ordered`` lists every element once, so ``ordered[i]`` is the element
    with id i: enumeration lists them in the order its search finds them, a
    quotient its cosets by least id and a view its parent's ids in ascending
    order.  Every constructor passes that list as ``listed``, except a
    product, which passes None: its origin lists its pairs on the first read
    of ``ordered`` (``Product.ordered``), and its order is its factors'.
    The handle holds no other copy of its elements: ``elements`` reads the
    memoised id dict, and membership ``ids_of``.

    The identity is id 0: a ``listed`` whose first element is not
    ``identity`` is refused here, with a ValueError naming the label.  A
    product lists nothing, and its identity (1, 1) has id 0 because its
    factors' identities do.

    ``label`` names the group in messages and in derived labels, as its
    builder gave it.  ``dataclasses.replace(G, label=...)`` makes a renamed
    copy, which shares G's list and origin and starts with an empty cache.
    """
    label: str
    generators: tuple[Element, ...]
    listed: Optional[list[Element]]
    identity: Element
    mult: Callable[[Element, Element], Element]
    inv: Callable[[Element], Element]
    origin: Product | Quotient | View | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.listed is not None and self.listed[0] != self.identity:
            raise ValueError(f"{self.label} does not list its identity first")

    @property
    def ordered(self) -> list[Element]:
        listed = self.listed
        return self.origin.ordered if listed is None else listed

    @property
    def order(self) -> int:
        listed = self.listed
        return self.origin.order if listed is None else len(listed)

    @property
    def elements(self) -> KeysView[Element]:
        """The elements as a read-only set view."""
        return element_ids(self).keys()

    def __contains__(self, g: Element) -> bool:
        try:
            ids_of(self, [g])
        except NotMember:
            return False
        return True

    def conjugate(self, g: Element, x: Element) -> Element:
        """g^x = x^-1 g x."""
        return self.mult(self.inv(x), self.mult(g, x))


@dataclass(frozen=True, eq=False)
class Product:
    """left x right (act None), or left x| right with act[j][i] the id of
    y_j |> x_i: one id row per element of right, the one copy of the action.

    The pairs are listed on first read, once for every handle sharing this
    origin: the pair (x_i, y_j) is at i*|right| + j, the nested loop over
    both factors' lists."""
    left: GroupHandle
    right: GroupHandle
    act: Optional[list[array]]

    @functools.cached_property
    def order(self) -> int:
        return self.left.order * self.right.order

    @functools.cached_property
    def ordered(self) -> list[Element]:
        hs = self.right.ordered
        return [(el.PAIR, a, b) for a in self.left.ordered for b in hs]


@dataclass(frozen=True, eq=False)
class Quotient:
    """parent/N: to_q maps parent ids to cosets, whose least ids are rep_ids."""
    parent: GroupHandle
    to_q: list[int]
    rep_ids: list[int]


@dataclass(frozen=True, eq=False)
class View:
    """The subgroup of parent whose ids, in ascending order, are ids."""
    parent: GroupHandle
    ids: list[int]


def direct_factors(G: GroupHandle) -> Optional[tuple[GroupHandle, GroupHandle]]:
    """(A, B) when G was built as the direct product A x B, else None."""
    o = G.origin
    return (o.left, o.right) if isinstance(o, Product) and o.act is None else None


def _bfs_tree(rows) -> tuple[array, array, array]:
    """A BFS tree of the Cayley graph on id rows (rows[k][i] the id of
    x_i g_k) from the identity, id 0, as three arrays: the vertices in the
    order the search reaches them, then, for each vertex past the root, in
    the same order, the vertex it is reached from and the index of the
    generator on that edge."""
    seen = bytearray(len(rows[0]))
    seen[0] = 1
    order, parent, gen = array("I", [0]), array("I"), array("I")
    for x in order:  # grows while it is read
        for i, row in enumerate(rows):
            y = row[x]
            if not seen[y]:
                seen[y] = 1
                order.append(y)
                parent.append(x)
                gen.append(i)
    return order, parent, gen


def _along_bfs_tree(rows, start, step, agrees=None):
    """Map on ids, built along a BFS tree of the Cayley graph on id rows.

    The root, the identity's id 0, gets ``start`` and each tree edge
    x -> rows[i][x] gets ``step(value at x, i)``.  Every edge
    x -> y = rows[i][x] is then tested with ``agrees(value at y, value at
    x, i)`` while the earlier tests have held.  Returns (map, ok), the map
    as a list indexed by id and ok saying whether every test held.
    """
    order, parent, gen = _bfs_tree(rows)
    out = [None] * len(order)
    out[0] = start
    for y, x, i in zip(islice(order, 1, None), parent, gen):
        out[y] = step(out[x], i)
    ok = agrees is None or all(agrees(out[y], out[x], i)
                               for i, row in enumerate(rows)
                               for x, y in enumerate(row))
    return out, ok


def enumerate_group(generators, label: str = "G") -> GroupHandle:
    """Subgroup generated by compatible permutation or matrix elements.

    The BFS from the identity multiplies each element found by each
    generator once, in the order given (``elements.mul``), and an element's
    id is the position at which the search finds it: the identity is id 0.
    The search's list is ``ordered``, its element -> position dict is
    ``element_ids``, and its one id row per generator is ``right_rows``.
    ``same_kind`` rejects generators of mixed kind, degree, p or dimension.
    """
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if any(not el.same_kind(g, generators[0]) for g in generators):
        raise IncompatibleKinds("generators mix element kinds")
    if generators[0][0] == el.PAIR:
        raise IncompatibleKinds(
            "pair elements can only be enumerated inside their product group")
    first = generators[0]
    identity = (el.perm_identity(len(first[1])) if first[0] == el.PERM
                else el.mat_identity(first[1], first[2]))
    cap = default_cap()
    listed = [identity]
    ids = {identity: 0}  # element -> its position in listed, its id
    rows = [array("I") for _ in generators]
    for x in listed:  # grows while it is read
        for g, row in zip(generators, rows):
            y = el.mul(x, g)
            j = ids.get(y)
            if j is None:
                j = ids[y] = len(listed)
                if j == cap:
                    raise CapExceeded(f"closure exceeded cap of {cap} elements")
                listed.append(y)
            row.append(j)
    G = GroupHandle(label, generators, listed, identity, el.mul, el.inv)
    G._memo.update(ids=ids, right_rows=rows)
    return G


def element_order(G: GroupHandle, g: Element) -> int:
    """Least k >= 1 with g^k = identity."""
    if g not in G:
        raise NotMember(f"element not in {G.label}")
    k = 1
    h = g
    while h != G.identity:
        h = G.mult(h, g)
        k += 1
    return k


@memoised("ids")
def element_ids(G: GroupHandle) -> dict[Element, int]:
    """Element -> id, its position in ``G.ordered``; memoised."""
    return {x: i for i, x in enumerate(G.ordered)}


def elements_at(G: GroupHandle, ids) -> list[Element]:
    """The elements with the given ids, in the order given.  A product
    composes its factors' (the pair with id i*|H| + j is (x_i, y_j)), so it
    lists no pair."""
    o = G.origin
    if not isinstance(o, Product):
        return list(map(G.ordered.__getitem__, ids))
    m = o.right.order
    ids = list(ids)
    return [(el.PAIR, a, b) for a, b in zip(
        elements_at(o.left, [i // m for i in ids]),
        elements_at(o.right, [i % m for i in ids]))]


def ids_of(G: GroupHandle, elems) -> list[int]:
    """The ids of the given elements of G, in the order given: the inverse
    of ``elements_at``.  A product composes its factors' ids (the pair
    (x_i, y_j) has id i*|H| + j), so it lists no pair.  NotMember, naming G,
    for any other element, a non-pair given to a product included."""
    o = G.origin
    if not isinstance(o, Product):
        ids = element_ids(G)
        try:
            return [ids[x] for x in elems]
        except KeyError:
            raise NotMember(f"element not in {G.label}") from None
    elems = list(elems)
    try:
        if not all(isinstance(x, tuple) and len(x) == 3 and x[0] == el.PAIR
                   for x in elems):
            raise NotMember
        left = ids_of(o.left, [x[1] for x in elems])
        right = ids_of(o.right, [x[2] for x in elems])
    except NotMember:
        raise NotMember(f"element not in {G.label}") from None
    m = o.right.order
    return [i * m + j for i, j in zip(left, right)]


def generator_ids(G: GroupHandle) -> list[int]:
    """Ids of G's generators (``ids_of``): a product's are (n, 1) for N's
    generators n, then (1, h) for H's; a semidirect product carries only
    the kernel generators ``_kernel_generators`` keeps."""
    return ids_of(G, G.generators)


@memoised("id_mul")
def id_mul(G: GroupHandle) -> Callable[[int, int], int]:
    """(i, j) -> id of x_i x_j, built on first use and memoised.

    A product composes its factors' ids, and a quotient or a subgroup view
    multiplies in its parent's.  An enumerated group of order TABLE_BOUND
    or less reads a Cayley table off its ``right_rows`` (``_cayley_mul``);
    only a larger one multiplies its elements.
    """
    o = G.origin
    if isinstance(o, Product):
        return _pair_mul(o.left, o.right, o.act)
    if isinstance(o, Quotient):
        return induced_mul(id_mul(o.parent), o.rep_ids, o.to_q)
    if isinstance(o, View):
        return induced_mul(id_mul(o.parent), o.ids,
                           {x: k for k, x in enumerate(o.ids)})
    if G.order <= TABLE_BOUND:
        return _cayley_mul(G)
    return induced_mul(G.mult, G.ordered, element_ids(G))


@memoised("right_rows")
def right_rows(G: GroupHandle) -> list[array]:
    """One id row per generator g_k, R_k[i] = id of x_i g_k; memoised.

    Enumeration keeps the rows its search made; any other handle multiplies
    them out once, on ``id_mul`` when it has an origin, else as elements.
    """
    if G.origin is None:
        mul = induced_mul(G.mult, G.ordered, element_ids(G))
    else:
        mul = id_mul(G)
    return [array("I", [mul(i, k) for i in range(G.order)])
            for k in generator_ids(G)]


def _cayley_mul(G: GroupHandle) -> Callable[[int, int], int]:
    """Cayley table, one array row per right factor: rows[j][i] is the id of
    x_i x_j.  The generators' rows are ``right_rows``; the other rows follow
    a BFS tree, as x_j = x_p g gives rows[j] = R_g o rows[p], with no
    multiplication.
    """
    gen_rows = right_rows(G)
    rows, _ = _along_bfs_tree(
        gen_rows, array("H", range(G.order)),
        lambda prev, i: array("H", map(gen_rows[i].__getitem__, prev)))
    return lambda a, b: rows[b][a]


def induced_mul(mul, out, into) -> Callable[[int, int], int]:
    """Multiplication carried over from elsewhere: out maps this group's ids
    there, into maps the product back."""
    return lambda a, b: into[mul(out[a], out[b])]


def _power_walk(mul, g: int) -> list[int]:
    """Ids of g^0, g^1, ..., g^(n-1), where n is the order of g: the walk
    from the identity, id 0, back to it."""
    out = [0]
    h = g
    while h:
        out.append(h)
        h = mul(h, g)
    return out


class _LazyTuple(Sequence):
    """A read-only sequence of n items: item(c) composes item c on its first
    read, and it is kept in one of n slots (no item is None), allocated on
    the first read of any item.  A read by index or by slice (a tuple)
    composes only the items it touches; len reads only n.  Equal to, and
    hashed and printed as, the tuple of its items.  A direct product's least
    ids, class sizes, power-map rows, class ids and verdicts are held in one
    each, so each level of a nested product composes only the items read of
    it."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n, self._item, self._items = n, item, None

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, c: int | slice):
        if isinstance(c, slice):
            return tuple(map(self.__getitem__, range(self._n)[c]))
        items = self._items
        if items is None:
            items = self._items = [None] * self._n
        x = items[c]
        if x is None:
            x = items[c] = self._item(c % self._n)
        return x

    def __eq__(self, other) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class Span:
    """A subgroup of G on ids, grown one generator at a time from the
    trivial subgroup {0}, the identity's id.

    ``add`` runs one step of Dimino's algorithm (Handbook ch. 4): the old
    subgroup H is kept, and the new one is listed as right cosets H y, each
    added whole, for y = (coset representative) * (generator) outside it.
    """

    def __init__(self, G: GroupHandle):
        self.mul = id_mul(G)
        self.elements = {0}
        self.gens: list[int] = []

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


@memoised("conj_tables")
def conjugation_tables(G: GroupHandle) -> list[Sequence[int]]:
    """One table per generator g, t[i] = id of g^-1 x_i g; memoised.

    Each construction has one rule.  A product, direct or semidirect,
    composes its tables from its factors' by one rule (``_pair_tables``),
    and a quotient projects its parent's (``_quotient_tables``); every
    other handle, enumerated, a subgroup view or built by hand, reads its
    tables off its ``right_rows`` with no multiplication (``_row_tables``).
    """
    o = G.origin
    if isinstance(o, Product):
        return _pair_tables(G)
    if isinstance(o, Quotient):
        return _quotient_tables(o)
    return _row_tables(G)


def _row_tables(G: GroupHandle) -> list[array]:
    """Conjugation tables off G's right-multiplication rows R, along one BFS
    tree.

    Left multiplication by a fixed h commutes with right multiplication, so
    its row L (L[i] = id of h x_i) follows the tree from the identity, id 0:
    L[0] = h, and L[c] = R_g[L[p]] on each tree edge c = p g.  With
    h = k^-1, the id before 0 on k's cycle in R_k, the table of k is
    t[i] = R_k[L[i]].
    """
    rows = right_rows(G)
    order, parent, gen = _bfs_tree(rows)
    tables = []
    for k, rk in zip(generator_ids(G), rows):
        ki = k
        while rk[ki]:
            ki = rk[ki]
        left = array("I", [0]) * len(order)
        left[0] = ki
        for c, p, g in zip(islice(order, 1, None), parent, gen):
            left[c] = rows[g][left[p]]
        tables.append(array("I", map(rk.__getitem__, left)))
    return tables


def _pair_tables(G: GroupHandle) -> list[array]:
    """Tables of G = N x H, or N x| H with a = ``Product.act``, its action
    rows, whose id i*|H| + j is the pair (n_i, h_j), composed from the
    factors'.  One table per generator G carries, read off G's generators:
    (k, 1) for each kernel generator k it keeps, then (1, l) for each of
    H's generators l.  N x H is the case where h_j |> k = k.

    A kernel generator k sends (n_i, h_j) to (k^-1 n_i (h_j |> k), h_j) =
    (k^-1 n_i k c_j, h_j), with c_j = k^-1 (h_j |> k).  k^-1 n_i k is read
    off N's table for k, and is multiplied only for each distinct image
    h_j |> k other than k, one column per c_j != 1; in N x H every c_j is 1
    and nothing is multiplied.  An H generator l sends (i, j) to
    (a[l^-1][i], l^-1 h_j l), i itself in N x H, read off H's table for l
    with no multiplication at all.  The inverses k^-1 and l^-1 are read off
    the walk of their powers (``_power_walk``).
    """
    o = G.origin
    N, H, a = o.left, o.right, o.act
    n, m = N.order, H.order
    gids = generator_ids(G)
    kernel_tables = dict(zip(generator_ids(N), conjugation_tables(N)))
    tables = []
    for g in gids[:len(gids) - len(H.generators)]:
        k = g // m
        tk = kernel_tables[k]
        images = [k] * m if a is None else [row[k] for row in a]  # h_j |> k
        # h_j |> k -> the ids of k^-1 n_i k c_j, times m
        cols = {k: [x * m for x in tk]}
        if moved := set(images) - {k}:
            nm = id_mul(N)
            ki = _power_walk(nm, k)[-1]
            for img in moved:
                c = nm(ki, img)
                cols[img] = [nm(x, c) * m for x in tk]
        t = array("I", [0]) * (n * m)
        for j, img in enumerate(images):
            t[j::m] = array("I", [x + j for x in cols[img]])
        tables.append(t)
    for l, th in zip(generator_ids(H), conjugation_tables(H)):
        row = (range(0, n * m, m) if a is None else
               [x * m for x in a[_power_walk(id_mul(H), l)[-1]]])
        tables.append(array("I", [x + y for x in row for y in th]))
    return tables


def _quotient_tables(q: Quotient) -> list[list[int]]:
    """Tables of G/N through the coset projection: conjugating a coset by
    the coset of g is conjugating its representative by g."""
    return [[q.to_q[t[i]] for i in q.rep_ids]
            for t in conjugation_tables(q.parent)]


def _product_orders(G: GroupHandle, ma: Mapping[int, int],
                    mb: Mapping[int, int]) -> Mapping[int, int]:
    """(g, h) has order lcm(|g|, |h|), so A x B has c_A(m) c_B(n) such
    elements for each pair of orders m, n."""
    out: dict[int, int] = {}
    for m, ca in ma.items():
        for n, cb in mb.items():
            k = lcm(m, n)
            out[k] = out.get(k, 0) + ca * cb
    return MappingProxyType(out)


@memoised("element_orders", product=_product_orders)
def element_orders_multiset(G: GroupHandle) -> Mapping[int, int]:
    """order -> number of elements of that order, read-only; memoised.  Read
    off the class power map as row lengths; a direct product's counts are
    composed from its factors' (``_product_orders``), reading no row, and a
    subgroup view's are its members' row lengths in its parent's map, so it
    builds no class data of its own."""
    from .structure import conjugacy_classes  # cycle-free at call time
    o = G.origin
    if isinstance(o, View):  # each member, with the row of its parent class
        data = conjugacy_classes(o.parent)
        rows = ((data.powers[c], 1)
                for c in map(data.class_ids.__getitem__, o.ids))
    else:
        data = conjugacy_classes(G)
        rows = zip(data.powers, data.sizes)
    out: dict[int, int] = {}
    for row, size in rows:
        out[len(row)] = out.get(len(row), 0) + size
    return MappingProxyType(out)


def direct_product(G: GroupHandle, H: GroupHandle) -> GroupHandle:
    """Cartesian product with componentwise multiplication
    (``_product_handle`` with no action)."""
    check_cap("product", G.order * H.order)
    return _product_handle(G, H, None, f"{G.label} x {H.label}")


def _product_handle(N: GroupHandle, H: GroupHandle, act, label: str,
                    kernel_gens=None) -> GroupHandle:
    """The handle of N x H (act None) or N x| H with act = ``Product.act``,
    generated by (k, 1) for each k in kernel_gens, then (1, h) for each of
    H's generators h.  kernel_gens is all of N's generators when None, as
    in a direct product, and those ``_kernel_generators`` keeps in a
    semidirect product.  No pair is listed here: its origin lists them on
    the first element-level read (``Product.ordered``).

    Its elements multiply as (n1, h1)(n2, h2) = (n1 (h1 |> n2), h1 h2) and
    invert as (n, h)^-1 = (h^-1 |> n^-1, h^-1), where h |> n = n when act
    is None.  A component that is its factor's ``identity`` object (``is``,
    never ``==``) is neither multiplied nor inverted: 1 x = x 1 = x and
    1^-1 = 1, so the other operand's component is returned as it is.  The
    action is looked up only for n2 != 1_N under h1 != 1_H: h |> 1_N = 1_N,
    and the row of 1_H is the identity row.  The id dicts of N and H and
    N's list, which that lookup reads, are built only when act is given.
    """
    nm, hm, ni, hi = N.mult, H.mult, N.inv, H.inv
    ne, he = N.identity, H.identity
    if act is not None:
        nid, ns, hid = element_ids(N), N.ordered, element_ids(H)

    def mult(a, b):
        n1, h1, n2, h2 = a[1], a[2], b[1], b[2]
        if n2 is not ne:  # else h1 |> n2 = 1 and n1 1 = n1
            if h1 is not he and act is not None:
                n2 = ns[act[hid[h1]][nid[n2]]]
            n1 = n2 if n1 is ne else nm(n1, n2)
        return (el.PAIR, n1,
                h2 if h1 is he else h1 if h2 is he else hm(h1, h2))

    def inv(a):
        n, h = a[1], a[2]
        if h is not he:
            h = hi(h)
            if n is not ne and act is not None:
                return (el.PAIR, ns[act[hid[h]][nid[ni(n)]]], h)
        return (el.PAIR, n if n is ne else ni(n), h)

    if kernel_gens is None:
        kernel_gens = N.generators
    gens = tuple((el.PAIR, n, he) for n in kernel_gens) + \
        tuple((el.PAIR, ne, h) for h in H.generators)
    return GroupHandle(label, gens, None, (el.PAIR, ne, he), mult, inv,
                       Product(N, H, act))


def extend_to_automorphism(N: GroupHandle, images) -> dict[Element, Element]:
    """Extend generator images to an automorphism of N, or raise.

    The element view of ``_automorphism_row``: n -> f(n) for every n in N.
    """
    row = _automorphism_row(N, images)
    return dict(zip(N.ordered, elements_at(N, row)))


def _automorphism_row(N: GroupHandle, images) -> array:
    """The id row of the automorphism of N with the given generator images,
    f[i] = id of f(x_i), or NotAnAutomorphism.

    The row follows a BFS tree of N's ``right_rows``, f(x g_i) =
    f(x) images[i] on ``id_mul``, and each edge x -> x g_i is then checked to
    give the same; with the tree edges that covers all products by
    induction.
    """
    if len(images) != len(N.generators):
        raise NotAnAutomorphism("one image per generator required")
    try:
        imgs = ids_of(N, images)
    except NotMember:
        raise NotAnAutomorphism("image lies outside the kernel group") from None
    mul = id_mul(N)
    row, multiplicative = _along_bfs_tree(
        right_rows(N), 0, lambda fx, i: mul(fx, imgs[i]),
        lambda fy, fx, i: fy == mul(fx, imgs[i]))
    if len(set(row)) != len(row):
        raise NotAnAutomorphism("generator images do not induce a bijection")
    if not multiplicative:
        raise NotAnAutomorphism("generator images are not multiplicative")
    return array("I", row)


def semidirect_product(N: GroupHandle, H: GroupHandle, action,
                       label: Optional[str] = None) -> GroupHandle:
    """N x| H with multiplication (n1,h1)(n2,h2) = (n1 * (h1 |> n2), h1 h2).

    ``action`` gives, per H generator, the images of N's generators under the
    automorphism that H generator induces.  Each generator's map is checked
    to be an automorphism, as an id row on N (``_automorphism_row``), and the
    induced action of all of H to be well defined, along H's ``right_rows``:
    neither multiplies an element.  The action is held once, as
    ``Product.act``: one id row per element of H, in H's id order, with
    act[j][i] the id of h_j |> n_i in N, which its element products
    (``_product_handle``) read too.

    The product is generated by (k, 1) for the kernel generators k that
    ``_kernel_generators`` keeps, then (1, h) for each of H's generators h:
    N's generators, in order, that H's conjugates of the ones before do not
    reach.  On an irreducible H-module N that is one, so C_3^6 x| (C7 x| C3)
    carries 3 generators, not 8.
    """
    check_cap("product", N.order * H.order)
    if len(action) != len(H.generators):
        raise ActionNotWellDefined("one automorphism per acting generator required")
    rows = [_automorphism_row(N, images) for images in action]
    kgens = generator_ids(N)

    # Compose along a BFS tree of H, (x g_i) |> n = x |> (g_i |> n); every
    # Cayley edge x -> y = x g_i must then agree on N's generators.
    act, well_defined = _along_bfs_tree(
        right_rows(H), array("I", range(N.order)),
        lambda prev, i: array("I", map(prev.__getitem__, rows[i])),
        lambda ay, ax, i: all(ay[k] == ax[rows[i][k]] for k in kgens))
    if not well_defined:
        raise ActionNotWellDefined(
            "generator automorphisms violate the acting group's relations")
    if label is None:
        trivial = all(row == act[0] for row in rows)
        label = f"{N.label}{' x ' if trivial else ' x| '}{H.label}"
    return _product_handle(N, H, act, label,
                           _kernel_generators(N, kgens, rows))


def _kernel_generators(N: GroupHandle, kgens: list[int],
                       rows: list[array]) -> list[Element]:
    """N's generators, in order, that lie outside the H-invariant subgroup
    spanned by those kept before them; kgens are their ids and rows the
    automorphism rows of H's generators on N's ids.

    The kept ids grow one ``Span`` on N, closed under rows after each keep:
    h(<S>) = <h(S)>, so <S> is H-invariant once it holds h(s) for each s
    in S and each row h.  N x| H is then generated by the kept generators
    and H, as every generator of N left out is reached.  The last
    generator is only tested, never spanned.
    """
    span, kept, last = Span(N), [], len(kgens) - 1
    for i, (g, k) in enumerate(zip(N.generators, kgens)):
        if k in span.elements:
            continue
        kept.append(g)
        if i < last:
            span.add(k)
            for s in span.gens:  # grows while it is read
                for row in rows:
                    span.add(row[s])
    return kept


def _pair_mul(N: GroupHandle, H: GroupHandle, a) -> Callable[[int, int], int]:
    """Id multiplication of N x H, or of N x| H with a = ``Product.act``:
    ids i*|H| + j, and (i1, j1)(i2, j2) = (i1 * a[j1][i2], j1 j2) with a[j]
    the action of h_j on N's ids, or (i1 i2, j1 j2) when a is None."""
    nm, hm, m = id_mul(N), id_mul(H), H.order

    def mul(x, y):
        i1, j1 = divmod(x, m)
        i2, j2 = divmod(y, m)
        return nm(i1, i2 if a is None else a[j1][i2]) * m + hm(j1, j2)
    return mul


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
    return elements_at(G, _span_of(G, set(ids_of(G, subset))).gens)


def closure_in(G: GroupHandle, gens) -> set[Element]:
    """Closure of gens under G's multiplication (subset of G)."""
    span = Span(G)
    for x in set(ids_of(G, gens)):
        span.add(x)
    return set(elements_at(G, span.elements))


def subgroup_as_group(G: GroupHandle, subset, label: str = "") -> GroupHandle:
    """View a subgroup element set as a standalone GroupHandle."""
    return subgroup_view(G, set(ids_of(G, subset)), label)


def subgroup_view(G: GroupHandle, members, label: str = "",
                  gens=None) -> GroupHandle:
    """View a subgroup, given by its ids in G, as a standalone GroupHandle.

    The view's ids multiply in G's (``induced_mul``).  Its generators are
    gens, ids in G known to generate it, taken on trust; without them the
    members are spanned greedily (``_span_of``), which also checks that they
    form a subgroup.
    """
    if gens is None:
        span = _span_of(G, members)
        if span.elements != members:
            raise ValueError(f"subset of {G.label} is not a subgroup")
        gens = span.gens
    out = sorted(members)
    return GroupHandle(label or f"{G.label}-sub{len(out)}",
                       tuple(elements_at(G, gens)) or (G.identity,),
                       elements_at(G, out), G.identity, G.mult, G.inv,
                       View(G, out))
