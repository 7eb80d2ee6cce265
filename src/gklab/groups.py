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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Optional

from . import elements as el
from .elements import Element, IncompatibleKinds

DEFAULT_CAP = 1 << 20


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
        return GroupHandle(label, self.generators, self.elements, self.identity,
                           self.mult, self.inv)


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
    """Element -> order for all of G, computed once per group and memoised.

    Each element not yet seen starts a walk over its cyclic subgroup
    g, g^2, ..., g^n = 1, and every power g^k gets order n / gcd(k, n).
    The map is keyed by G's own element objects: it is created with all of
    G.elements as keys, and assigning through an equal tuple from G.mult
    keeps the existing key, so the fresh products are not retained.
    """
    orders = G._memo.get("orders")
    if orders is not None:
        return orders
    orders = dict.fromkeys(G.elements, 0)
    orders[G.identity] = 1
    for g in G.sorted_elements():
        if orders[g]:
            continue
        powers = [g]
        h = G.mult(g, g)
        while h != G.identity:
            powers.append(h)
            h = G.mult(h, g)
        n = len(powers) + 1
        for k, x in enumerate(powers, 1):
            orders[x] = n // gcd(k, n)
    G._memo["orders"] = orders
    return orders


def element_orders_multiset(G: GroupHandle) -> dict[int, int]:
    """order -> number of elements of that order (via conjugacy class reps)."""
    from .structure import conjugacy_classes  # cycle-free at call time
    data = conjugacy_classes(G)
    out: dict[int, int] = {}
    for rep, cls in zip(data.representatives, data.classes):
        n = element_order(G, rep)
        out[n] = out.get(n, 0) + len(cls)
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

    elems = frozenset((el.PAIR, a, b) for a in G.elements for b in H.elements)
    identity = (el.PAIR, G.identity, H.identity)
    gens = tuple((el.PAIR, g, H.identity) for g in G.generators) + \
        tuple((el.PAIR, G.identity, h) for h in H.generators)
    return GroupHandle(f"{G.label} x {H.label}", gens, elems, identity,
                       mult, inv)


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

    elems = frozenset((el.PAIR, n, h) for n in N.elements for h in H.elements)
    identity = (el.PAIR, N.identity, H.identity)
    gens = tuple((el.PAIR, n, H.identity) for n in N.generators) + \
        tuple((el.PAIR, N.identity, h) for h in H.generators)
    if label is None:
        sep = " x " if trivial else " x| "
        label = f"{N.label}{sep}{H.label}"
    return GroupHandle(label, gens, elems, identity, mult, inv)


def small_generating_set(G: GroupHandle, subset) -> list[Element]:
    """Greedy generating set for a subgroup given as an element set."""
    subset = set(subset)
    gens: list[Element] = []
    have = {G.identity}
    for g in sorted(subset):
        if g in have:
            continue
        gens.append(g)
        have = closure_in(G, gens)
        if len(have) == len(subset):
            break
    return gens


def closure_in(G: GroupHandle, gens) -> set[Element]:
    """Closure of gens under G's multiplication (subset of G)."""
    return _closure(gens, G.identity, G.mult, G.order)


def subgroup_as_group(G: GroupHandle, subset, label: str = "") -> GroupHandle:
    """View a subgroup element set as a standalone GroupHandle."""
    gens = small_generating_set(G, subset) or [G.identity]
    elems = frozenset(subset)
    assert closure_in(G, gens) == elems
    return GroupHandle(label or f"{G.label}-sub{len(elems)}", tuple(gens),
                       elems, G.identity, G.mult, G.inv)
