"""Exhaustive structure analysis: conjugacy, Sylow, Fitting series, predicates.

Everything here works on fully enumerated groups.  Deliberate choices:

* Sylow subgroups grow deterministically inside their normalizer, never by
  random search: each step adds the value-least p-element outside P that
  normalizes P.  The p-elements are read from the group's memoised order
  map (``groups.order_map``), so no element's order is recomputed per step.
* Normal subgroup discovery goes through normal closures of single elements;
  the full subgroup lattice is never enumerated.
* Coset representatives are the value-least element of each coset, so
  quotients are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import factorint, isprime

from .elements import Element
from .groups import (GroupHandle, NotMember, closure_in, element_order,
                     order_map, small_generating_set, subgroup_as_group)


class NotNormal(ValueError):
    pass


class NotSolvable(ValueError):
    pass


@dataclass(frozen=True)
class ConjugacyData:
    classes: tuple[frozenset, ...]
    class_index: dict
    representatives: tuple[Element, ...]


@dataclass(frozen=True)
class SubgroupHandle:
    parent: GroupHandle
    elements: frozenset
    normal: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_group(self, label: str = "") -> GroupHandle:
        return subgroup_as_group(self.parent, self.elements, label)


@dataclass(frozen=True)
class FittingData:
    series: tuple[SubgroupHandle, ...]  # F_0 <= F_1 <= ...
    length: int | None                  # None when the series stalls below G
    op_parts: dict[int, SubgroupHandle]

    @property
    def solvable(self) -> bool:
        return self.length is not None


def conjugacy_classes(G: GroupHandle) -> ConjugacyData:
    """Exact class partition by orbit closure under generator conjugation."""
    if "conjugacy" in G._memo:
        return G._memo["conjugacy"]
    gen_invs = [(g, G.inv(g)) for g in G.generators]
    index: dict = {}
    classes = []
    reps = []
    for start in G.sorted_elements():
        if start in index:
            continue
        cid = len(classes)
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for x in frontier:
                for g, gi in gen_invs:
                    y = G.mult(gi, G.mult(x, g))
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        for x in orbit:
            index[x] = cid
        classes.append(frozenset(orbit))
        reps.append(start)
    data = ConjugacyData(tuple(classes), index, tuple(reps))
    G._memo["conjugacy"] = data
    return data


def centralizer(G: GroupHandle, g: Element) -> SubgroupHandle:
    if g not in G.elements:
        raise NotMember(f"element not in {G.label}")
    elems = frozenset(x for x in G.elements if G.mult(x, g) == G.mult(g, x))
    return _subgroup(G, elems)


def normalizer_of_cyclic(G: GroupHandle, g: Element) -> SubgroupHandle:
    """N_G(<g>): all x with <g>^x = <g>."""
    if g not in G.elements:
        raise NotMember(f"element not in {G.label}")
    cyc = cyclic_subgroup_set(G, g)
    elems = frozenset(x for x in G.elements if G.conjugate(g, x) in cyc)
    return _subgroup(G, elems)


def cyclic_subgroup_set(G: GroupHandle, g: Element) -> frozenset:
    out = {G.identity}
    h = g
    while h != G.identity:
        out.add(h)
        h = G.mult(h, g)
    return frozenset(out)


def _subgroup(G: GroupHandle, elems: frozenset) -> SubgroupHandle:
    return SubgroupHandle(G, elems, _is_normal(G, elems))


def _is_normal(G: GroupHandle, elems) -> bool:
    gens = small_generating_set(G, elems) or [G.identity]
    return all(G.conjugate(s, g) in elems for g in G.generators for s in gens)


def is_p_element(G: GroupHandle, g: Element, p_part: int) -> bool:
    """True iff g^p_part = 1: g is a p-element when p_part is |G|'s p-part."""
    return G.power(g, p_part) == G.identity


def sylow(G: GroupHandle, p: int) -> SubgroupHandle:
    """Sylow p-subgroup by deterministic normalizer growth."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    key = ("sylow", p)
    if key in G._memo:
        return G._memo[key]
    p_part = 1
    n = G.order
    while n % p == 0:
        n //= p
        p_part *= p
    orders = order_map(G)
    # element orders divide |G|, so order | p_part iff it is a power of p
    candidates = [g for g in G.sorted_elements()
                  if orders[g] > 1 and p_part % orders[g] == 0]
    P = {G.identity}
    gens: list[Element] = []
    while len(P) < p_part:
        # P is generated by gens, so x normalizes P iff it conjugates gens into P
        for x in candidates:
            if x in P:
                continue
            xi = G.inv(x)
            if all(G.mult(xi, G.mult(s, x)) in P for s in gens):
                break
        else:
            raise RuntimeError(
                f"no p-element of {G.label} normalizes a p-subgroup of order "
                f"{len(P)} < {p_part}")
        gens.append(x)
        P = closure_in(G, gens)
    normal = all(G.conjugate(s, g) in P for g in G.generators for s in gens)
    sub = SubgroupHandle(G, frozenset(P), normal)
    G._memo[key] = sub
    return sub


def core_p(G: GroupHandle, p: int) -> SubgroupHandle:
    """O_p(G): intersection of all conjugates of a Sylow p-subgroup."""
    key = ("core", p)
    if key in G._memo:
        return G._memo[key]
    P = sylow(G, p).elements
    K = set(P)
    changed = True
    while changed:
        changed = False
        for g in G.generators:
            Kg = {G.conjugate(x, g) for x in K}
            if Kg != K:
                K &= Kg
                changed = True
    sub = SubgroupHandle(G, frozenset(K), True)
    G._memo[key] = sub
    return sub


def fitting(G: GroupHandle) -> SubgroupHandle:
    """F(G): product of the O_p(G) over primes p dividing |G|."""
    elems = {G.identity}
    for p in sorted(factorint(G.order)):
        part = core_p(G, p).elements
        if len(part) > 1:
            elems = closure_in(G, small_generating_set(G, elems) +
                               small_generating_set(G, part))
    return SubgroupHandle(G, frozenset(elems), True)


def fitting_series(G: GroupHandle) -> FittingData:
    if "fitting_series" in G._memo:
        return G._memo["fitting_series"]
    op_parts = {p: core_p(G, p) for p in sorted(factorint(G.order))}
    series = [SubgroupHandle(G, frozenset({G.identity}), True)]
    length: int | None = 0 if G.order == 1 else None
    current = G
    proj = {g: g for g in G.elements}  # composed projection G -> current
    while G.order > 1:
        F = fitting(current)
        if len(F.elements) == 1:
            break  # stalled below G: not solvable
        preimage = frozenset(g for g in G.elements if proj[g] in F.elements)
        series.append(SubgroupHandle(G, preimage, True))
        if len(preimage) == G.order:
            length = len(series) - 1
            break
        nxt = quotient(current, F)
        step = nxt._memo["project"]
        proj = {g: step[proj[g]] for g in G.elements}
        current = nxt
    data = FittingData(tuple(series), length, op_parts)
    G._memo["fitting_series"] = data
    return data


def quotient(G: GroupHandle, N: SubgroupHandle) -> GroupHandle:
    """G/N on value-least coset representatives with induced multiplication."""
    if N.parent is not G and N.parent.elements != G.elements:
        raise NotNormal("subgroup does not live in this group")
    if not _is_normal(G, N.elements):
        raise NotNormal("subgroup is not normal")
    nset = N.elements
    project: dict = {}
    reps = []
    for g in G.sorted_elements():
        if g in project:
            continue
        coset = sorted(G.mult(g, x) for x in nset)
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            project[x] = rep

    gm, gi = G.mult, G.inv

    def mult(a, b):
        return project[gm(a, b)]

    def inv(a):
        return project[gi(a)]

    gens = []
    seen = {project[G.identity]}
    for g in G.generators:
        r = project[g]
        if r not in seen:
            seen.add(r)
            gens.append(r)
    if not gens:
        gens = [project[G.identity]]
    Q = GroupHandle(f"{G.label}/N{len(nset)}", tuple(gens), frozenset(reps),
                    project[G.identity], mult, inv)
    Q._memo["project"] = project
    return Q


def normal_closure(G: GroupHandle, seed_elems) -> frozenset:
    """Smallest normal subgroup containing the seed elements."""
    elems = closure_in(G, list(seed_elems))
    while True:
        gens = small_generating_set(G, elems)
        extra = [G.conjugate(s, g) for s in gens for g in G.generators]
        extra = [x for x in extra if x not in elems]
        if not extra:
            return frozenset(elems)
        elems = closure_in(G, gens + extra)


def minimal_normal_subgroups(G: GroupHandle) -> list[SubgroupHandle]:
    """All minimal normal subgroups of a solvable group."""
    if not is_solvable(G):
        raise NotSolvable("minimal normal subgroup search requires solvability")
    if G.order == 1:
        return []
    data = conjugacy_classes(G)
    closures = {}
    for rep in data.representatives:
        if rep == G.identity or not isprime(element_order(G, rep)):
            continue
        cl = normal_closure(G, [rep])
        closures.setdefault(cl, None)
    candidates = sorted(closures, key=len)
    minimal: list[frozenset] = []
    for cl in candidates:
        if not any(m <= cl for m in minimal):
            minimal.append(cl)
    return [SubgroupHandle(G, m, True) for m in minimal]


def derived_subgroup(G: GroupHandle) -> SubgroupHandle:
    comms = {G.mult(G.inv(a), G.conjugate(a, b))
             for a in G.generators for b in G.generators}
    comms.discard(G.identity)
    elems = normal_closure(G, sorted(comms)) if comms else frozenset({G.identity})
    return SubgroupHandle(G, elems, True)


def is_solvable(G: GroupHandle) -> bool:
    return fitting_series(G).solvable


def is_nilpotent(G: GroupHandle) -> bool:
    return all(sylow(G, p).normal for p in factorint(G.order))


def is_abelian(G: GroupHandle) -> bool:
    return all(G.mult(a, b) == G.mult(b, a)
               for a in G.generators for b in G.generators)


def is_cyclic(G: GroupHandle) -> bool:
    data = conjugacy_classes(G)
    return any(element_order(G, rep) == G.order for rep in data.representatives)


def exponent(G: GroupHandle) -> int:
    from math import lcm
    data = conjugacy_classes(G)
    return lcm(*(element_order(G, rep) for rep in data.representatives))


def _cyclic_normal_subgroups(G: GroupHandle, prime_order_only=False):
    """Normal subgroups <g> (one per generated subgroup), via class reps."""
    data = conjugacy_classes(G)
    seen = set()
    for rep in data.representatives:
        if rep == G.identity:
            continue
        if prime_order_only and not isprime(element_order(G, rep)):
            continue
        cyc = cyclic_subgroup_set(G, rep)
        if cyc in seen:
            continue
        seen.add(cyc)
        if _is_normal(G, cyc):
            yield cyc


def is_metacyclic(G: GroupHandle) -> bool:
    if is_cyclic(G):
        return True
    for cyc in _cyclic_normal_subgroups(G):
        Q = quotient(G, SubgroupHandle(G, cyc, True))
        if is_cyclic(Q):
            return True
    return False


def is_metabelian(G: GroupHandle) -> bool:
    D = derived_subgroup(G)
    return is_abelian(D.as_group())


def is_supersolvable(G: GroupHandle) -> bool:
    """Backtracking search for a G-invariant series with cyclic prime factors."""
    if G.order == 1:
        return True
    for cyc in _cyclic_normal_subgroups(G, prime_order_only=True):
        if len(cyc) == G.order:
            return True
        Q = quotient(G, SubgroupHandle(G, cyc, True))
        if is_supersolvable(Q):
            return True
    return False


def class_predicates(G: GroupHandle) -> dict[str, bool]:
    fs = fitting_series(G)
    solvable = fs.solvable
    return {
        "solvable": solvable,
        "nilpotent": is_nilpotent(G),
        "abelian": is_abelian(G),
        "cyclic": is_cyclic(G),
        "metacyclic": is_metacyclic(G),
        "metabelian": is_metabelian(G),
        "supersolvable": is_supersolvable(G),
        "metanilpotent": solvable and fs.length <= 2,
    }
