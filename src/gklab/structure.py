"""Exhaustive structure analysis: conjugacy, Sylow, Fitting series, predicates.

Everything here works on fully enumerated groups, and on element ids
(``groups.element_ids``) wherever elements would be multiplied.  Subgroups
are returned as element sets; inside, they are built on ids with
``groups.Span`` (closures grown one generator at a time) and
``groups.id_mul``.  Deliberate choices:

* Sylow subgroups grow deterministically inside their normalizer, never by
  random search: each step adds the least p-element outside P that
  normalizes P.  Orders and inverses are read from ``groups.id_powers``, so
  no element's order is recomputed per step.
* Normal subgroup discovery goes through normal closures of single elements;
  the full subgroup lattice is never enumerated.  A normal closure grows a
  span by the conjugates of its generators, read from the conjugation
  tables.
* Coset representatives are the value-least element of each coset, so
  quotients are reproducible bit for bit.  The coset projection is built on
  ids: |G| id products, one per element and element of N.  A quotient's
  sorted order is its list of representatives, its ids multiply in the
  parent's, and its conjugation tables come from its parent's through the
  projection, conjugating by the parent generator behind each quotient
  generator; no element is multiplied.
* Conjugacy classes, O_p(G) and the normality test of ``quotient`` and the
  predicates run on integer ids and per-generator conjugation tables
  (``groups.conjugation_tables``).  Each class is the orbit of its smallest
  id, so its representative is its value-least element, as before.
* The class power map (``ConjugacyData.powers``, GAP's ``PowerMap``) is the
  one class-level primitive: row c lists the classes of rep_c^k for
  0 <= k < |rep_c|, from one walk of <rep_c> on ids.  Class orders are row
  lengths, and the rationality verdicts read the rows.
* ``centralizer`` and ``normalizer_of_cyclic`` scan elements and test
  normality by element products.  Nothing in the library calls them; they
  are kept as references for the tests, and because the benchmark's tracer
  wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from sympy import factorint, isprime

from .elements import Element
from .groups import (GroupHandle, NotMember, Span, conjugation_tables,
                     element_ids, id_mul, id_powers, id_set, induced_mul,
                     small_generating_set, subgroup_as_group)


class NotNormal(ValueError):
    pass


class NotSolvable(ValueError):
    pass


@dataclass(frozen=True)
class ConjugacyData:
    classes: tuple[frozenset, ...]
    class_index: dict
    representatives: tuple[Element, ...]
    # powers[c][k] is the class id of rep_c^k, 0 <= k < |rep_c|
    powers: tuple[tuple[int, ...], ...]


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
    """Class partition by orbit closure on the conjugation tables, and the
    class power map."""
    if "conjugacy" in G._memo:
        return G._memo["conjugacy"]
    srt = G.sorted_elements()
    tables = conjugation_tables(G)
    cids = [-1] * len(srt)
    classes = []
    reps = []
    for start in range(len(srt)):
        if cids[start] >= 0:
            continue
        cid = len(classes)
        cids[start] = cid
        orbit = [start]
        for i in orbit:  # grows while it is read: a breadth-first search
            for t in tables:
                j = t[i]
                if cids[j] < 0:
                    cids[j] = cid
                    orbit.append(j)
        classes.append(frozenset([srt[i] for i in orbit]))
        reps.append(start)
    mul = id_mul(G)
    e = element_ids(G)[G.identity]
    powers = []
    for g in reps:
        row = [cids[e]]
        h = g
        while h != e:
            row.append(cids[h])
            h = mul(h, g)
        powers.append(tuple(row))
    data = ConjugacyData(tuple(classes), dict(zip(srt, cids)),
                         tuple(map(srt.__getitem__, reps)), tuple(powers))
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
    """Subgroup handle whose normality is tested by element products."""
    gens = small_generating_set(G, elems) or [G.identity]
    normal = all(G.conjugate(s, g) in elems for g in G.generators for s in gens)
    return SubgroupHandle(G, elems, normal)


def _is_normal(G: GroupHandle, elems) -> bool:
    """Is the subgroup elems carried into itself by every generator's table?"""
    members = id_set(G, elems)
    return all(t[i] in members for t in conjugation_tables(G) for i in members)


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
    orders, inverses = id_powers(G)
    mul = id_mul(G)
    # element orders divide |G|, so order | p_part iff it is a power of p
    candidates = [x for x in range(G.order)
                  if orders[x] > 1 and p_part % orders[x] == 0]
    P = Span(G)
    members, gens = P.elements, P.gens
    while len(members) < p_part:
        # P is generated by gens, so x normalizes P iff it conjugates gens into P
        for x in candidates:
            if x in members:
                continue
            xi = inverses[x]
            if all(mul(xi, mul(s, x)) in members for s in gens):
                break
        else:
            raise RuntimeError(
                f"no p-element of {G.label} normalizes a p-subgroup of order "
                f"{len(members)} < {p_part}")
        P.add(x)
    ids = element_ids(G)
    normal = all(mul(inverses[g], mul(s, g)) in members
                 for g in map(ids.__getitem__, G.generators) for s in gens)
    sub = SubgroupHandle(G, P.as_elements(), normal)
    G._memo[key] = sub
    return sub


def core_p(G: GroupHandle, p: int) -> SubgroupHandle:
    """O_p(G): intersection of all conjugates of a Sylow p-subgroup."""
    key = ("core", p)
    if key in G._memo:
        return G._memo[key]
    ids = element_ids(G)
    K = {ids[x] for x in sylow(G, p).elements}
    changed = True
    while changed:
        changed = False
        for t in conjugation_tables(G):
            Kg = {t[i] for i in K}
            if Kg != K:
                K &= Kg
                changed = True
    srt = G.sorted_elements()
    sub = SubgroupHandle(G, frozenset(srt[i] for i in K), True)
    G._memo[key] = sub
    return sub


def fitting(G: GroupHandle) -> SubgroupHandle:
    """F(G): product of the O_p(G) over primes p dividing |G|."""
    F = Span(G)
    for p in sorted(factorint(G.order)):
        for x in id_set(G, core_p(G, p).elements):
            F.add(x)
    return SubgroupHandle(G, F.as_elements(), True)


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
    ids = element_ids(G)
    mul = id_mul(G)
    n_ids = id_set(G, N.elements)
    to_q = [-1] * G.order  # G id -> coset number
    rep_ids = []
    for g in range(G.order):
        if to_q[g] >= 0:
            continue
        # every smaller id lies in an earlier coset, so g is gN's least
        for x in n_ids:
            to_q[mul(g, x)] = len(rep_ids)
        rep_ids.append(g)
    srt = G.sorted_elements()
    reps = [srt[i] for i in rep_ids]
    project = dict(zip(srt, map(reps.__getitem__, to_q)))

    gm, gi = G.mult, G.inv

    def mult(a, b):
        return project[gm(a, b)]

    def inv(a):
        return project[gi(a)]

    gens = []
    sources = []  # the G generator behind each quotient generator
    seen = {to_q[ids[G.identity]]}
    for k, g in enumerate(G.generators):
        q = to_q[ids[g]]
        if q not in seen:
            seen.add(q)
            gens.append(reps[q])
            sources.append(k)
    if not gens:
        gens = [project[G.identity]]
    Q = GroupHandle(f"{G.label}/N{len(n_ids)}", tuple(gens), frozenset(reps),
                    project[G.identity], mult, inv)
    Q._memo["project"] = project
    Q._memo["sorted"] = reps
    Q._memo["tables_from"] = lambda: _quotient_tables(G, to_q, rep_ids, sources)
    Q._memo["id_mul_from"] = lambda: induced_mul(id_mul(G), rep_ids, to_q)
    return Q


def _quotient_tables(G: GroupHandle, to_q: list[int], rep_ids: list[int],
                     sources: list[int]) -> list[list[int]]:
    """Tables of G/N through the coset projection: conjugating a coset by
    the coset of g is conjugating its representative by g."""
    if not sources:
        return [[0]]
    tables = conjugation_tables(G)
    return [[to_q[tables[k][i]] for i in rep_ids] for k in sources]


def normal_closure(G: GroupHandle, seed_elems) -> frozenset:
    """Smallest normal subgroup containing the seed elements."""
    K = Span(G)
    for x in id_set(G, seed_elems):
        K.add(x)
    tables = conjugation_tables(G)
    for s in K.gens:  # grows while it is read
        for t in tables:
            K.add(t[s])
    return K.as_elements()


def minimal_normal_subgroups(G: GroupHandle) -> list[SubgroupHandle]:
    """All minimal normal subgroups of a solvable group."""
    if not is_solvable(G):
        raise NotSolvable("minimal normal subgroup search requires solvability")
    if G.order == 1:
        return []
    data = conjugacy_classes(G)
    closures = {}
    for rep, row in zip(data.representatives, data.powers):
        if not isprime(len(row)):
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
    return any(len(row) == G.order for row in conjugacy_classes(G).powers)


def exponent(G: GroupHandle) -> int:
    return lcm(*map(len, conjugacy_classes(G).powers))


def _cyclic_normal_subgroups(G: GroupHandle, prime_order_only=False):
    """Normal subgroups <g> (one per generated subgroup), via class reps."""
    data = conjugacy_classes(G)
    seen = set()
    for rep, row in zip(data.representatives, data.powers):
        n = len(row)
        if n == 1 or prime_order_only and not isprime(n):
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
