"""Frobenius and 2-Frobenius structure of small solvable groups.

A Frobenius group here is detected through its Fitting subgroup: the kernel
of a Frobenius group is nilpotent and equals F(G), so the search never
enumerates point stabilizers.  Complements are located via the unique
involution when they have even order, and by a bounded generator search
otherwise.  Commutation tests multiply element ids (``groups.id_mul``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from sympy import factorint

from .groups import (GroupHandle, closure_in, element_ids,
                     element_orders_multiset, id_mul, id_powers, id_set,
                     subgroup_as_group)
from .structure import (SubgroupHandle, conjugacy_classes, derived_subgroup,
                        exponent, fitting, fitting_series, is_abelian,
                        is_cyclic, quotient)

FROBENIUS = "frobenius"
TWO_FROBENIUS = "2-frobenius"
NONE_KIND = "none"


class NotFrobenius(ValueError):
    pass


class SearchExhausted(RuntimeError):
    """Kernel and partition checks passed but no complement was located."""


@dataclass(frozen=True)
class FrobeniusDecomposition:
    group_label: str
    kernel: SubgroupHandle
    complement: SubgroupHandle

    @property
    def kernel_order(self) -> int:
        return self.kernel.order

    @property
    def complement_order(self) -> int:
        return self.complement.order


@dataclass(frozen=True)
class TwoFrobeniusDecomposition:
    group_label: str
    f1: SubgroupHandle
    f2: SubgroupHandle
    # structural consequences for 2-Frobenius groups
    top_cyclic: bool
    middle_cyclic_odd: bool
    f1_not_cyclic: bool

    @property
    def consistent(self) -> bool:
        return self.top_cyclic and self.middle_cyclic_odd and self.f1_not_cyclic


@dataclass(frozen=True, order=True)
class GroupFingerprint:
    order: int
    abelian: bool
    exponent: int
    num_classes: int
    center_order: int
    derived_order: int
    order_multiset: tuple[tuple[int, int], ...]


def fingerprint(G: GroupHandle) -> GroupFingerprint:
    if "fingerprint" in G._memo:
        return G._memo["fingerprint"]
    data = conjugacy_classes(G)
    center = sum(len(c) == 1 for c in data.classes)
    fp = GroupFingerprint(
        order=G.order,
        abelian=is_abelian(G),
        exponent=exponent(G),
        num_classes=len(data.classes),
        center_order=center,
        derived_order=derived_subgroup(G).order,
        order_multiset=tuple(sorted(element_orders_multiset(G).items())),
    )
    G._memo["fingerprint"] = fp
    return fp


def _kernel_condition(G: GroupHandle, kernel: frozenset) -> bool:
    """No element outside the kernel commutes with a nontrivial kernel element.

    The kernel is normal, so conjugacy classes lie inside or outside it and
    class representatives suffice.
    """
    ids, mul = element_ids(G), id_mul(G)
    ks = id_set(G, kernel)
    nontrivial = ks - {ids[G.identity]}
    outside = [r for r in map(ids.__getitem__,
                              conjugacy_classes(G).representatives)
               if r not in ks]
    return all(mul(r, n) != mul(n, r) for r in outside for n in nontrivial)


def _find_complement(G: GroupHandle, kernel: frozenset, m: int) -> frozenset:
    """Subgroup of order m meeting the kernel trivially.

    Even m: a Frobenius complement has a unique, central involution t, so the
    complement equals C_G(t) for any involution t outside the kernel.  Odd m:
    bounded search over at most 3 generators of order dividing m.
    """
    srt, ks = G.sorted_elements(), id_set(G, kernel)
    orders = id_powers(G)[0]
    if m % 2 == 0:
        mul = id_mul(G)
        for t in range(G.order):
            if t in ks or orders[t] != 2:
                continue
            cent = [x for x in range(G.order) if mul(x, t) == mul(t, x)]
            if len(cent) == m and len(ks.intersection(cent)) == 1:
                return frozenset(map(srt.__getitem__, cent))
        raise SearchExhausted(f"no even-order complement found in {G.label}")
    candidates = [srt[i] for i in range(G.order)
                  if i not in ks and m % orders[i] == 0]

    def extend(current: frozenset, gens: list, depth: int):
        if len(current) == m:
            return current
        if depth == 0:
            return None
        for g in candidates:
            if g in current:
                continue
            grown = frozenset(closure_in(G, gens + [g]))
            if m % len(grown) or len(grown & kernel) != 1:
                continue
            got = extend(grown, gens + [g], depth - 1)
            if got is not None:
                return got
        return None

    got = extend(frozenset([G.identity]), [], 3)
    if got is None:
        raise SearchExhausted(f"no complement of order {m} found in {G.label}")
    return got


def frobenius_decomposition(G: GroupHandle) -> FrobeniusDecomposition:
    """Decompose G as Frobenius kernel x| complement, or raise NotFrobenius."""
    if "frobenius" in G._memo:
        memo = G._memo["frobenius"]
        if isinstance(memo, str):
            # a fresh instance per call, so no traceback piles up on one object
            raise NotFrobenius(memo)
        return memo
    try:
        F = fitting(G)
        if F.order in (1, G.order):
            raise NotFrobenius(f"{G.label}: Fitting subgroup is trivial or all of G")
        if gcd(F.order, G.order // F.order) != 1:
            raise NotFrobenius(f"{G.label}: kernel order not coprime to index")
        if not _kernel_condition(G, F.elements):
            raise NotFrobenius(f"{G.label}: centralizer condition fails")
        comp = _find_complement(G, F.elements, G.order // F.order)
    except NotFrobenius as exc:
        G._memo["frobenius"] = str(exc)
        raise
    dec = FrobeniusDecomposition(G.label, F,
                                 SubgroupHandle(G, comp, normal=False))
    G._memo["frobenius"] = dec
    return dec


def is_frobenius(G: GroupHandle) -> bool:
    try:
        frobenius_decomposition(G)
        return True
    except NotFrobenius:
        return False


def two_frobenius_decomposition(G: GroupHandle) -> TwoFrobeniusDecomposition:
    """G is 2-Frobenius when G/F(G) and F_2(G) are both Frobenius groups."""
    fs = fitting_series(G)
    if not fs.solvable or fs.length != 3:
        raise NotFrobenius(f"{G.label}: Fitting length is not 3")
    F1 = fitting(G)
    Q1 = quotient(G, F1)
    qdec = frobenius_decomposition(Q1)
    project = Q1._memo["project"]
    f2_elems = frozenset(g for g in G.elements
                         if project[g] in qdec.kernel.elements)
    F2 = subgroup_as_group(G, f2_elems, f"{G.label}-F2")
    frobenius_decomposition(F2)
    f1_group = F1.as_group(f"{G.label}-F1")
    top = quotient(Q1, qdec.kernel)
    middle = qdec.kernel.as_group()
    return TwoFrobeniusDecomposition(
        group_label=G.label,
        f1=F1,
        f2=SubgroupHandle(G, f2_elems, normal=True),
        top_cyclic=is_cyclic(top),
        middle_cyclic_odd=is_cyclic(middle) and middle.order % 2 == 1,
        f1_not_cyclic=not is_cyclic(f1_group),
    )


def is_two_frobenius(G: GroupHandle) -> bool:
    try:
        two_frobenius_decomposition(G)
        return True
    except NotFrobenius:
        return False


def frobenius_kind(G: GroupHandle) -> str:
    if is_frobenius(G):
        return FROBENIUS
    if is_two_frobenius(G):
        return TWO_FROBENIUS
    return NONE_KIND


def _reference_complements() -> dict[str, GroupFingerprint]:
    """Fingerprints of the complement groups appearing in the cut families."""
    from . import catalog
    refs = {
        "C2": catalog.cyclic(2),
        "C3": catalog.cyclic(3),
        "C4": catalog.cyclic(4),
        "C6": catalog.cyclic(6),
        "Q8": catalog.quaternion8(),
        "C3:C4": catalog.dicyclic12(),
        "SL(2,3)": catalog.sl2_3(),
        "Q8xC3": catalog.quaternion8_times_c3(),
    }
    return {name: fingerprint(g) for name, g in refs.items()}


def match_frobenius_cut_family(G: GroupHandle) -> Optional[str]:
    """Name the Frobenius cut family G belongs to, if any.

    Returns a family label, the string "unmatched-but-consistent" for a
    Frobenius cut group with complement C3 (allowed but not pinned to a listed
    family), or None when G matches nothing.
    """
    try:
        dec = frobenius_decomposition(G)
    except NotFrobenius:
        return None
    kernel = dec.kernel.as_group(f"{G.label}-kernel")
    comp = subgroup_as_group(G, dec.complement.elements, f"{G.label}-comp")
    kfact = factorint(kernel.order)
    if len(kfact) != 1:
        return None
    [(p, n)] = kfact.items()
    elementary = is_abelian(kernel) and exponent(kernel) == p
    if not elementary:
        return None
    cf = fingerprint(comp)
    refs = _reference_complements()
    name = next((nm for nm, fp in refs.items() if fp == cf), None)
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
    if name == "C3":
        return "unmatched-but-consistent"
    return None
