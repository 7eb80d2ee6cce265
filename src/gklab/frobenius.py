"""Frobenius and 2-Frobenius structure of small solvable groups.

A Frobenius group here is detected through its Fitting subgroup: the kernel
of a Frobenius group is nilpotent and equals F(G), so no point stabilizer is
enumerated.  Kernel and complement are read off the class data
(``conjugacy_classes``) by two textbook facts (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, CRC 2005):

* K = F(G) of index m prime to |K| is a normal Hall subgroup, so a subgroup
  lies in K iff its order is prime to m.  K is a Frobenius kernel iff
  C_G(k) <= K for every k != 1 in K, that is iff m divides the size of
  every nontrivial class inside K.  No element is multiplied.
* A Frobenius complement H has a nontrivial centre, and C_G(h) <= H for
  h != 1 in H.  Every element outside K lies in a complement, so a class
  outside K has exactly |K| elements iff its members are central in their
  complement, and the centralizer of its representative, one pass over the
  ids, is a complement.  The decomposition checks that such a class exists;
  the pass runs only when ``complement`` is first read.

Kernels and complements are id sets (``SubgroupHandle.ids``).  The
2-Frobenius test reads F_1, F_2 and G/F_1 from ``fitting_series``: G is
2-Frobenius when G/F_1 and F_2 are Frobenius groups.  F_2 is tested on G's
own class data, with no subgroup view: F(F_2) = F_1, as F(F_2) is
characteristic in F_2, so normal and nilpotent in G, and F_1 is nilpotent
and normal in F_2.  With |F_1| prime to |F_2 : F_1|, F_1 is the normal Hall
subgroup of F_2, and F_2 is Frobenius iff no element of F_2 has an order
divisible both by a prime of |F_1| and by a prime of |F_2 : F_1|.  F_2 is a
union of G's classes, and an element's order is its class's row length.
Each test returns its decomposition or the reason it fails; only the public
``*_decomposition`` functions raise ``NotFrobenius``.
``match_frobenius_cut_family`` names the Frobenius cut family a group
belongs to, and reads the complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from typing import Optional

from .groups import GroupHandle, element_orders_multiset, id_mul, memoised
from .numtheory import factorint
from .structure import (InvariantFailed, SubgroupHandle, conjugacy_classes,
                        derived_subgroup, exponent, fitting, fitting_series,
                        is_abelian)

FROBENIUS = "frobenius"
TWO_FROBENIUS = "2-frobenius"
NONE_KIND = "none"


class NotFrobenius(ValueError):
    pass


@dataclass(frozen=True)
class FrobeniusDecomposition:
    """A Frobenius kernel; a complement is found on its first read."""
    kernel: SubgroupHandle

    @cached_property
    def complement(self) -> SubgroupHandle:
        G, ks = self.kernel.parent, self.kernel.ids
        return SubgroupHandle(G, _find_complement(G, ks, G.order // len(ks)),
                              normal=False)


@dataclass(frozen=True)
class TwoFrobeniusDecomposition:
    f1: SubgroupHandle
    f2: SubgroupHandle


@dataclass(frozen=True, order=True)
class GroupFingerprint:
    order: int
    abelian: bool
    exponent: int
    num_classes: int
    center_order: int
    derived_order: int
    order_multiset: tuple[tuple[int, int], ...]


@memoised("fingerprint")
def fingerprint(G: GroupHandle) -> GroupFingerprint:
    data = conjugacy_classes(G)
    return GroupFingerprint(
        order=G.order,
        abelian=is_abelian(G),
        exponent=exponent(G),
        num_classes=len(data.rep_ids),
        center_order=data.sizes.count(1),
        derived_order=derived_subgroup(G).order,
        order_multiset=tuple(sorted(element_orders_multiset(G).items())),
    )


def _kernel_condition(G: GroupHandle, ks: frozenset[int]) -> bool:
    """C_G(k) <= K for every k != 1 in the kernel K (ids ks): the index of K
    divides every nontrivial class size inside K.  The trivial class is
    class 0, whose least id is the identity's, 0."""
    data = conjugacy_classes(G)
    m = G.order // len(ks)
    return all(size % m == 0 for rep, size in zip(data.rep_ids, data.sizes)
               if rep != 0 and rep in ks)


def _complement_rep(G: GroupHandle, ks: frozenset[int]) -> int:
    """The first class representative outside the kernel K (ids ks) whose
    class has |K| elements.  InvariantFailed when there is none."""
    data = conjugacy_classes(G)
    t = next((rep for rep, size in zip(data.rep_ids, data.sizes)
              if size == len(ks) and rep not in ks), None)
    if t is None:
        raise InvariantFailed(f"no class of size {len(ks)} in {G.label}")
    return t


def _find_complement(G: GroupHandle, ks: frozenset[int], m: int) -> frozenset[int]:
    """Ids of a complement of order m: C_G(t) for t = ``_complement_rep``.
    InvariantFailed when there is no such t, or C_G(t) is no complement."""
    mul, t = id_mul(G), _complement_rep(G, ks)
    cent = frozenset(x for x in range(G.order) if mul(x, t) == mul(t, x))
    if len(cent) != m or len(cent & ks) != 1:
        raise InvariantFailed(f"no complement of order {m} in {G.label}")
    return cent


def frobenius_decomposition(G: GroupHandle) -> FrobeniusDecomposition:
    """Decompose G as Frobenius kernel x| complement, or raise NotFrobenius."""
    dec = _decompose(G)
    if isinstance(dec, str):
        # a fresh instance per call, so no traceback piles up on one object
        raise NotFrobenius(dec)
    return dec


@memoised("frobenius")
def _decompose(G: GroupHandle) -> FrobeniusDecomposition | str:
    """The decomposition, or the reason G is not Frobenius."""
    F = fitting(G)
    if F.order in (1, G.order):
        return f"{G.label}: Fitting subgroup is trivial or all of G"
    if gcd(F.order, G.order // F.order) != 1:
        return f"{G.label}: kernel order not coprime to index"
    if not _kernel_condition(G, F.ids):
        return f"{G.label}: centralizer condition fails"
    _complement_rep(G, F.ids)
    return FrobeniusDecomposition(F)


def is_frobenius(G: GroupHandle) -> bool:
    return not isinstance(_decompose(G), str)


def two_frobenius_decomposition(G: GroupHandle) -> TwoFrobeniusDecomposition:
    """F_1 and F_2 of a 2-Frobenius G, or raise NotFrobenius."""
    dec = _two_frobenius(G)
    if isinstance(dec, str):
        raise NotFrobenius(dec)
    return dec


def _two_frobenius(G: GroupHandle) -> TwoFrobeniusDecomposition | str:
    """The decomposition, or the reason G is not 2-Frobenius: G is
    2-Frobenius when G/F(G) and F_2(G) are both Frobenius groups.  F_2, of
    Fitting subgroup F_1, is tested on G's classes inside it: no element's
    order may meet the primes of |F_1| and of |F_2 : F_1| both."""
    fs = fitting_series(G)
    if not fs.solvable or fs.length != 3:
        return f"{G.label}: Fitting length is not 3"
    _, F1, F2, _ = fs.series
    if isinstance(reason := _decompose(fs.quotients[0]), str):
        return reason
    k, m = F1.order, F2.order // F1.order
    if gcd(k, m) != 1:
        return f"{G.label}-F2: kernel order not coprime to index"
    data = conjugacy_classes(G)
    if any(gcd(len(row), k) > 1 and gcd(len(row), m) > 1
           for rep, row in zip(data.rep_ids, data.powers) if rep in F2.ids):
        return f"{G.label}-F2: centralizer condition fails"
    return TwoFrobeniusDecomposition(F1, F2)


def is_two_frobenius(G: GroupHandle) -> bool:
    return not isinstance(_two_frobenius(G), str)


def frobenius_kind(G: GroupHandle) -> str:
    if is_frobenius(G):
        return FROBENIUS
    if is_two_frobenius(G):
        return TWO_FROBENIUS
    return NONE_KIND


# the complement groups of the cut families, in matching order: the name of
# each one's catalog function, then its arguments
_REFERENCE_BUILDS = {
    "C2": ("cyclic", 2), "C3": ("cyclic", 3), "C4": ("cyclic", 4),
    "C6": ("cyclic", 6), "Q8": ("quaternion8",), "C3:C4": ("dicyclic12",),
    "SL(2,3)": ("sl2_3",), "Q8xC3": ("quaternion8_times_c3",),
}


@cache
def _reference_fingerprint(name: str) -> GroupFingerprint:
    """Fingerprint of one named complement group of the cut families; each
    built once per process, and only when asked for."""
    from . import catalog
    make, *args = _REFERENCE_BUILDS[name]
    return fingerprint(getattr(catalog, make)(*args))


def match_frobenius_cut_family(G: GroupHandle) -> Optional[str]:
    """Name the Frobenius cut family G belongs to, if any.

    Returns a family label, the string "unmatched-but-consistent" for a
    Frobenius cut group with complement C3 (allowed but not pinned to a listed
    family), or None when G matches nothing.
    """
    dec = _decompose(G)
    if isinstance(dec, str):
        return None
    kernel = dec.kernel.as_group(f"{G.label}-kernel")
    comp = dec.complement.as_group(f"{G.label}-comp")
    kfact = factorint(kernel.order)
    if len(kfact) != 1:
        return None
    [(p, n)] = kfact.items()
    elementary = is_abelian(kernel) and exponent(kernel) == p
    if not elementary:
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
    if name == "C3":
        return "unmatched-but-consistent"
    return None
