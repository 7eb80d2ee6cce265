"""Frobenius and 2-Frobenius structure of small solvable groups.

A Frobenius group here is detected through its Fitting subgroup: the kernel
of a Frobenius group is nilpotent and equals F(G), so no point stabilizer is
enumerated.  The kernel is decided on the class data
(``conjugacy_classes``), and the complement is read as a quotient, by two
textbook facts (Holt, Eick & O'Brien, *Handbook of Computational Group
Theory*, CRC 2005; Huppert, *Endliche Gruppen I*, Springer 1967, V.8):

* Let X and K be normal in G, with K <= X and |K| prime to |X : K|.  K is
  then a normal Hall subgroup of X, so it has a complement H in X
  (Schur-Zassenhaus), and X is Frobenius with kernel K iff no h != 1 in H
  centralizes some k != 1 in K.  Such a pair exists iff X holds an element
  of order pq, p a prime of |K| and q one of |X : K|.  X is a union of G's
  classes, and an element's order is its class's row length, so one pass
  over G's class rows decides it (``_kernel_reason``).  No element is
  multiplied.
* A Frobenius complement is isomorphic to G/K, so it is read as
  ``quotient(G, K)``.  It has a nontrivial centre, and C_G(h) <= H for
  h != 1 in H, so some class outside K has exactly |K| elements; the
  Frobenius test checks that such a class exists.

Kernels are id sets (``SubgroupHandle.ids``).  The 2-Frobenius test reads
F_1, F_2 and G/F_1 from ``fitting_series``: G is 2-Frobenius when G/F_1 and
F_2 are Frobenius groups.  F_2 is tested by the same kernel test on G's own
class data, with X = F_2 and K = F_1, and no subgroup view: F(F_2) = F_1,
as F(F_2) is characteristic in F_2, so normal and nilpotent in G, and F_1
is nilpotent and normal in F_2.  So a Frobenius kernel is F(G), and a
2-Frobenius decomposition is (F_1, F_2): each test returns only the reason
G fails it, or None, and the public ``*_decomposition`` functions return
those Fitting terms or raise ``NotFrobenius``.
``match_frobenius_cut_family`` names the Frobenius cut family a group
belongs to, from G's classes inside the kernel and the fingerprint of G/K.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import Optional

from .groups import GroupHandle, element_orders_multiset, memoised
from .numtheory import factorint
from .structure import (InvariantFailed, SubgroupHandle, conjugacy_classes,
                        derived_subgroup, exponent, fitting, fitting_series,
                        is_abelian, quotient)

FROBENIUS = "frobenius"
TWO_FROBENIUS = "2-frobenius"
NONE_KIND = "none"


class NotFrobenius(ValueError):
    pass


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


def _kernel_reason(G: GroupHandle, K: SubgroupHandle, xs: Collection[int],
                   label: str) -> Optional[str]:
    """Why X (ids xs) is not Frobenius with kernel K, or None when it is.
    X and K are normal in G, and K <= X: the orders |K| and |X : K| must be
    coprime, and no class of G inside X may have a row length divisible
    both by a prime of |K| and by a prime of |X : K|."""
    k, m = K.order, len(xs) // K.order
    if gcd(k, m) != 1:
        return f"{label}: kernel order not coprime to index"
    data = conjugacy_classes(G)
    if any(gcd(len(row), k) > 1 and gcd(len(row), m) > 1
           for rep, row in zip(data.rep_ids, data.powers) if rep in xs):
        return f"{label}: centralizer condition fails"
    return None


def frobenius_decomposition(G: GroupHandle) -> SubgroupHandle:
    """The Frobenius kernel F(G) of G, or raise NotFrobenius.  A complement
    is read as ``quotient(G, F(G))``."""
    if reason := _not_frobenius(G):
        # a fresh instance per call, so no traceback piles up on one object
        raise NotFrobenius(reason)
    return fitting(G)


@memoised("frobenius")
def _not_frobenius(G: GroupHandle) -> Optional[str]:
    """The reason G is not Frobenius, or None when it is, with kernel F(G).
    InvariantFailed when G passes the kernel test but no class outside F(G)
    has |F(G)| elements."""
    F = fitting(G)
    if F.order in (1, G.order):
        return f"{G.label}: Fitting subgroup is trivial or all of G"
    if reason := _kernel_reason(G, F, range(G.order), G.label):
        return reason
    data = conjugacy_classes(G)
    if not any(size == F.order and rep not in F.ids
               for rep, size in zip(data.rep_ids, data.sizes)):
        raise InvariantFailed(f"no class of size {F.order} in {G.label}")
    return None


def is_frobenius(G: GroupHandle) -> bool:
    return _not_frobenius(G) is None


def two_frobenius_decomposition(
        G: GroupHandle) -> tuple[SubgroupHandle, SubgroupHandle]:
    """(F_1, F_2) of a 2-Frobenius G, or raise NotFrobenius."""
    if reason := _not_two_frobenius(G):
        raise NotFrobenius(reason)
    return fitting_series(G).series[1:3]


def _not_two_frobenius(G: GroupHandle) -> Optional[str]:
    """The reason G is not 2-Frobenius, or None when it is: G is 2-Frobenius
    when G/F(G) and F_2(G) are both Frobenius groups, F_2 with kernel F_1,
    as ``_kernel_reason`` tests it on G's classes."""
    fs = fitting_series(G)
    if not fs.solvable or fs.length != 3:
        return f"{G.label}: Fitting length is not 3"
    _, F1, F2, _ = fs.series
    return (_not_frobenius(fs.quotients[0])
            or _kernel_reason(G, F1, F2.ids, f"{G.label}-F2"))


def is_two_frobenius(G: GroupHandle) -> bool:
    return _not_two_frobenius(G) is None


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
    if _not_frobenius(G):
        return None
    K = fitting(G)
    kfact = factorint(K.order)
    if len(kfact) != 1:
        return None
    [(p, n)] = kfact.items()
    # C_G(k) <= K for k != 1 in K, so k's class has |G : K| elements iff k
    # is central in K: K is elementary abelian iff each such class has
    # row length p and |G : K| elements
    data, m = conjugacy_classes(G), G.order // K.order
    if any(len(row) != p or size != m for rep, size, row
           in zip(data.rep_ids, data.sizes, data.powers)
           if rep != 0 and rep in K.ids):
        return None
    cf = fingerprint(quotient(G, K))
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
