"""Element-level rationality: B_G(g), iota images, rational and cut verdicts.

Two genuinely independent computation paths exist for the group-level cut
verdict:

* :func:`is_cut_group` works entirely from the conjugacy class partition
  (g^m conjugate to g or g^-1 for every m coprime to |g|);
* :func:`cut_oracle_via_bg` scans N_G(<g>) element by element and inspects
  the realized exponent subgroup of the unit group mod |g|.

Both must agree on every group; the test corpus enforces this.  The scan
oracle takes the class representatives only as a list of elements that meets
every conjugacy class.  It never reads class membership or the conjugation
tables, and it conjugates with element products (``G.mult`` and the group's
``inverse_map``), so a fault in the class partition or the tables cannot make
the two oracles agree by accident.  Two lemmas let it scan less:

* if phi(|g|) <= 2, i.e. |g| in {1, 2, 3, 4, 6}, the scanned exponent set
  contains 1 and is a subgroup of U(|g|), a group of order <= 2; it is
  either all of U(|g|) or {1}, which is half of U(|g|) without |g| - 1, so g
  always passes and is not scanned;
* if h = g^k with k a unit mod |g|, then x^-1 h x = h^m exactly when
  x^-1 g x = g^m, so g and h have the same exponent set; the oracle scans
  each cyclic subgroup <g> once.

:func:`product_cut_predicate` decides whether G x H is cut from the factors'
per-class iota images alone: (g, h) is inverse semi-rational iff every unit k
mod lcm(|g|, |h|) lies in both images (each read mod its own order), or -k
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from sympy import isprime, totient

from .elements import Element
from .groups import GroupHandle, NotMember, element_order, inverse_map
from .structure import (ConjugacyData, centralizer, conjugacy_classes,
                        cyclic_subgroup_set, normalizer_of_cyclic)

RATIONAL = "rational"
INVERSE_SEMIRATIONAL = "inverse-semi-rational-only"
NEITHER = "neither"


class PreconditionNotCut(ValueError):
    pass


class NotApplicable(ValueError):
    pass


@dataclass(frozen=True)
class ElementVerdict:
    representative: Element
    order: int
    bg_order: int
    iota_exponents: frozenset[int]
    verdict: str


@dataclass(frozen=True)
class RationalityReport:
    group_label: str
    per_class: tuple[ElementVerdict, ...]
    is_rational: bool
    is_cut: bool
    non_rational_orders: frozenset[int]


def _units(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if gcd(m, n) == 1]


def _powers(G: GroupHandle, g: Element, n: int) -> list[Element]:
    """[g^0, g^1, ..., g^(n-1)]."""
    out = [G.identity]
    for _ in range(n - 1):
        out.append(G.mult(out[-1], g))
    return out


def class_iota_exponents(G: GroupHandle, g: Element,
                         data: ConjugacyData | None = None) -> frozenset[int]:
    """{m coprime to |g| : g^m conjugate to g}; the image of iota_g.

    g^x = g^m forces x to normalize <g>, so conjugacy of g and g^m already
    certifies membership of m in the image of iota_g.
    """
    data = data or conjugacy_classes(G)
    n = element_order(G, g)
    powers = _powers(G, g, n)
    cid = data.class_index[g]
    return frozenset(m for m in _units(n) if data.class_index[powers[m % n]] == cid)


def element_verdict(G: GroupHandle, g: Element,
                    data: ConjugacyData | None = None) -> ElementVerdict:
    data = data or conjugacy_classes(G)
    n = element_order(G, g)
    exps = class_iota_exponents(G, g, data)
    phi = int(totient(n))
    if len(exps) == phi:
        verdict = RATIONAL
    elif _all_pm(G, g, n, data):
        verdict = INVERSE_SEMIRATIONAL
    else:
        verdict = NEITHER
    return ElementVerdict(g, n, len(exps), exps, verdict)


def _all_pm(G: GroupHandle, g: Element, n: int, data: ConjugacyData) -> bool:
    """Every generator of <g> conjugate to g or g^-1."""
    powers = _powers(G, g, n)
    cid = data.class_index[g]
    cid_inv = data.class_index[powers[(n - 1) % n]]
    return all(data.class_index[powers[m % n]] in (cid, cid_inv)
               for m in _units(n))


def is_rational_element(G: GroupHandle, g: Element) -> bool:
    if g not in G.elements:
        raise NotMember(f"element not in {G.label}")
    return element_verdict(G, g).verdict == RATIONAL


def is_inverse_semirational_element(G: GroupHandle, g: Element) -> bool:
    if g not in G.elements:
        raise NotMember(f"element not in {G.label}")
    return element_verdict(G, g).verdict != NEITHER


def rationality_report(G: GroupHandle) -> RationalityReport:
    if "rationality" in G._memo:
        return G._memo["rationality"]
    data = conjugacy_classes(G)
    verdicts = tuple(element_verdict(G, rep, data)
                     for rep in data.representatives)
    report = RationalityReport(
        group_label=G.label,
        per_class=verdicts,
        is_rational=all(v.verdict == RATIONAL for v in verdicts),
        is_cut=all(v.verdict != NEITHER for v in verdicts),
        non_rational_orders=frozenset(v.order for v in verdicts
                                      if v.verdict != RATIONAL),
    )
    G._memo["rationality"] = report
    return report


def is_rational_group(G: GroupHandle) -> bool:
    return rationality_report(G).is_rational


def is_cut_group(G: GroupHandle) -> bool:
    return rationality_report(G).is_cut


def bg_order(G: GroupHandle, g: Element) -> int:
    """|N_G(<g>)| / |C_G(g)| by exhaustive scans."""
    if g not in G.elements:
        raise NotMember(f"element not in {G.label}")
    return normalizer_of_cyclic(G, g).order // centralizer(G, g).order


def scanned_iota_exponents(G: GroupHandle, g: Element) -> frozenset[int]:
    """Image of iota_g computed from N_G(<g>) alone (no class partition).

    Every x in G conjugates g as x^-1 (g x), with x^-1 read from the
    group's inverse map.
    """
    power_index = {G.identity: 0}
    h = g
    while h != G.identity:
        power_index[h] = len(power_index)
        h = G.mult(h, g)
    n = len(power_index)
    mult = G.mult
    exps = set()
    for x, xi in inverse_map(G).items():
        m = power_index.get(mult(xi, mult(g, x)))
        if m is not None:
            exps.add(m or n)
    return frozenset(exps)


def cut_oracle_via_bg(G: GroupHandle) -> bool:
    """Independent cut verdict via normalizer scans and exponent subgroups.

    Scans one generator of each cyclic subgroup <rep> with phi(|rep|) > 2
    (see the module docstring for why the others need no scan).
    """
    seen = set()
    for rep in conjugacy_classes(G).representatives:
        cyc = cyclic_subgroup_set(G, rep)
        n = len(cyc)
        if n in (1, 2, 3, 4, 6) or cyc in seen:
            continue
        seen.add(cyc)
        exps = scanned_iota_exponents(G, rep)
        full = set(_units(n))
        if exps == full:
            continue
        if 2 * len(exps) == len(full) and (n - 1) not in exps:
            continue
        return False
    return True


def product_cut_predicate(G: GroupHandle, H: GroupHandle) -> bool:
    """Is G x H cut, predicted from the factors' rationality reports alone.

    A rational class of a cut factor pairs with any class of the other into
    an inverse semi-rational element, so only pairs of non-rational classes
    are checked, each by :func:`_pair_inverse_semirational`.
    """
    rg, rh = rationality_report(G), rationality_report(H)
    if not (rg.is_cut and rh.is_cut):
        raise PreconditionNotCut("both factors must already be cut")
    gs = {(v.order, v.iota_exponents) for v in rg.per_class
          if v.verdict != RATIONAL}
    hs = {(v.order, v.iota_exponents) for v in rh.per_class
          if v.verdict != RATIONAL}
    return all(_pair_inverse_semirational(a, b) for a in gs for b in hs)


def _pair_inverse_semirational(a: tuple[int, frozenset[int]],
                               b: tuple[int, frozenset[int]]) -> bool:
    """Is (g, h) inverse semi-rational, given (|g|, iota image) of each?

    (g, h)^k is conjugate to (g, h) iff g^k ~ g and h^k ~ h, so k must lie
    in both images, read mod |g| and mod |h|; or -k must, for (g, h)^-1.
    """
    (m, ig), (n, ih) = a, b
    L = lcm(m, n)

    def both(k: int) -> bool:
        return k % m in ig and k % n in ih

    return all(both(k) or both(L - k) for k in _units(L))


def prime_power_criterion_check(G: GroupHandle, g: Element) -> bool:
    """Consistency of the p^n / 2p^n criteria with the direct verdicts.

    Applicable when |g| is p^n or 2p^n for an odd prime p; Aut(<g>) is then
    cyclic of order p^(n-1)(p-1).
    """
    n = element_order(G, g)
    p = _odd_prime_shape(n)
    if p is None:
        raise NotApplicable(f"|g| = {n} is not p^n or 2p^n for an odd prime p")
    v = element_verdict(G, g)
    rational = v.verdict == RATIONAL
    isr = v.verdict != NEITHER
    pn1 = n // p if n % 2 else n // (2 * p)  # p^(n-1)
    aut_order = pn1 * (p - 1)
    orders = {_mult_order(m, n) for m in v.iota_exponents}
    if p % 4 == 1:
        ok = (rational == isr == (aut_order in orders))
    else:
        half = aut_order // 2
        ok_isr = isr == (half <= v.bg_order) == (half in orders or aut_order in orders)
        ok_rat = rational == (v.bg_order == aut_order) == (aut_order in orders)
        ok = ok_isr and ok_rat
    return ok


def _odd_prime_shape(n: int):
    """Odd prime p with n = p^k or 2 p^k, else None."""
    m = n if n % 2 else n // 2
    if m <= 1 or m % 2 == 0:
        return None
    p = min(f for f in range(3, m + 1) if m % f == 0 and isprime(f))
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def _mult_order(m: int, n: int) -> int:
    k, x = 1, m % n
    while x != 1:
        x = x * m % n
        k += 1
    return k
