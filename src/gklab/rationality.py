"""Element-level rationality: B_G(g), iota images, rational and cut verdicts.

Two genuinely independent computation paths exist for the group-level cut
verdict:

* :func:`is_cut_group` works entirely from the conjugacy class partition
  (g^m conjugate to g or g^-1 for every m coprime to |g|), read from its
  class power map rows (``ConjugacyData.powers``), not from element products.
  Each class's verdict is read by its class number, so no element is looked
  up; :func:`element_verdict` finds an arbitrary element's class through its
  id;
* :func:`cut_oracle_via_bg` computes B_G(g), the image of N_G(<g>) in
  Aut(<g>) = U(|g|), and inspects that exponent subgroup.  It reads the
  image by orbit-stabiliser (:func:`scanned_iota_exponents`): a BFS orbit of
  <g> under conjugation by the generators, the exponents of its Schreier
  generators, and their closure under multiplication mod |g|.  g is
  inverse semi-rational iff B_G(g) and -1 generate U(|g|), so the oracle
  seeds that closure with |g| - 1, and its BFS stops once the closure is
  all of U(|g|).

Both must agree on every group; the test corpus enforces this.  The scan
oracle takes the class representatives only as a list of elements that meets
every conjugacy class.  It never reads class membership, the power map, the
id core or the conjugation tables; it conjugates with element products
(``G.mult``, ``G.identity`` and ``G.inv`` of each generator), so a fault in
the class partition or the tables cannot make the two oracles agree by
accident.  Four lemmas let it scan less:

* if phi(|g|) <= 2, i.e. |g| in {1, 2, 3, 4, 6}, U(|g|) is {1, |g| - 1},
  which -1 alone generates, so g always passes and is not scanned;
* if h = g^k with k a unit mod |g|, then x^-1 h x = h^m exactly when
  x^-1 g x = g^m, so g and h have the same exponent set;
* conjugate cyclic subgroups share the image: y^-1 h y = h^m exactly when
  (x y x^-1)^-1 g (x y x^-1) = g^m, for h = x^-1 g x.  With the lemma above,
  every x^-1 g^k x (k a unit) has g's exponent set.  The scan of <g> indexes
  these elements, as the generators of the points of its orbit it visits,
  so the oracle skips a representative it finds there.  A scan stopped
  once B_G(g) and -1 generate U(|g|) may leave some of them out, but then
  every g^k is conjugate to g or to g^-1, so each one left out lies in g's
  own class, whose representative is g, or in g^-1's.  So each conjugacy
  class of cyclic subgroups is scanned once, but for the representative of
  g^-1's class, which may be scanned once more (87 scans where a stop at a
  full image made 85, on the 36 distinct groups of ``gklab verify
  invariants --count 40``);
* if g is inverse semi-rational, so is every g^j: a unit u mod |g^j| lifts
  to a unit k mod |g| with k = u mod |g^j|, and g^k is conjugate to g or
  g^-1, so (g^j)^u = (g^k)^j is conjugate to g^j or g^-j.  The oracle also
  skips a representative among the powers of one that passed.

The units mod n (``_units``) are plain arithmetic, memoised per n and shared
by both oracles and the product predicate; they hold no group data.

A direct product's report is built from its factors' reports
(``memoised(product=_product_report)``).  A class's verdict is a function
of its key, its order and iota image, and holds that key, so each report
keeps ``firsts``, its distinct verdicts each mapped to the first class that
has it.  In any A x B, (g, h)^m is conjugate to (g, h) iff g^m ~ g and
h^m ~ h, so the key, and with it the verdict, of (g, h) is a function of
the verdicts of g and h.  One table per process, ``_product_verdicts``,
maps each such pair of factor verdicts to the product class's verdict, for
every product alike.  A product looks each pair of its factors' distinct
verdicts up in it; only on a miss does it run ``_class_verdict`` on its own
power map row at the pair of first classes, and store the result.  It reads
the group's verdicts and its own ``firsts`` off those alone, never off its
factors' ``per_class``.  Its ``per_class`` is composed per item on its
first read (``groups._LazyTuple``), as the product's class data are, each
item looked up in the table by the factor verdicts of its class; equal
verdicts are one shared object, built once.  Like ``_units`` and
``_shared_verdict``, the table holds verdicts only and no group, so it
keeps no handle alive.

:func:`product_cut_predicate` decides whether G x H is cut from the iota
images of the factors' distinct verdicts alone: (g, h) is inverse
semi-rational iff every unit k mod lcm(|g|, |h|) lies in both images (each
read mod its own order), or -k does.  It never reads the product's rows or
the verdict table, so it stays a check on the report that is independent of
the memo and the table above.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from math import gcd, lcm

from .elements import Element
from .groups import GroupHandle, _LazyTuple, ids_of, memoised
from .structure import conjugacy_classes

RATIONAL = "rational"
INVERSE_SEMIRATIONAL = "inverse-semi-rational-only"
NEITHER = "neither"


class PreconditionNotCut(ValueError):
    pass


@dataclass(frozen=True)
class ElementVerdict:
    order: int
    bg_order: int
    iota_exponents: frozenset[int]
    verdict: str


# equal verdicts are one object, so a verdict is built once per key
_shared_verdict = cache(ElementVerdict)

# (verdict of g, verdict of h) -> verdict of (g, h) in any A x B, g in A and
# h in B: shared by every direct product in the process (``_product_report``);
# two threads that miss on one pair store equal verdicts
_product_verdicts: dict[tuple[ElementVerdict, ElementVerdict],
                        ElementVerdict] = {}


@dataclass(frozen=True)
class RationalityReport:
    # a tuple, or for a direct product a ``groups._LazyTuple`` that
    # composes each verdict on its first read
    per_class: Sequence[ElementVerdict]
    is_rational: bool
    is_cut: bool
    non_rational_orders: frozenset[int]
    # each distinct verdict -> the first class that has it, in class order
    firsts: dict[ElementVerdict, int] = field(compare=False, repr=False)


@cache
def _units(n: int) -> tuple[int, ...]:
    """The units mod n in 1..n; memoised, as both oracles ask per class."""
    return tuple(m for m in range(1, n + 1) if gcd(m, n) == 1)


def class_iota_exponents(G: GroupHandle, g: Element) -> frozenset[int]:
    """{m coprime to |g| : g^m conjugate to g}; the image of iota_g.

    g^x = g^m forces x to normalize <g>, so conjugacy of g and g^m already
    certifies membership of m in the image of iota_g.
    """
    return element_verdict(G, g).iota_exponents


def element_verdict(G: GroupHandle, g: Element) -> ElementVerdict:
    """Verdict for g, read by the class of its id (``_class_verdict``)."""
    data = conjugacy_classes(G)
    cid = data.class_ids[ids_of(G, [g])[0]]
    return _class_verdict(cid, data.powers[cid])


def _class_verdict(cid: int, row: tuple[int, ...]) -> ElementVerdict:
    """Verdict for an element g of class cid, read from the class's power
    map row.

    n = len(row) is |g|, and g^m lies in class row[m % n]: g is rational when
    that is cid for every unit m, inverse semi-rational when it is cid or
    row[n - 1], the class of g^-1.
    """
    n = len(row)
    units = _units(n)
    exps = frozenset(m for m in units if row[m % n] == cid)
    if len(exps) == len(units):
        verdict = RATIONAL
    elif all(row[m % n] in (cid, row[n - 1]) for m in units):
        verdict = INVERSE_SEMIRATIONAL
    else:
        verdict = NEITHER
    return _shared_verdict(n, len(exps), exps, verdict)


def _report(per_class: Sequence[ElementVerdict],
            firsts: dict[ElementVerdict, int]) -> RationalityReport:
    """The report on the classes with these verdicts, in class order; the
    group's verdicts are read off the keys of firsts, each distinct verdict
    of per_class mapped to the first class that has it."""
    return RationalityReport(
        per_class=per_class,
        is_rational=all(v.verdict == RATIONAL for v in firsts),
        is_cut=all(v.verdict != NEITHER for v in firsts),
        non_rational_orders=frozenset(v.order for v in firsts
                                      if v.verdict != RATIONAL),
        firsts=firsts,
    )


def _product_report(G: GroupHandle, ra: RationalityReport,
                    rb: RationalityReport) -> RationalityReport:
    """The report of G = A x B from its factors', class (a, b) numbered
    a*k(B) + b.

    A class's verdict is read off its key, (|g|, iota image of g), alone,
    and holds it, so verdict and key fix each other.  (g, h)^m lies in the
    class of (g, h) iff m mod |g| and m mod |h| lie in the two images, and
    in the class of (g, h)^-1 iff -m does, so the pair of factor verdicts
    fixes the product class's verdict, in G and in every other direct
    product.  It is read from ``_product_verdicts``, the table all products
    of the process share; only a pair no product has met yet is computed,
    by ``_class_verdict`` on G's row for a*k(B) + b, a and b the first
    classes with the two verdicts (``firsts``), and stored there.  Those
    classes come in ascending order, and the first class with a product
    verdict is one of them, so they give G's own ``firsts``.
    """
    powers = conjugacy_classes(G).powers
    va, vb, kb = ra.per_class, rb.per_class, len(rb.per_class)
    table, firsts = _product_verdicts, {}
    for x, a in ra.firsts.items():
        for y, b in rb.firsts.items():
            c = a * kb + b
            if (v := table.get((x, y))) is None:
                v = table[x, y] = _class_verdict(c, powers[c])
            firsts.setdefault(v, c)
    return _report(_LazyTuple(len(va) * kb, lambda c: table[
        va[c // kb], vb[c % kb]]), firsts)


@memoised("rationality", product=_product_report)
def rationality_report(G: GroupHandle) -> RationalityReport:
    """Every class's verdict, and the group's; memoised.  A direct product
    computes one verdict per pair of its factors' distinct verdicts
    (``_product_report``)."""
    powers = conjugacy_classes(G).powers
    verdicts = tuple(map(_class_verdict, range(len(powers)), powers))
    firsts: dict[ElementVerdict, int] = {}
    for c, v in enumerate(verdicts):
        firsts.setdefault(v, c)
    return _report(verdicts, firsts)


def is_rational_group(G: GroupHandle) -> bool:
    return rationality_report(G).is_rational


def is_cut_group(G: GroupHandle) -> bool:
    return rationality_report(G).is_cut


def scanned_iota_exponents(G: GroupHandle, g: Element) -> frozenset[int]:
    """Image of iota_g computed from N_G(<g>) alone (no class partition).

    Orbit-stabiliser in the conjugation action on cyclic subgroups (Holt,
    Eick & O'Brien, *Handbook of Computational Group Theory*, ch. 4).  A BFS
    over ``G.generators`` visits the orbit of <g>, one point per conjugate
    subgroup.  Point P is held as h_P = t_P^-1 g t_P, where t_P is the
    product of generators along the BFS tree, and each generator h_P^k of P
    (k a unit mod n = |g|) is indexed under k: g^k from one walk of <g>, and
    for a point Q first met as s^-1 h_P s, h_Q^k = s^-1 h_P^k s.  When
    s^-1 h_P s is an indexed h_Q^k, the Schreier generator t_P s t_Q^-1
    conjugates g to g^k.  By Schreier's lemma these generate N_G(<g>), so
    the closure of their exponents under multiplication mod n, 1 included,
    is the image.  The BFS stops as soon as that closure is all of U(n),
    when the image is full whatever the rest of the orbit holds, so for
    n <= 2 it does not start.

    Cost: n element products for the walk of <g>, then at most
    2 (phi(n) + |gens|) per point of the orbit visited: all
    |G : N_G(<g>)| points when the image is not full, and when it is, only
    those met before the exponent that completes it.  The oracle's scan
    (:func:`cut_oracle_via_bg`), whose closure starts from n - 1, stops as
    soon as the image and -1 generate U(n), so it walks a whole orbit only
    for a g that is not inverse semi-rational.  Only ``G.mult``,
    ``G.identity`` and the generators' ``G.inv`` are used, never the class
    partition, the power map, the id core or the conjugation tables, so the
    result stays independent of the class-partition oracle.
    """
    return _scan_orbit(G, _powers(G, g),
                       [(s, G.inv(s)) for s in G.generators])[0]


def _powers(G: GroupHandle, h: Element) -> list[Element]:
    """[h, h^2, ..., h^|h| = 1], on ``G.mult``."""
    mult, identity = G.mult, G.identity
    out = [h]
    while out[-1] != identity:
        out.append(mult(out[-1], h))
    return out


def _scan_orbit(G: GroupHandle, first: list[Element],
                gens: list[tuple[Element, Element]], seed: tuple[int, ...] = ()
                ) -> tuple[frozenset[int], dict[Element, int]]:
    """(closure of the image of iota_g and seed, index) for g = first[0],
    given first = ``_powers(G, g)`` and gens, the pairs (s, s^-1) of G's
    generators; with no seed, the scan of :func:`scanned_iota_exponents`.
    The index maps each generator h_P^k of each point P the scan reached to
    k, so its keys are elements x^-1 g^k x, k a unit mod |g|.

    The closure of the seed and the exponents found so far is kept, and the
    scan stops once it is all of U(|g|), whatever the rest of the orbit
    holds.  With no seed the image is then known, and every x^-1 g^k x it
    leaves out of the index is conjugate to g; with seed (|g| - 1,), g is
    then inverse semi-rational, and each one left out is conjugate to g or
    g^-1."""
    mult = G.mult
    n = len(first)
    units = _units(n)
    exps = set(seed)
    image = _closure_mod(exps, n)
    frontier = [[first[k - 1] for k in units]]  # each point's h_P^k, by k
    index = dict(zip(frontier[0], units))  # h_P^k -> k, over every point P
    while frontier and len(image) < len(units):
        new = []
        for hs in frontier:
            for s, si in gens:
                x = mult(si, mult(hs[0], s))
                k = index.get(x)
                if k is None:  # a new point, whose x^k is s^-1 h_P^k s
                    xs = [x, *(mult(si, mult(y, s)) for y in hs[1:])]
                    index.update(zip(xs, units))
                    new.append(xs)
                elif k not in image:  # so the image grows, at least twofold
                    exps.add(k)
                    image = _closure_mod(exps, n)
                    if len(image) == len(units):
                        return frozenset(image), index
        frontier = new
    return frozenset(image), index


def _closure_mod(gens: set[int], n: int) -> set[int]:
    """Subgroup of U(n) generated by gens: their products mod n, and 1."""
    closed, frontier = {1}, [1]
    while frontier:
        new = []
        for m in frontier:
            for k in gens:
                mk = m * k % n
                if mk not in closed:
                    closed.add(mk)
                    new.append(mk)
        frontier = new
    return closed


def cut_oracle_via_bg(G: GroupHandle) -> bool:
    """Independent cut verdict via normalizer images and exponent subgroups.

    Asks of each scanned rep only whether B_G(rep) and -1 generate U(|rep|):
    its scan starts the closure from |rep| - 1, stops once that closure is
    all of U(|rep|), and rep passes iff it is.  One generator of each
    conjugacy class of cyclic subgroups <rep> with phi(|rep|) > 2 is
    scanned (see the module docstring for why the others need no scan, and
    why g^-1's class may be scanned once more): a representative among the
    generators of a passed orbit's points, or among the powers of a passed
    representative, is skipped, and each other one's powers are walked
    once, for its order and its scan.
    """
    scanned: set[Element] = set()  # x^-1 g^k x and g^j for every passed g
    gens = [(s, G.inv(s)) for s in G.generators]
    for rep in conjugacy_classes(G).representatives:
        if rep in scanned:
            continue
        first = _powers(G, rep)
        n = len(first)
        if n in (1, 2, 3, 4, 6):
            continue
        closure, index = _scan_orbit(G, first, gens, (n - 1,))
        if len(closure) != len(_units(n)):
            return False
        scanned.update(index, first)  # g passes, and so does every g^j
    return True


def product_cut_predicate(G: GroupHandle, H: GroupHandle) -> bool:
    """Is G x H cut, predicted from the factors' rationality reports alone.

    A rational class of a cut factor pairs with any class of the other into
    an inverse semi-rational element, so only pairs of the factors' distinct
    non-rational verdicts (``firsts``) are checked, each by
    :func:`_pair_inverse_semirational`.
    """
    rg, rh = rationality_report(G), rationality_report(H)
    if not (rg.is_cut and rh.is_cut):
        raise PreconditionNotCut("both factors must already be cut")
    gs = [(v.order, v.iota_exponents) for v in rg.firsts
          if v.verdict != RATIONAL]
    hs = [(v.order, v.iota_exponents) for v in rh.firsts
          if v.verdict != RATIONAL]
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
