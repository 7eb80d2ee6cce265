"""Builders for standard small groups, curated example catalog, fuzz corpus.

The builders named in ``BUILTINS`` back the spec file's ``builtin`` recipe.
The catalog holds the Figure 3 examples (``fig3.*``) and the 2-Frobenius
witnesses (``twofrob.*``); each entry is a solvable cut group, names the
letter of the figure entry it realizes (``CatalogEntry.figure``) and records
no graph, since ``primegraph`` holds the figure.  The Frobenius family
sweep (``frobenius_family_sweep``) builds one group per Frobenius cut
family from one table of rows (instance name, family tag, p, action
matrices); the name is also the group's label, and the kernel rank is the
matrices' dimension, so a new family is one more row.  The fuzz corpus
(``corpus``) is a deterministic stream of pool groups and their direct
products, drawn by seed; ``distinct_corpus`` keeps the first group of each
label.

Action matrices that are not forced by a printed construction were found by
exhaustive search in GL(rank, p) for a fixed-point-free subgroup with the
required fingerprint, then pinned here as literals.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import elements as el
from .frobenius import FROBENIUS, NONE_KIND, TWO_FROBENIUS
from .groups import (CapExceeded, GroupHandle, check_cap, default_cap,
                     direct_product, enumerate_group, semidirect_product)
from .numtheory import isprime
from .primegraph import RATIONAL_REALIZED


class OutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable[[], GroupHandle]
    order: int
    figure: str  # the letter of the Figure 3 entry the group realizes
    is_rational: bool
    frobenius_kind: str


def cyclic(n: int) -> GroupHandle:
    if n < 1:
        raise OutOfRange("cyclic order must be >= 1")
    check_cap("cyclic", n)
    g = el.perm_from_cycles(n, [list(range(1, n + 1))])
    return enumerate_group([g], f"C{n}")


def elem_abelian(p: int, rank: int) -> GroupHandle:
    """C_p^rank as disjoint p-cycles: fast multiplication, one block per rank."""
    if not isprime(p):
        raise OutOfRange(f"elem_abelian needs a prime p, got {p}")
    if rank < 1:
        raise OutOfRange("rank must be >= 1")
    cap, order = default_cap(), 1
    for _ in range(rank):  # stops once past the cap, however large rank is
        order *= p
        if order > cap:
            raise CapExceeded(
                f"elem_abelian order {p}^{rank} exceeds cap {cap}")
    pts = rank * p
    gens = [el.perm_from_cycles(pts, [list(range(i * p + 1, (i + 1) * p + 1))])
            for i in range(rank)]
    return enumerate_group(gens, f"C{p}^{rank}" if rank > 1 else f"C{p}")


def dihedral(order: int) -> GroupHandle:
    """Dihedral group of the given (even, >= 6) order, on order/2 points."""
    if order % 2 or order < 6:
        raise OutOfRange("dihedral order must be even and >= 6")
    check_cap("dihedral", order)
    n = order // 2
    rot = el.perm_from_cycles(n, [list(range(1, n + 1))])
    flip = el.perm([n - 1 - i for i in range(n)])
    return enumerate_group([rot, flip], f"D{n}")


# the quaternion pair i, j over F3, and a fixed-point-free C3 x| C4 in
# GL(2,5) found by search
_Q8_F3 = ([[0, 2], [1, 0]], [[1, 1], [1, 2]])
_DIC3_F5 = ([[0, 1], [4, 1]], [[0, 2], [2, 0]])


def quaternion8() -> GroupHandle:
    return enumerate_group([el.mat(3, m) for m in _Q8_F3], "Q8")


def sl2_3() -> GroupHandle:
    i, _ = _Q8_F3
    return enumerate_group([el.mat(3, i), el.mat(3, [[1, 1], [0, 1]])],
                           "SL(2,3)")


def dicyclic12() -> GroupHandle:
    """C3 x| C4 of order 12, as a fixed-point-free subgroup of GL(2,5)."""
    return enumerate_group([el.mat(5, m) for m in _DIC3_F5], "C3 x| C4")


def quaternion8_times_c3() -> GroupHandle:
    return direct_product(quaternion8(), cyclic(3))


def sym(n: int) -> GroupHandle:
    if not 1 <= n <= 6:
        raise OutOfRange("sym supports 1 <= n <= 6")
    if n == 1:
        return enumerate_group([el.perm_identity(1)], "S1")
    gens = [el.perm_from_cycles(n, [[1, 2]])]
    if n > 2:
        gens.append(el.perm_from_cycles(n, [list(range(1, n + 1))]))
    return enumerate_group(gens, f"S{n}")


def alt(n: int) -> GroupHandle:
    if not 3 <= n <= 6:
        raise OutOfRange("alt supports 3 <= n <= 6")
    three = el.perm_from_cycles(n, [[1, 2, 3]])
    if n == 3:
        gens = [three]
    elif n % 2:
        gens = [three, el.perm_from_cycles(n, [list(range(1, n + 1))])]
    else:
        gens = [three, el.perm_from_cycles(n, [list(range(2, n + 1))])]
    return enumerate_group(gens, f"A{n}")


def companion_matrices() -> dict[str, list[list[int]]]:
    """Named integer matrices behind the explicit constructions.

    A is the companion matrix of the 7th cyclotomic polynomial, E of the 5th,
    C of the 3rd; B, D, F realize the complementary generators.  All are
    meant to be reduced mod a chosen prime.
    """
    return {
        "A": [[0, 0, 0, 0, 0, -1],
              [1, 0, 0, 0, 0, -1],
              [0, 1, 0, 0, 0, -1],
              [0, 0, 1, 0, 0, -1],
              [0, 0, 0, 1, 0, -1],
              [0, 0, 0, 0, 1, -1]],
        "B": [[0, 0, 0, 0, 1, 0],
              [0, 0, 1, 0, 0, 0],
              [1, 0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 1],
              [0, 0, 0, 1, 0, 0],
              [0, 1, 0, 0, 0, 0]],
        "C": [[0, -1], [1, -1]],
        "D": [[0, 1], [1, 0]],
        "E": [[0, 0, 0, -1],
              [1, 0, 0, -1],
              [0, 1, 0, -1],
              [0, 0, 1, -1]],
        "F": [[0, 0, 1, 0],
              [1, 0, 0, 0],
              [0, 0, 0, 1],
              [0, 1, 0, 0]],
    }


def matrix_action(N: GroupHandle, mats) -> list[list]:
    """Per-acting-generator kernel images from matrices acting on C_p^rank.

    Kernel generator j corresponds to the j-th standard basis vector; matrix
    column j gives its image as a word in the kernel generators, each entry
    read modulo |N| (a generator's |N|-th power is the identity).
    """
    rank = len(N.generators)
    out = []
    for m in mats:
        _, p, d, xs = m
        if d != rank:
            raise OutOfRange("matrix dimension does not match kernel rank")
        images = []
        for col in range(d):
            img = N.identity
            for row in range(d):
                for _ in range(xs[row * d + col] % N.order):
                    img = N.mult(img, N.generators[row])
            images.append(img)
        out.append(images)
    return out


def vector_semidirect(p: int, rank: int, mats,
                      label: Optional[str] = None) -> GroupHandle:
    """C_p^rank x| <mats> with the natural linear action."""
    N = elem_abelian(p, rank)
    mats = [m if isinstance(m, tuple) else el.mat(p, m) for m in mats]
    H = enumerate_group(mats, "H")
    return semidirect_product(N, H, matrix_action(N, mats), label)


def c7_c3() -> GroupHandle:
    a = el.perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]])
    b = el.perm_from_cycles(7, [[1, 2, 4], [3, 6, 5]])
    return enumerate_group([a, b], "C7 x| C3")


def c7_c6() -> GroupHandle:
    a = el.perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]])
    b = el.perm_from_cycles(7, [[1, 3, 2, 6, 4, 5]])
    return enumerate_group([a, b], "C7 x| C6")


# the builders a spec recipe {"type": "builtin", "name": ...} may name
BUILTINS: dict[str, Callable[..., GroupHandle]] = {
    build.__name__: build for build in (
        cyclic, elem_abelian, dihedral, quaternion8, sl2_3, dicyclic12, sym,
        alt, c7_c3, c7_c6)}


# the quaternion pair i, j over F7
_Q8_F7 = ([[0, 6], [1, 0]], [[2, 3], [3, 5]])

# instance name -> (family tag, p, action matrices): one Frobenius group
# C_p^d x| <matrices> per cut family at kernel rank d <= 2, labelled by its
# name.  SL(2,3) is a quaternion pair plus an order-3 element permuting
# i -> j -> ij, found by search in GL(2,p).
_FAMILY_SWEEP = {
    "C3 x| C2": ("C3^n x| C2", 3, [[[2]]]),
    "C3^2 x| C2": ("C3^n x| C2", 3, [[[2, 0], [0, 2]]]),
    "C3^2 x| C4": ("C3^2n x| C4", 3, _Q8_F3[:1]),
    "C3^2 x| Q8": ("C3^2n x| Q8", 3, _Q8_F3),
    "C5 x| C4": ("C5^n x| C4", 5, [[[2]]]),
    "C5^2 x| C4": ("C5^n x| C4", 5, [[[2, 0], [0, 2]]]),
    "C7 x| C6": ("C7^n x| C6", 7, [[[3]]]),
    "C7^2 x| C6": ("C7^n x| C6", 7, [[[3, 0], [0, 3]]]),
    "C7^2 x| (Q8 x C3)": ("C7^2n x| (Q8 x C3)", 7,
                          _Q8_F7 + ([[2, 0], [0, 2]],)),
    # printed action: i -> diag(2, -2), j -> [[0, 1], [-1, 0]] over F5
    "C5^2 x| Q8": ("C5^2 x| Q8", 5, ([[2, 0], [0, 3]], [[0, 1], [4, 0]])),
    "C5^2 x| (C3 x| C4)": ("C5^2 x| (C3 x| C4)", 5, _DIC3_F5),
    "C5^2 x| SL(2,3)": ("C5^2 x| SL(2,3)", 5, (
        [[0, 4], [1, 0]], [[0, 2], [2, 0]], [[1, 3], [4, 3]])),
    "C7^2 x| SL(2,3)": ("C7^2 x| SL(2,3)", 7, _Q8_F7 + ([[6, 2], [3, 0]],)),
}


def _sweep_group(name: str) -> GroupHandle:
    """The sweep's group of that name, of rank the matrices' dimension."""
    _, p, mats = _FAMILY_SWEEP[name]
    return vector_semidirect(p, len(mats[0]), mats, name)


def _q8_action_f5() -> GroupHandle:
    return _sweep_group("C5^2 x| Q8")


def _dic3_action_f5() -> GroupHandle:
    return _sweep_group("C5^2 x| (C3 x| C4)")


def catalog() -> list[CatalogEntry]:
    """The 18 example groups (a)-(r) plus the four 2-Frobenius witnesses.

    Every entry is a solvable cut group and names the letter of the Figure 3
    entry it realizes; the graph and the rational status of that entry live
    in ``primegraph``.  A figure group is rational iff its letter is in
    ``RATIONAL_REALIZED``; a 2-Frobenius witness records its own flag.
    """
    def figure(letter, build, order, kind):
        return CatalogEntry(f"fig3.{letter}", build, order, letter,
                            letter in RATIONAL_REALIZED, kind)

    def twofrob(letter, build, order, rational):
        return CatalogEntry(f"twofrob.{letter}", build, order, letter,
                            rational, TWO_FROBENIUS)

    m = companion_matrices()
    return [
        figure("a", lambda: cyclic(2), 2, NONE_KIND),
        figure("b", lambda: cyclic(3), 3, NONE_KIND),
        figure("c", lambda: sym(3), 6, FROBENIUS),
        figure("d", lambda: direct_product(sym(3), cyclic(2)), 12, NONE_KIND),
        figure("e", _q8_action_f5, 200, FROBENIUS),
        figure("f", lambda: direct_product(_q8_action_f5(), cyclic(2)), 400,
               NONE_KIND),
        figure("g", c7_c3, 21, FROBENIUS),
        figure("h", _dic3_action_f5, 300, FROBENIUS),
        figure("i", lambda: direct_product(_dic3_action_f5(), cyclic(2)),
               600, NONE_KIND),
        figure("j", lambda: direct_product(_q8_action_f5(), cyclic(3)), 600,
               NONE_KIND),
        figure("k", lambda: direct_product(_q8_action_f5(), sym(3)), 1200,
               NONE_KIND),
        figure("l", c7_c6, 42, FROBENIUS),
        figure("m", lambda: direct_product(c7_c6(), cyclic(2)), 84, NONE_KIND),
        figure("n", lambda: direct_product(c7_c6(), cyclic(3)), 126,
               NONE_KIND),
        figure("o", lambda: direct_product(c7_c3(), sym(3)), 126, NONE_KIND),
        figure("p", lambda: direct_product(_q8_action_f5(), c7_c3()), 4200,
               NONE_KIND),
        figure("q", lambda: direct_product(
            direct_product(_q8_action_f5(), c7_c3()), cyclic(2)), 8400,
            NONE_KIND),
        figure("r", lambda: direct_product(
            direct_product(_q8_action_f5(), c7_c6()), cyclic(3)), 25200,
            NONE_KIND),
        twofrob("c", lambda: vector_semidirect(
            2, 2, [m["C"], m["D"]], "C2^2 x| S3"), 24, True),
        twofrob("e", lambda: vector_semidirect(
            2, 4, [m["E"], m["F"]], "C2^4 x| (C5 x| C4)"), 320, False),
        twofrob("g", lambda: vector_semidirect(
            3, 6, [el.mat(3, m["A"]), el.mul(el.mat(3, m["B"]),
                                             el.mat(3, m["B"]))],
            "C3^6 x| (C7 x| C3)"), 15309, False),
        twofrob("l", lambda: vector_semidirect(
            2, 6, [m["A"], m["B"]], "C2^6 x| (C7 x| C6)"), 2688, False),
    ]


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def frobenius_family_sweep() -> list[tuple[str, str, Callable[[], GroupHandle]]]:
    """(instance name, expected family tag, builder) at kernel rank <= 2."""
    return [(name, tag, functools.partial(_sweep_group, name))
            for name, (tag, _, _) in _FAMILY_SWEEP.items()]


# order of the smallest group in _corpus_pool (cyclic(2))
_CORPUS_MIN_ORDER = 2


def _corpus_pool() -> list[Callable[[], GroupHandle]]:
    # c7_c6 and the sweep row "C7 x| C6" build two different groups under
    # one label, and both stay: ``corpus`` draws by index into this list, so
    # dropping either would change every corpus drawn from it.
    pool: list[Callable[[], GroupHandle]] = []
    pool += [lambda n=n: cyclic(n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    pool += [lambda p=p, r=r: elem_abelian(p, r)
             for p in (2, 3, 5, 7) for r in (1, 2)]
    pool += [lambda k=k: dihedral(k) for k in (6, 8, 10, 12)]
    pool += [quaternion8, sl2_3, dicyclic12, quaternion8_times_c3,
             c7_c3, c7_c6, _q8_action_f5, _dic3_action_f5,
             lambda: sym(3), lambda: sym(4), lambda: alt(4), lambda: alt(5)]
    pool += [build for _, _, build in frobenius_family_sweep()]
    return pool


def corpus(seed: int, count: int, max_order: int) -> list[GroupHandle]:
    """Deterministic stream of small groups for invariant fuzzing."""
    if count < 1:
        raise OutOfRange("count must be >= 1")
    if max_order < _CORPUS_MIN_ORDER:
        # no pool group fits, so the draw loop below would never finish
        raise OutOfRange(f"max_order must be >= {_CORPUS_MIN_ORDER}")
    rng = random.Random(seed)
    builders = _corpus_pool()
    by_label: dict[str, GroupHandle] = {}

    @functools.cache
    def base(i: int) -> GroupHandle:
        # pool entries that share a label (cyclic(p), elem_abelian(p, 1))
        # share the first group built under it
        G = builders[i]()
        return by_label.setdefault(G.label, G)

    out: list[GroupHandle] = []
    while len(out) < count:
        pair = rng.random() >= 0.45
        G = base(rng.randrange(len(builders)))
        if pair:
            H = base(rng.randrange(len(builders)))
            if G.order * H.order > max_order:
                continue
            G = direct_product(G, H)
        if G.order <= max_order:
            out.append(G)
    return out


def distinct_corpus(seed: int, count: int,
                    max_order: int) -> dict[str, GroupHandle]:
    """Label -> group over ``corpus(seed, count, max_order)``, first kept."""
    distinct: dict[str, GroupHandle] = {}
    for G in corpus(seed, count, max_order):
        distinct.setdefault(G.label, G)
    return distinct
