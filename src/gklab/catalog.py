"""Builders for standard small groups, curated example catalog, fuzz corpus.

Action matrices that are not forced by a printed construction were found by
exhaustive search in GL(rank, p) for a fixed-point-free subgroup with the
required fingerprint, then pinned here as literals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import elements as el
from .groups import (GroupHandle, direct_product, enumerate_group,
                     semidirect_product)


class OutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    build: Callable[[], GroupHandle]
    order: int
    graph_literal: str
    is_cut: bool
    is_rational: bool
    frobenius_kind: str
    citation: str


def cyclic(n: int) -> GroupHandle:
    if n < 1:
        raise OutOfRange("cyclic order must be >= 1")
    if n == 1:
        return enumerate_group([el.perm_identity(1)], "C1")
    g = el.perm_from_cycles(n, [list(range(1, n + 1))])
    return enumerate_group([g], f"C{n}")


def elem_abelian(p: int, rank: int) -> GroupHandle:
    """C_p^rank as disjoint p-cycles: fast multiplication, one block per rank."""
    if rank < 1:
        raise OutOfRange("rank must be >= 1")
    pts = rank * p
    gens = [el.perm_from_cycles(pts, [list(range(i * p + 1, (i + 1) * p + 1))])
            for i in range(rank)]
    return enumerate_group(gens, f"C{p}^{rank}" if rank > 1 else f"C{p}")


def dihedral(order: int) -> GroupHandle:
    """Dihedral group of the given (even, >= 6) order, on order/2 points."""
    if order % 2 or order < 6:
        raise OutOfRange("dihedral order must be even and >= 6")
    n = order // 2
    rot = el.perm_from_cycles(n, [list(range(1, n + 1))])
    flip = el.perm([n - 1 - i for i in range(n)])
    return enumerate_group([rot, flip], f"D{n}")


def quaternion8() -> GroupHandle:
    i = el.mat(3, [[0, 2], [1, 0]])
    j = el.mat(3, [[1, 1], [1, 2]])
    return enumerate_group([i, j], "Q8")


def sl2_3() -> GroupHandle:
    a = el.mat(3, [[0, 2], [1, 0]])
    b = el.mat(3, [[1, 1], [0, 1]])
    return enumerate_group([a, b], "SL(2,3)")


def dicyclic12() -> GroupHandle:
    """C3 x| C4 of order 12, as a fixed-point-free subgroup of GL(2,5)."""
    a = el.mat(5, [[0, 1], [4, 1]])
    b = el.mat(5, [[0, 2], [2, 0]])
    return enumerate_group([a, b], "C3 x| C4")


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
    column j gives its image as a word in the kernel generators.
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
                img = N.mult(img, N.power(N.generators[row], xs[row * d + col]))
            images.append(img)
        out.append(images)
    return out


def vector_semidirect(p: int, rank: int, mats, label: Optional[str] = None,
                      acting_label: Optional[str] = None) -> GroupHandle:
    """C_p^rank x| <mats> with the natural linear action."""
    N = elem_abelian(p, rank)
    mats = [m if isinstance(m, tuple) else el.mat(p, m) for m in mats]
    H = enumerate_group(mats, acting_label or "H")
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


def _q8_action_f5() -> GroupHandle:
    # printed action: i -> diag(2, -2), j -> [[0, 1], [-1, 0]] over F5
    return vector_semidirect(5, 2, [[[2, 0], [0, 3]], [[0, 1], [4, 0]]],
                             "C5^2 x| Q8", "Q8")


def _dic3_action_f5() -> GroupHandle:
    # fixed-point-free C3 x| C4 found by search in GL(2,5)
    return vector_semidirect(5, 2, [[[0, 1], [4, 1]], [[0, 2], [2, 0]]],
                             "C5^2 x| (C3 x| C4)", "C3 x| C4")


# SL(2,3) as a fixed-point-free linear group: quaternion pair plus an order-3
# element permuting i -> j -> ij, found by search in GL(2,p).
SL23_F5 = ([[0, 4], [1, 0]], [[0, 2], [2, 0]], [[1, 3], [4, 3]])
SL23_F7 = ([[0, 6], [1, 0]], [[2, 3], [3, 5]], [[6, 2], [3, 0]])
Q8XC3_F7 = ([[0, 6], [1, 0]], [[2, 3], [3, 5]], [[2, 0], [0, 2]])


def _twofrob_builders() -> dict[str, Callable[[], GroupHandle]]:
    mats = companion_matrices()

    def tf_c():
        return vector_semidirect(2, 2, [mats["C"], mats["D"]],
                                 "C2^2 x| S3", "S3")

    def tf_e():
        return vector_semidirect(2, 4, [mats["E"], mats["F"]],
                                 "C2^4 x| (C5 x| C4)", "C5 x| C4")

    def tf_g():
        A3 = el.mat(3, mats["A"])
        B3 = el.mat(3, mats["B"])
        return vector_semidirect(3, 6, [A3, el.mul(B3, B3)],
                                 "C3^6 x| (C7 x| C3)", "C7 x| C3")

    def tf_l():
        return vector_semidirect(2, 6, [mats["A"], mats["B"]],
                                 "C2^6 x| (C7 x| C6)", "C7 x| C6")

    return {"c": tf_c, "e": tf_e, "g": tf_g, "l": tf_l}


def catalog() -> list[CatalogEntry]:
    """The 18 example groups (a)-(r) plus the four 2-Frobenius witnesses."""
    e = _q8_action_f5
    g = c7_c3
    l = c7_c6

    def figure(letter, desc, build, order, graph, rational, kind):
        return CatalogEntry(f"fig3.{letter}", desc, build, order, graph,
                            True, rational, kind, f"({letter})")

    tf = _twofrob_builders()
    entries = [
        figure("a", "C2", lambda: cyclic(2), 2, "2", True, "none"),
        figure("b", "C3", lambda: cyclic(3), 3, "3", False, "none"),
        figure("c", "S3", lambda: sym(3), 6, "2,3", True, "frobenius"),
        figure("d", "S3 x C2", lambda: direct_product(sym(3), cyclic(2)),
               12, "2-3", True, "none"),
        figure("e", "C5^2 x| Q8", e, 200, "2,5", True, "frobenius"),
        figure("f", "(C5^2 x| Q8) x C2",
               lambda: direct_product(e(), cyclic(2)), 400, "2-5", True, "none"),
        figure("g", "C7 x| C3", g, 21, "3,7", False, "frobenius"),
        figure("h", "C5^2 x| (C3 x| C4)", _dic3_action_f5, 300, "2-3,5",
               False, "frobenius"),
        figure("i", "(C5^2 x| (C3 x| C4)) x C2",
               lambda: direct_product(_dic3_action_f5(), cyclic(2)),
               600, "2-3,2-5", False, "none"),
        figure("j", "(C5^2 x| Q8) x C3",
               lambda: direct_product(e(), cyclic(3)), 600, "2-3,3-5",
               False, "none"),
        figure("k", "(C5^2 x| Q8) x S3",
               lambda: direct_product(e(), sym(3)), 1200, "2-3,2-5,3-5",
               True, "none"),
        figure("l", "C7 x| C6", l, 42, "2-3,7", False, "frobenius"),
        figure("m", "(C7 x| C6) x C2",
               lambda: direct_product(l(), cyclic(2)), 84, "2-3,2-7",
               False, "none"),
        figure("n", "(C7 x| C6) x C3",
               lambda: direct_product(l(), cyclic(3)), 126, "2-3,3-7",
               False, "none"),
        figure("o", "(C7 x| C3) x S3",
               lambda: direct_product(g(), sym(3)), 126, "2-3,2-7,3-7",
               False, "none"),
        figure("p", "(C5^2 x| Q8) x (C7 x| C3)",
               lambda: direct_product(e(), g()), 4200, "2-3,2-7,3-5,5-7",
               False, "none"),
        figure("q", "((C5^2 x| Q8) x (C7 x| C3)) x C2",
               lambda: direct_product(direct_product(e(), g()), cyclic(2)),
               8400, "2-3,2-5,2-7,3-5,5-7", False, "none"),
        figure("r", "(C5^2 x| Q8) x (C7 x| C6) x C3",
               lambda: direct_product(direct_product(e(), l()), cyclic(3)),
               25200, "2-3,2-5,2-7,3-5,3-7,5-7", False, "none"),
        CatalogEntry("twofrob.c", "C2^2 x| S3", tf["c"], 24, "2,3",
                     True, True, "2-frobenius", "(c)"),
        CatalogEntry("twofrob.e", "C2^4 x| (C5 x| C4)", tf["e"], 320, "2,5",
                     True, False, "2-frobenius", "(e)"),
        CatalogEntry("twofrob.g", "C3^6 x| (C7 x| C3)", tf["g"], 15309, "3,7",
                     True, False, "2-frobenius", "(g)"),
        CatalogEntry("twofrob.l", "C2^6 x| (C7 x| C6)", tf["l"], 2688, "2-3,7",
                     True, False, "2-frobenius", "(l)"),
    ]
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def frobenius_family_sweep() -> list[tuple[str, str, Callable[[], GroupHandle]]]:
    """(instance name, expected family tag, builder) at kernel rank <= 2."""
    neg_i3 = [[2, 0], [0, 2]]
    i3, j3 = [[0, 2], [1, 0]], [[1, 1], [1, 2]]
    i5, j5, w5 = SL23_F5
    i7, j7, w7 = SL23_F7
    _, _, s7 = Q8XC3_F7
    return [
        ("C3 x| C2", "C3^n x| C2",
         lambda: vector_semidirect(3, 1, [[[2]]], "C3 x| C2")),
        ("C3^2 x| C2", "C3^n x| C2",
         lambda: vector_semidirect(3, 2, [neg_i3], "C3^2 x| C2")),
        ("C3^2 x| C4", "C3^2n x| C4",
         lambda: vector_semidirect(3, 2, [i3], "C3^2 x| C4")),
        ("C3^2 x| Q8", "C3^2n x| Q8",
         lambda: vector_semidirect(3, 2, [i3, j3], "C3^2 x| Q8")),
        ("C5 x| C4", "C5^n x| C4",
         lambda: vector_semidirect(5, 1, [[[2]]], "C5 x| C4")),
        ("C5^2 x| C4", "C5^n x| C4",
         lambda: vector_semidirect(5, 2, [[[2, 0], [0, 2]]], "C5^2 x| C4")),
        ("C7 x| C6", "C7^n x| C6",
         lambda: vector_semidirect(7, 1, [[[3]]], "C7 x| C6")),
        ("C7^2 x| C6", "C7^n x| C6",
         lambda: vector_semidirect(7, 2, [[[3, 0], [0, 3]]], "C7^2 x| C6")),
        ("C7^2 x| (Q8 x C3)", "C7^2n x| (Q8 x C3)",
         lambda: vector_semidirect(7, 2, [i7, j7, s7], "C7^2 x| (Q8 x C3)")),
        ("C5^2 x| Q8", "C5^2 x| Q8", _q8_action_f5),
        ("C5^2 x| (C3 x| C4)", "C5^2 x| (C3 x| C4)", _dic3_action_f5),
        ("C5^2 x| SL(2,3)", "C5^2 x| SL(2,3)",
         lambda: vector_semidirect(5, 2, [i5, j5, w5], "C5^2 x| SL(2,3)")),
        ("C7^2 x| SL(2,3)", "C7^2 x| SL(2,3)",
         lambda: vector_semidirect(7, 2, [i7, j7, w7], "C7^2 x| SL(2,3)")),
    ]


# order of the smallest group in _corpus_pool (cyclic(2))
_CORPUS_MIN_ORDER = 2


def _corpus_pool() -> list[Callable[[], GroupHandle]]:
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
    base_cache: dict[int, GroupHandle] = {}

    def base(i: int) -> GroupHandle:
        if i not in base_cache:
            base_cache[i] = builders[i]()
        return base_cache[i]

    out: list[GroupHandle] = []
    while len(out) < count:
        if rng.random() < 0.45:
            G = base(rng.randrange(len(builders)))
        else:
            G = base(rng.randrange(len(builders)))
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
