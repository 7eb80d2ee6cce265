"""Concrete group elements: permutations, matrices over prime fields, pairs.

Elements are plain nested tuples so they hash and compare by value:

* permutation on n points: ``('P', images)`` with 0-based image tuple
* invertible d x d matrix over F_p: ``('M', p, d, entries)``, row-major,
  entries reduced into [0, p)
* pair (used by direct and semidirect products): ``('*', left, right)``

Pair multiplication depends on the ambient group (a semidirect product twists
the left component), so it lives in :mod:`gklab.groups`; this module only
handles the context-free kinds.

``mul`` composes permutations of two or more points by one ``itemgetter``
and multiplies 2 x 2 matrices by the closed form; other matrices multiply
each row by each column, a slice of the right operand's entries.
``tests/test_elements.py`` keeps the per-entry forms of both as the
reference these are checked against.
"""

from __future__ import annotations

import operator
from operator import itemgetter

from .numtheory import isprime

Element = tuple

PERM = 'P'
MAT = 'M'
PAIR = '*'


class IncompatibleKinds(ValueError):
    """Generators (or operands) do not share a common element kind."""


def perm(images) -> Element:
    """Permutation element from a 0-based image tuple."""
    images = tuple(images)
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
    return (PERM, images)


def perm_from_cycles(n: int, cycles) -> Element:
    """Permutation on n points from 1-based cycles, e.g. [[1,2],[3,4,5]]."""
    images = list(range(n))
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        if any(not 0 <= p < n for p in pts):
            raise ValueError(f"cycle point out of range 1..{n}: {cyc}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"cycle repeats a point: {cyc}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return perm(images)


def perm_to_cycles(g: Element) -> list[list[int]]:
    """1-based cycle decomposition, fixed points omitted."""
    images = g[1]
    seen = [False] * len(images)
    cycles = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = images[i]
        cycles.append(cyc)
    return cycles


def mat(p: int, rows) -> Element:
    """Matrix element over F_p from nested rows; entries reduced mod p."""
    if not isprime(p):
        raise ValueError(f"matrix modulus p={p} is not a prime")
    d = len(rows)
    if not d:
        raise ValueError("empty matrix: a matrix needs at least one row")
    entries = []
    for row in rows:
        if len(row) != d:
            raise ValueError("matrix is not square")
        entries.extend(x % p for x in row)
    m = (MAT, p, d, tuple(entries))
    if _mat_inverse(m) is None:
        raise ValueError(f"matrix is singular over F_{p}: {rows}")
    return m


def pair(a: Element, b: Element) -> Element:
    return (PAIR, a, b)


def perm_identity(n: int) -> Element:
    return (PERM, tuple(range(n)))


def mat_identity(p: int, d: int) -> Element:
    return (MAT, p, d, tuple(1 if i == j else 0 for i in range(d) for j in range(d)))


def mul(a: Element, b: Element) -> Element:
    """Multiply context-free elements (permutations compose right-to-left)."""
    if a[0] != b[0]:
        raise IncompatibleKinds(f"cannot multiply kinds {a[0]!r} and {b[0]!r}")
    if a[0] == PERM:
        pa, pb = a[1], b[1]
        if len(pa) != len(pb):
            raise IncompatibleKinds("permutation degrees differ")
        if len(pb) > 1:  # itemgetter of one item returns no tuple
            return (PERM, itemgetter(*pb)(pa))
        return (PERM, tuple(pa[i] for i in pb))
    if a[0] == MAT:
        _, p, d, xs = a
        if (p, d) != (b[1], b[2]):
            raise IncompatibleKinds("matrix fields or dimensions differ")
        ys = b[3]
        if d == 2:
            x0, x1, x2, x3 = xs
            y0, y1, y2, y3 = ys
            return (MAT, p, 2, ((x0 * y0 + x1 * y2) % p, (x0 * y1 + x1 * y3) % p,
                                (x2 * y0 + x3 * y2) % p, (x2 * y1 + x3 * y3) % p))
        cols = [ys[j::d] for j in range(d)]
        out = []
        for i in range(0, d * d, d):
            row = xs[i:i + d]
            for col in cols:
                out.append(sum(map(operator.mul, row, col)) % p)
        return (MAT, p, d, tuple(out))
    raise IncompatibleKinds("pair elements need their group's multiplication")


def inv(a: Element) -> Element:
    """Invert a context-free element."""
    if a[0] == PERM:
        images = a[1]
        out = [0] * len(images)
        for i, j in enumerate(images):
            out[j] = i
        return (PERM, tuple(out))
    if a[0] == MAT:
        m = _mat_inverse(a)
        if m is None:
            raise ValueError(f"matrix is singular over F_{a[1]}")
        return m
    raise IncompatibleKinds("pair elements need their group's inversion")


def _mat_inverse(a: Element):
    _, p, d, xs = a
    aug = [[xs[i * d + j] for j in range(d)] + [1 if i == j else 0 for j in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        s = pow(aug[col][col], -1, p)
        aug[col] = [x * s % p for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return (MAT, p, d, tuple(aug[i][d + j] for i in range(d) for j in range(d)))


def mat_rows(a: Element) -> list[list[int]]:
    _, p, d, xs = a
    return [list(xs[i * d:(i + 1) * d]) for i in range(d)]


def same_kind(a: Element, b: Element) -> bool:
    """Shallow compatibility check used to validate generator lists."""
    if a[0] != b[0]:
        return False
    if a[0] == PERM:
        return len(a[1]) == len(b[1])
    if a[0] == MAT:
        return a[1:3] == b[1:3]
    return same_kind(a[1], b[1]) and same_kind(a[2], b[2])
