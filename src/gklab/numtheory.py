"""Factorisation and primality of small integers, from the standard library.

gklab factors group orders, which enumeration keeps at or below the order
cap (2^20 by default), and tests element orders, matrix moduli and graph
vertices for primality.  Trial division (``factorint``) and a deterministic
Miller-Rabin test on the first 12 prime bases (``isprime``) cover both
without a computer-algebra import.  ``isprime`` is exact below
``PRIMALITY_BOUND`` (psi_12, about 3.19e23) and raises ``ValueError`` at or
above it rather than guess.
"""

from __future__ import annotations

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_12, the least strong pseudoprime to all of _BASES (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017):
# below it the Miller-Rabin test on _BASES is exact.
PRIMALITY_BOUND = 318665857834031151167461


def isprime(n: int) -> bool:
    """Whether n is prime; ValueError at or above ``PRIMALITY_BOUND``."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: primality is "
                         f"exact only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of n >= 1 by trial division.

    Meant for group orders: the divisions stop at sqrt(n), about 512 odd
    divisors below 2^20.
    """
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out
