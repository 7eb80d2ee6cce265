"""Differential tests of gklab.numtheory against sympy, the reference."""

from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gklab.numtheory import PRIMALITY_BOUND, factorint, isprime

# A014233: psi_k, the least odd composite that is a strong probable prime
# to each of the first k prime bases, k = 1..12
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461]


def test_factorint_small_exhaustive():
    for n in range(1, 50_000):
        assert factorint(n) == sympy.factorint(n), n


def test_isprime_small_exhaustive():
    assert [n for n in range(-5, 50_000) if isprime(n)] == \
        list(sympy.primerange(50_000))


@settings(max_examples=300)
@given(st.integers(1, 2**32))
def test_factorint_matches_sympy(n):
    assert factorint(n) == sympy.factorint(n)


@given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 1021, 65537]),
                max_size=8))
def test_factorint_of_products(primes):
    n = prod(primes)
    assert factorint(n) == {p: primes.count(p) for p in set(primes)}
    assert list(factorint(n)) == sorted(set(primes))


@settings(max_examples=500)
@given(st.integers(0, PRIMALITY_BOUND - 1))
def test_isprime_matches_sympy(n):
    assert isprime(n) == sympy.isprime(n)


@given(st.integers(2, 2**39), st.integers(2, 2**39))
def test_isprime_rejects_products_of_large_primes(a, b):
    # no small factor, so only the Miller-Rabin rounds can reject these
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert isprime(p) and isprime(q)
    assert not isprime(p * q)


def test_strong_pseudoprimes_below_the_bound():
    assert PSI[-1] == PRIMALITY_BOUND
    for n in PSI[:-1] + [561, 41041, 825265]:
        assert not isprime(n), n
    assert isprime(sympy.prevprime(PRIMALITY_BOUND))
    assert isprime(PRIMALITY_BOUND - 1) is False


@pytest.mark.parametrize("n", [PRIMALITY_BOUND, PRIMALITY_BOUND + 2,
                               10**24 + 7, 2**89 - 1])
def test_isprime_refuses_at_or_above_the_bound(n):
    with pytest.raises(ValueError, match="cannot decide"):
        isprime(n)


@pytest.mark.parametrize("n", [0, -6])
def test_factorint_needs_a_positive_integer(n):
    with pytest.raises(ValueError):
        factorint(n)
