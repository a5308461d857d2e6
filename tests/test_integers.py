"""Integer utilities: valuations, primality, factorization."""

import random
import time

import pytest

from heavenly.integers import (
    factorize,
    is_probable_prime,
    odd_part,
    odd_prime_divisors,
    valuation,
)


def test_valuation_small():
    assert valuation(8, 2) == 3
    assert valuation(9, 3) == 2
    assert valuation(7, 2) == 0
    assert valuation(-12, 2) == 2
    assert valuation(1, 5) == 0


def test_odd_part():
    assert odd_part(1) == 1
    assert odd_part(2) == 1
    assert odd_part(12) == 3
    assert odd_part(-40) == -5
    assert odd_part(256) == 1
    assert odd_part(255) == 255


def test_small_primes():
    primes = [p for p in range(2, 100) if is_probable_prime(p)]
    assert primes == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    ]


def test_probable_prime_larger():
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(2**32 + 1)
    assert is_probable_prime(10**18 + 9)
    carmichael = 561
    assert not is_probable_prime(carmichael)


def test_factorize_known():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(2**10) == {2: 10}
    assert factorize(97) == {97: 1}
    assert factorize(20160) == {2: 6, 3: 2, 5: 1, 7: 1}
    assert factorize(272) == {2: 4, 17: 1}


def test_factorize_reconstructs():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        facs = factorize(n)
        prod = 1
        for p, e in facs.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_odd_prime_divisors():
    assert odd_prime_divisors(1) == []
    assert odd_prime_divisors(2**14 * 3**2) == [3]
    assert odd_prime_divisors(-45) == [3, 5]
    assert odd_prime_divisors(256) == []
    assert odd_prime_divisors(15015) == [3, 5, 7, 11, 13]


def test_factorize_agrees_with_sympy_on_semiprimes():
    # products of two or three primes of 8 to 12 digits, where the rho
    # cycle finding does all the work; sympy's factorint is the oracle
    sympy = pytest.importorskip("sympy")
    rng = random.Random(113)
    for _ in range(4):
        n = 1
        for _ in range(rng.choice((2, 3))):
            n *= sympy.nextprime(rng.randrange(10**7, 10**rng.randrange(8, 13)))
        assert factorize(n) == sympy.factorint(n), n


def test_factorize_roots_a_perfect_power():
    # rho alone takes minutes on the square of a 17-digit prime
    start = time.perf_counter()
    assert factorize(2**81 * 11563101439788991**2) == \
        {2: 81, 11563101439788991: 2}
    assert time.perf_counter() - start < 1.0
    p, q = 1000000007, 9999999967
    assert factorize((p * q) ** 3) == {p: 3, q: 3}
    assert factorize((p * q) ** 5) == {p: 5, q: 5}
