"""Integer helpers: valuations, primality, and factorization.

Discriminants of the polynomials handled here can run to dozens of digits,
so trial division alone is not enough; factorization falls back to Pollard
rho with Brent's cycle finding after stripping small primes and taking the
root of a perfect power.  Everything is deterministic: the rho "random"
walk uses a fixed constant sequence.
"""

from __future__ import annotations

import math

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

# Strong-pseudoprime bases proving primality for n < 3.3 * 10^24; larger n
# fall back to the same fixed bases, which is probabilistic but deterministic.
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]

# Rho steps whose differences share one gcd.
_RHO_BATCH = 128


def valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def odd_part(n: int) -> int:
    """n with all factors of two removed (sign preserved, odd_part(0) = 0)."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    return sign * (n >> valuation(n, 2))


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_odd_prime(p: int) -> int:
    """The least prime above the odd number p."""
    q = p + 2
    while not is_probable_prime(q):
        q += 2
    return q


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n.

    Brent's variant (BIT 20, 1980): y walks x -> x^2 + c from 2, and is
    compared with the saved x at steps r + 1, ..., 2r for r = 1, 2, 4, ...;
    the differences are multiplied together and one gcd is taken per
    _RHO_BATCH of them.  When a batch's gcd is n, its steps are replayed
    one gcd at a time from the batch's start.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                start = (start * start + c) % n
                d = math.gcd(x - start, n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in range(2, 10000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # (cofactor, exponent) pairs; rho is slow on a perfect power: root it
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, e * k))
        else:
            d = _pollard_rho(m)
            stack += [(d, e), (m // d, e)]
    return out


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r^k = m for the least prime k that has one, else (m, 1);
    r is Newton's iteration, decreasing from a power of two above it."""
    for k in filter(is_probable_prime, range(2, m.bit_length() + 1)):
        r = 1 << -(-m.bit_length() // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r ** k == m:
            return r, k
    return m, 1


def odd_prime_divisors(n: int) -> list[int]:
    """Sorted odd primes dividing n (n nonzero)."""
    return sorted(p for p in factorize(n) if p != 2)
