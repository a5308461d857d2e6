"""Odd ramified primes of number fields given by rational polynomials.

Each odd prime dividing a polynomial discriminant is decided by a
three-step ladder: odd valuation, Dedekind's criterion, and (when the power
order is not p-maximal) enlargement to a p-maximal order in the style of
the Round-2 algorithm.  The enlargement multiplies in Q[x]/(f) with the
field arithmetic of `towers`, and it needs no cap: with v the valuation
of the polynomial discriminant, v = 2k + v_p(d_K) for the index valuation
k, and each enlarging round adds at least 1 to k, so at most v/2 + 1
rounds run.  Its ideal and multiplier lattices contain pZ^n, so their
Hermite bases are read off reduced echelon forms mod p.

Every field the package asks about is the splitting field over Q of
rational polynomials, and a prime ramifies in it exactly when it ramifies
in the field of one root of some irreducible factor, so the ladder runs
on those small factors alone.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError
from .factorization import (
    _factor_mod_p_lists,
    _mod_divmod,
    _mod_gcd,
    _mod_mul,
    _nullspace_mod_p,
    _rref_mod_p,
    factor_over_q,
)
from .integers import odd_prime_divisors, valuation
from .polynomials import UniPoly, discriminant, make_monic_integral, memoized
from .towers import RATIONAL, ExtensionField


def splitting_field_odd_ramified(polys) -> set[int]:
    """Odd primes ramifying in the splitting field over Q of rational polys.

    The splitting field is the compositum of the Galois closures of the
    fields Q[x]/(g), g running over the irreducible factors, and a prime
    ramifies in a compositum, or in a Galois closure, exactly when it
    ramifies in one of the fields it is built from.  Inside a
    polynomials.memo_scope each irreducible factor is decided once.
    """
    out = set()
    for f in polys:
        for g, _ in factor_over_q(f):
            if g.degree >= 2:
                out |= memoized(("odd_ramified", g),
                                lambda g=g: _odd_ramified_of_polynomial(g))
    return out


def _odd_ramified_of_polynomial(f: UniPoly) -> frozenset[int]:
    f = make_monic_integral(f)
    d = discriminant(f)
    if d == 0:
        raise InputError("defining polynomial must be separable")
    d = int(d)
    return frozenset(p for p in odd_prime_divisors(d)
                     if _is_ramified_at(f, p, valuation(d, p)))


def _is_ramified_at(f: UniPoly, p: int, v: int) -> bool:
    # odd valuation of the polynomial discriminant survives division by
    # the square of the order index, so the field discriminant keeps p
    if v % 2 == 1:
        return True
    # p divides disc f, so f mod p is never squarefree: a p-maximal power
    # order has p in its discriminant, and so has the field
    fl = [int(c) for c in f.coeffs]
    if _dedekind_is_p_maximal(fl, p):
        return True
    k = _p_maximal_index_valuation(fl, p, v)
    return v - 2 * k > 0


def _dedekind_is_p_maximal(fl: list[int], p: int) -> bool:
    """Dedekind's criterion: is Z[x]/(f) maximal at p?

    With g the radical of f mod p, h = f/g mod p, and T = (g*h - f)/p for
    monic integer lifts, the order is p-maximal iff gcd(T, g, h) = 1 mod p.
    """
    fbar = [c % p for c in fl]
    gbar = [1]
    for gi, _ in _factor_mod_p_lists(fbar, p):
        gbar = _mod_mul(gbar, gi, p)
    hbar = _mod_divmod(fbar, gbar, p)[0]
    # T is read mod p only, so g*h is needed mod p^2; it is monic of degree n
    gh = _mod_mul(gbar, hbar, p * p)
    t = [(a - b) // p for a, b in zip(gh, fl)]
    u = _mod_gcd([c % p for c in t], gbar, p)
    u = _mod_gcd(u, hbar, p)
    return len(u) == 1


# ---------------------------------------------------------------------------
# p-maximal order enlargement.  An order containing Z[alpha] is held as an
# upper-triangular integer basis matrix W over a common denominator den:
# row i is the power-basis numerator of the i-th basis element, and its
# elements multiply as elements of the field Q[x]/(f).


def _solve_basis(W: list[list[int]], den: int, a) -> list[int]:
    """Integer coordinates of the field element a in the basis W/den."""
    nums, d = a
    x: list[int] = []
    for j in range(len(W)):
        s = den * nums[j] - d * sum(x[i] * W[i][j] for i in range(j))
        c, r = divmod(s, d * W[j][j])
        if r:
            raise ArithmeticError("element does not lie in the order")
        x.append(c)
    return x


def _lattice_mod_p(rows: list[list[int]], p: int, n: int) -> list[list[int]]:
    """Hermite basis of the lattice spanned by rows and pZ^n: the reduced
    echelon form of rows mod p at each pivot column, p*e_c at every other
    column c.  It is upper triangular with each diagonal entry 1 or p."""
    echelon, pivots = _rref_mod_p(rows, p)
    by_pivot = dict(zip(pivots, echelon))
    return [by_pivot.get(c, [p * (i == c) for i in range(n)])
            for c in range(n)]


def _frobenius_coords(K, W, den, a, q, p) -> list[int]:
    """Coordinates mod p of a^q in the basis W/den, by square-and-multiply
    in O/pO: each product is reduced mod p in the order's coordinates."""
    def reduced(x):
        c = [t % p for t in _solve_basis(W, den, x)]
        return c, K.from_parts([sum(ci * w for ci, w in zip(c, col))
                                for col in zip(*W)], den)

    coords, result = None, None
    while q:
        if q & 1:
            coords, result = reduced(a if result is None
                                     else K.mul(result, a))
        q >>= 1
        if q:
            a = reduced(K.mul(a, a))[1]
    return coords


def _p_maximal_index_valuation(fl: list[int], p: int, v: int) -> int:
    """v_p of the index of Z[alpha] in a p-maximal order containing it.

    v = v_p(disc f) = 2k + v_p(d_K) bounds the index valuation k by v/2,
    and each enlarging round adds at least 1 to k.
    """
    n = len(fl) - 1
    K = ExtensionField(RATIONAL, tuple(map(RATIONAL.from_fraction, fl)))
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    den = 1
    index_val = 0
    for _ in range(v // 2 + 1):
        basis = [K.from_parts(row, den) for row in W]
        # radical of pO in O/pO: kernel of x -> x^q for the least p-power
        # q >= n, as a matrix on rows b_i -> b_i^q
        q = p
        while q < n:
            q *= p
        M = [_frobenius_coords(K, W, den, b, q, p) for b in basis]
        R = _lattice_mod_p(_nullspace_mod_p([list(col) for col in zip(*M)],
                                            p), p, n)
        # multiplier condition: y * gamma_j in p*I for every ideal basis row
        V = [
            [sum(R[j][t] * W[t][col] for t in range(n)) for col in range(n)]
            for j in range(n)
        ]
        constraints = []
        for j in range(n):
            gamma = K.from_parts(V[j], den)
            per_i = [_solve_basis(V, den, K.mul(b, gamma)) for b in basis]
            constraints += [[c[el] % p for c in per_i] for el in range(n)]
        y_basis = _nullspace_mod_p(constraints, p)
        growth = len(y_basis)
        if growth == 0:
            return index_val
        index_val += growth
        J = _lattice_mod_p(y_basis, p, n)
        W = [
            [sum(J[i][t] * W[t][col] for t in range(n)) for col in range(n)]
            for i in range(n)
        ]
        den *= p
        g = den
        for row in W:
            for c in row:
                g = gcd(g, c)
        if g > 1:
            den //= g
            W = [[c // g for c in row] for row in W]
        # J*W is upper triangular with a positive diagonal, so its Hermite
        # form only reduces the entries above the diagonal
        for c in range(n):
            for r in range(c):
                m = W[r][c] // W[c][c]
                W[r] = [x - m * y for x, y in zip(W[r], W[c])]
    raise ArithmeticError(
        f"order enlargement at p={p} passed the discriminant bound {v // 2}"
    )
