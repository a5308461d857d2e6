"""Odd ramified primes of number fields given by rational polynomials.

Each odd prime dividing a polynomial discriminant is decided by a
three-step ladder: odd valuation, Dedekind's criterion, and (when the power
order is not p-maximal) enlargement to a p-maximal order in the style of
the Round-2 algorithm.

A splitting field over Q needs no tower at all: a prime ramifies in it
exactly when it ramifies in the field of one root of some irreducible
factor, so the ladder runs on those small factors instead.  A tower
ramifies where its Galois closure does, and that closure is the splitting
field of its level moduli's norms to Q, so a tower reduces to that case.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError, ResourceCapError
from .factorization import (
    _factor_mod_p_lists,
    _mod_divmod,
    _mod_gcd,
    _mod_mul,
    _nullspace_mod_p,
    factor_over_q,
)
from .integers import odd_prime_divisors, valuation
from .polynomials import UniPoly, discriminant, make_monic_integral
from .towers import FieldTower, _norm_poly, field_chain

ENLARGEMENT_CAP = 64


def odd_ramified_primes(tower: FieldTower) -> set[int]:
    """The set of odd primes dividing the field discriminant.

    A field ramifies at the same primes as its Galois closure, which is the
    splitting field over Q of the level moduli's norms to Q: the roots of
    each norm are the conjugates of that level's generator.
    """
    chain = field_chain(tower)
    norms = []
    for height, modulus in enumerate(tower.levels):
        g = list(modulus)
        for F in reversed(chain[1:height + 1]):
            g = _norm_poly(F, g, (len(g) - 1) * F.degree)
        norms.append(UniPoly.from_list(g))
    return splitting_field_odd_ramified(norms)


def splitting_field_odd_ramified(polys) -> set[int]:
    """Odd primes ramifying in the splitting field over Q of rational polys.

    The splitting field is the compositum of the Galois closures of the
    fields Q[x]/(g), g running over the irreducible factors, and a prime
    ramifies in a compositum, or in a Galois closure, exactly when it
    ramifies in one of the fields it is built from.
    """
    out = set()
    for f in polys:
        for g, _ in factor_over_q(f):
            if g.degree >= 2:
                out |= _odd_ramified_of_polynomial(g)
    return out


def unramified_away_2(tower: FieldTower) -> bool:
    """True iff no odd prime ramifies in the tower's field."""
    return not odd_ramified_primes(tower)


def _odd_ramified_of_polynomial(f: UniPoly) -> set[int]:
    f = make_monic_integral(f)
    d = discriminant(f)
    if d == 0:
        raise InputError("defining polynomial must be separable")
    d = int(d)
    out = set()
    for p in odd_prime_divisors(d):
        if _is_ramified_at(f, p, valuation(d, p)):
            out.add(p)
    return out


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
    k = _p_maximal_index_valuation(fl, p)
    return v - 2 * k > 0


def _int_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


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
    gh = _int_mul(gbar, hbar)
    gh += [0] * (len(fl) - len(gh))
    t = [(a - b) // p for a, b in zip(gh, fl)]
    u = _mod_gcd([c % p for c in t], gbar, p)
    u = _mod_gcd(u, hbar, p)
    return len(u) == 1


# ---------------------------------------------------------------------------
# p-maximal order enlargement.  An order containing Z[alpha] is held as an
# upper-triangular integer basis matrix W over a common denominator den:
# row i is the power-basis numerator of the i-th basis element.


def _mul_mod_f(u: list, v: list, fl: list[int]) -> list:
    n = len(fl) - 1
    t = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    t[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        c = t[k]
        if c:
            t[k] = 0
            for j in range(n):
                t[k - n + j] -= c * fl[j]
    return t[:n]


def _solve_basis(W: list[list[int]], den: int, vec: list) -> list[int]:
    """Integer coordinates of a power-basis vector in the basis W/den."""
    n = len(W)
    x: list[Fraction] = []
    for j in range(n):
        s = den * vec[j]
        for i in range(j):
            if W[i][j]:
                s -= x[i] * W[i][j]
        x.append(Fraction(s, W[j][j]))
    for c in x:
        if c.denominator != 1:
            raise ArithmeticError("element does not lie in the order")
    return [int(c) for c in x]


def _hnf(rows: list[list[int]], n: int) -> list[list[int]]:
    """Row Hermite form: upper triangular, positive diagonal, reduced."""
    a = [list(r) for r in rows if any(r)]
    piv = 0
    for col in range(n):
        while True:
            nz = [r for r in range(piv, len(a)) if a[r][col]]
            if not nz:
                break
            r_min = min(nz, key=lambda r: abs(a[r][col]))
            a[piv], a[r_min] = a[r_min], a[piv]
            done = True
            for r in range(piv + 1, len(a)):
                if a[r][col]:
                    q = a[r][col] // a[piv][col]
                    a[r] = [x - q * y for x, y in zip(a[r], a[piv])]
                    if a[r][col]:
                        done = False
            if done:
                break
        if piv < len(a) and a[piv][col]:
            if a[piv][col] < 0:
                a[piv] = [-x for x in a[piv]]
            for r in range(piv):
                q = a[r][col] // a[piv][col]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[piv])]
            piv += 1
    if piv != n:
        raise ArithmeticError("lattice basis is not full rank")
    return a[:n]


def _coord_mul(a, b, table, p, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            ti = table[i]
            for j, bj in enumerate(b):
                if bj:
                    c = ai * bj % p
                    row = ti[j]
                    for k in range(n):
                        if row[k]:
                            out[k] = (out[k] + c * row[k]) % p
    return out


def _coord_pow(a, e, table, p, n):
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else _coord_mul(
                result, base, table, p, n
            )
        e >>= 1
        if e:
            base = _coord_mul(base, base, table, p, n)
    return result


def _p_maximal_index_valuation(fl: list[int], p: int) -> int:
    """v_p of the index of Z[alpha] in a p-maximal order containing it."""
    n = len(fl) - 1
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    den = 1
    index_val = 0
    for _ in range(ENLARGEMENT_CAP):
        basis = [
            [Fraction(W[i][j], den) for j in range(n)] for i in range(n)
        ]
        # multiplication table of the order in its own coordinates, mod p
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                prod = _mul_mod_f(basis[i], basis[j], fl)
                row.append([c % p for c in _solve_basis(W, den, prod)])
            table.append(row)
        # radical of pO in O/pO: kernel of x -> x^q for the least p-power
        # q >= n, as a matrix on rows b_i -> b_i^q
        q = p
        while q < n:
            q *= p
        M = []
        for i in range(n):
            unit = [int(t == i) for t in range(n)]
            M.append(_coord_pow(unit, q, table, p, n))
        kernel = _nullspace_mod_p([list(col) for col in zip(*M)], p)
        rad_rows = [[c % p for c in v] for v in kernel]
        R = _hnf(rad_rows + [[p * int(i == j) for j in range(n)]
                             for i in range(n)], n)
        # multiplier condition: y * gamma_j in p*I for every ideal basis row
        V = [
            [sum(R[j][t] * W[t][col] for t in range(n)) for col in range(n)]
            for j in range(n)
        ]
        constraints = []
        coords_cache = []
        for i in range(n):
            per_i = []
            for j in range(n):
                gamma = [Fraction(V[j][t], den) for t in range(n)]
                prod = _mul_mod_f(basis[i], gamma, fl)
                per_i.append(_solve_basis(V, den, prod))
            coords_cache.append(per_i)
        for j in range(n):
            for el in range(n):
                constraints.append(
                    [coords_cache[i][j][el] % p for i in range(n)]
                )
        y_basis = _nullspace_mod_p(constraints, p)
        growth = len(y_basis)
        if growth == 0:
            return index_val
        index_val += growth
        J = _hnf(
            [[c % p for c in y] for y in y_basis]
            + [[p * int(i == j) for j in range(n)] for i in range(n)],
            n,
        )
        newW = [
            [sum(J[i][t] * W[t][col] for t in range(n)) for col in range(n)]
            for i in range(n)
        ]
        den *= p
        g = den
        for row in newW:
            for c in row:
                g = gcd(g, c)
        if g > 1:
            den //= g
            newW = [[c // g for c in row] for row in newW]
        W = _hnf(newW, n)
    raise ResourceCapError(
        f"maximal order enlargement at p={p} did not stabilize within "
        f"{ENLARGEMENT_CAP} steps"
    )
