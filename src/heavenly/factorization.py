"""Factorization of univariate polynomials over Q.

Fractions are the API and Z[x] the inside.  factor_over_q converts f once
to its primitive integer form, proves that squarefree modulo a small
prime or splits it by Yun's algorithm with exact integer division, and
factors each primitive part P of leading coefficient a in Z[x] through
its monic integral form g (polynomials.make_monic_integral), whose roots
are a times P's; each factor h of g maps back to the monic factor
h(a x) / a^deg h of P, one Fraction per coefficient.

Each part first splits off its linear factors: its integer roots are the
exact ones among the Newton lifts of its roots modulo one small prime
(polynomials.integer_roots). What is left has no rational root, so at
degree 2 or 3 it is irreducible. From degree 4 it goes on to classical
Zassenhaus: take the factor degrees, by distinct-degree factorization,
modulo each of the first few odd primes keeping it squarefree, stopping
early once some prime shows at most eight factors and a further prime adds
no degree information, when at most 162 subsets are left to test. A
divisor's degree must be a subset sum of the factor degrees at every one
of them, so when only 0 and the full degree survive the polynomial is
irreducible and nothing is lifted. Otherwise
split it modulo the prime with the fewest factors (Cantor-Zassenhaus on
fixed probes), Hensel-lift the modular factors past the Mignotte
coefficient bound, and recombine subsets in ascending size order, skipping
those whose degree no prime allows. Returned factors are monic over Q,
sorted by (degree, coefficient tuple), with multiplicities.

The mod-p layer works on plain int lists (ascending coefficients, trimmed).
Its operands are small (mostly under ten coefficients, p below 2^16), so
the cost is in building lists: a product wanted only modulo a fixed
polynomial is reduced in the same pass that sums it (_mod_mulmod), and a
remainder is taken without its quotient (_reduce for a fixed modulus, an
inline loop in _mod_gcd). The layer is internal but also feeds the
ramification machinery, which needs mod-p factorizations with
multiplicities; every split there is the same distinct-degree
factorization, then Cantor-Zassenhaus, at a cost in log p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import isqrt

from .errors import InputError, ResourceCapError
from .integers import is_probable_prime, next_odd_prime
from .polynomials import (
    UniPoly,
    _exact_quotient,
    _from_ints,
    _int_gcd,
    _integer_form,
    _primitive_derivative,
    _rescaled,
    integer_roots,
    memoized,
)

# Guard against pathological subset recombination.  The most subsets any
# decided input of the tests or the benchmark tries is 3885, for a degree-90
# norm with 15 modular factors; at 200000 a hopeless sextic tower stops in
# seconds, not a minute.
RECOMBINATION_CAP = 200_000

# Good primes whose factor degrees are intersected before lifting (Musser
# 1975; Cohen, GTM 138, section 3.5.3). With three, the irreducible
# degree-72 norm met in the 2-division tower of a two-cubic Weil
# restriction over Q(sqrt 6) is lifted with 18 factors mod 7 and recombined
# in 3.3 s; with five, with 12 factors mod 31 in 0.2 s. No count helps when
# every prime gives the same degree pattern, as for Swinnerton-Dyer
# polynomials.
_DEGREE_SET_PRIMES = 5

# Stop taking primes once one shows at most this many modular factors and
# the latest prime left the degree set unchanged: recombination then tests
# at most sum_{k<=4} C(8, k) = 162 subsets, nearly all stopped by the
# constant-term screen. All 162 screens at a modulus of 17^32 take about
# 0.4 ms in pure Python, one distinct-degree factorization of a degree-15
# polynomial at 17 about 0.5 ms, and a prime that leaves the set unchanged
# rarely narrows it next, so a further prime would cost more than it can
# save. After a prime that narrows the set (the first always does) the
# next is taken, since it may prove f irreducible without lifting.
_FEW_MODULAR_FACTORS = 8


# ---------------------------------------------------------------------------
# Arithmetic in Fp[x] on int lists. Addition, subtraction, multiplication
# and division by a monic polynomial are valid over any Z/m, and Hensel
# lifting uses them there.


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _mod_add(f, g, p):
    n = max(len(f), len(g))
    return _trim(
        [((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p
         for i in range(n)]
    )


def _mod_sub(f, g, p):
    n = max(len(f), len(g))
    return _trim(
        [((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
         for i in range(n)]
    )


def _mod_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim([c % p for c in out])


def _mod_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    d = len(g) - 1
    inv_lc = pow(g[-1], -1, p)
    low = g[:d]
    q = [0] * max(len(f) - d, 0)
    # Entries are reduced mod p only when read, so the inner loop does
    # plain integer arithmetic; the leading term cancels by construction.
    for k in range(len(f) - 1, d - 1, -1):
        c = f[k] * inv_lc % p
        if c == 0:
            continue
        q[k - d] = c
        for j, b in enumerate(low, k - d):
            f[j] -= c * b
    return _trim(q), _trim([c % p for c in f[:d]])


def _reducer(g, p):
    """x^n mod (g, p) for n = deg g, as n entries: -g[:n] / lc(g)."""
    inv = -pow(g[-1], -1, p)
    return [c * inv % p for c in g[:-1]]


def _reduce(f, red, p):
    """f mod (g, p) for red = _reducer(g, p), overwriting the list f.

    Each leading term c x^k, k >= n, is replaced by c x^(k-n) red; entries
    are reduced mod p only when read, as in _mod_divmod."""
    n = len(red)
    for k in range(len(f) - 1, n - 1, -1):
        c = f[k] % p
        if c:
            for j, r in enumerate(red, k - n):
                f[j] += c * r
    return _trim([c % p for c in f[:n]])


def _mod_mulmod(a, b, red, p):
    """a*b mod (g, p) for red = _reducer(g, p): the product is built from
    unreduced integers and reduced once, with no quotient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _reduce(out, red, p)


def _mod_gcd(f, g, p):
    """The monic gcd mod p.  Each remainder is _mod_divmod's loop without
    the quotient, not _reduce: the divisor changes at every step, so a
    _reducer would serve one reduction only."""
    a, b = _trim([c % p for c in f]), _trim([c % p for c in g])
    while b:
        d = len(b) - 1
        inv_lc = pow(b[-1], -1, p)
        low = b[:d]
        for k in range(len(a) - 1, d - 1, -1):
            c = a[k] * inv_lc % p
            if c:
                for j, x in enumerate(low, k - d):
                    a[j] -= c * x
        a, b = b, _trim([c % p for c in a[:d]])
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _mod_pow_mod(base, e, modulus, p):
    """base^e mod (modulus, p) by left-to-right repeated squaring."""
    red = _reducer(modulus, p)
    if e == 0:
        return _reduce([1], red, p)
    base = out = _reduce(list(base), red, p)
    for bit in bin(e)[3:]:
        out = _mod_mulmod(out, out, red, p)
        if bit == "1":
            out = _mod_mulmod(out, base, red, p)
    return out


def _mod_deriv(f, p):
    return _trim([i * c % p for i, c in enumerate(f)][1:])


def _mod_monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _rref_mod_p(m: list[list[int]], p: int) -> tuple[list, list[int]]:
    """(rows, pivots): the reduced row echelon form of m over Fp, entries
    in [0, p), one row per pivot column, pivot columns ascending."""
    a = [row[:] for row in m]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pr = next((r for r in range(rank, len(a)) if a[r][c] % p), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c] % p:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        pivots.append(c)
    return a[:len(pivots)], pivots


def _nullspace_mod_p(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the kernel of the matrix m over Fp (row-major)."""
    cols = range(len(m[0]) if m else 0)
    a, pivots = _rref_mod_p(m, p)
    basis = []
    for fc in (c for c in cols if c not in pivots):
        v = [int(c == fc) for c in cols]
        for r, c in enumerate(pivots):
            v[c] = -a[r][fc] % p
        basis.append(v)
    return basis


def _frobenius_columns(f: list[int], p: int) -> list[list[int]]:
    """x^(kp) mod (f, p) for 0 <= k < deg f, each padded to deg f entries.

    These are the columns of the Frobenius matrix of Fp[x]/(f), f monic.
    Each column is the previous one times x^p: by p shift-and-reduce steps
    (cost p*n) for small p, otherwise by one fused product with x^p mod f
    (cost n^2). Timed in pure Python, the two cross over near p = 1.5n for
    8 <= n <= 48 and near p = 3n for n = 4; at p = 2n the product is 1.2
    to 1.45 times as fast for n >= 6, so the switch stays there.
    """
    n = len(f) - 1
    col = [1] + [0] * (n - 1)
    cols = [col]
    if p < 2 * n:
        for _ in range(n - 1):
            for _ in range(p):
                top = col[-1] % p
                col = [0] + col[:-1]
                if top:
                    col = [c - top * a for c, a in zip(col, f)]
            col = [c % p for c in col]
            cols.append(col)
        return cols
    red = _reducer(f, p)
    xp = _mod_pow_mod([0, 1], p, f, p)
    for _ in range(n - 1):
        col = _mod_mulmod(col, xp, red, p)
        col += [0] * (n - len(col))
        cols.append(col)
    return cols


def _distinct_degree_parts(f: list[int],
                           p: int) -> list[tuple[int, list[int]]]:
    """(d, product of the degree-d factors) of squarefree monic f over Fp.

    Distinct-degree factorization: after i Frobenius steps h = x^(p^i)
    mod f, and gcd(rest, h - x) is the product of the degree-i factors,
    since all factors of lower degree are already divided out of rest.
    """
    rest = [c % p for c in f]
    cols = _frobenius_columns(rest, p)
    parts: list[tuple[int, list[int]]] = []
    h = [0, 1]
    i = 0
    while 2 * (i + 1) <= len(rest) - 1:
        i += 1
        acc = [0] * len(cols)
        for hj, col in zip(h, cols):
            if hj:
                acc = [a + hj * c for a, c in zip(acc, col)]
        h = _trim([c % p for c in acc])
        g = _mod_gcd(rest, _mod_sub(h, [0, 1], p), p)
        if len(g) > 1:
            parts.append((i, g))
            rest = _mod_divmod(rest, g, p)[0]
    if len(rest) > 1:
        parts.append((len(rest) - 1, rest))
    return parts


def _probes(p: int):
    """x, x + 1, ..., then every higher degree in order: the base-p digits
    of p, p + 1, ...  For p = 2 only x, x^3, x^5, ...: the trace is
    additive with Tr(t^2) = Tr(t), so these separate all the others do."""
    if p == 2:
        for j in count(1, 2):
            yield [0] * j + [1]
    for n in count(p):
        t = []
        while n:
            n, digit = divmod(n, p)
            t.append(digit)
        yield t


def _equal_degree_split(g: list[int], d: int, p: int) -> list[list[int]]:
    """Irreducible factors of squarefree monic g over Fp, all of degree d,
    in the order the probes isolate them (Cantor-Zassenhaus, 1981).

    A probe t separates the factors on which t^((p^d - 1)/2) is 1, or for
    p = 2 the trace t + t^2 + ... + t^(2^(d-1)) is 0, from the rest.  One
    that leaves h whole acts alike on all factors of h and of its later
    pieces, and some t of degree below deg g separates any two factors.
    """
    done: list[list[int]] = []
    pending = [g]
    e = (p ** d - 1) // 2
    for t in _probes(p):
        done += [h for h in pending if len(h) - 1 == d]
        pending = [h for h in pending if len(h) - 1 > d]
        if not pending:
            return done
        if len(t) >= len(g):
            raise ArithmeticError("equal-degree split did not finish")
        split = []
        for h in pending:
            if p == 2:
                red = _reducer(h, p)
                acc = power = _reduce(list(t), red, p)
                for _ in range(d - 1):
                    power = _mod_mulmod(power, power, red, p)
                    acc = _mod_add(acc, power, p)
            else:
                acc = _mod_sub(_mod_pow_mod(t, e, h, p), [1], p)
            w = _mod_gcd(h, acc, p)
            split += [w, _mod_divmod(h, w, p)[0]] if 1 < len(w) < len(h) \
                else [h]
        pending = split


def _reduce_mod_p(f: UniPoly, p: int) -> list[int]:
    """Coefficients of f reduced mod p; denominators must be units mod p."""
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise InputError(f"denominator of {c} not invertible mod {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return _trim(out)


def factor_mod_p(f: UniPoly, p: int) -> list[tuple[list[int], int]]:
    """Factorization over Fp with multiplicities; f must be nonzero mod p.

    Returns monic irreducible factors as ascending int lists, sorted by
    (degree, coefficients); the leading unit is discarded.
    """
    if not is_probable_prime(p):
        raise InputError(f"{p} is not prime")
    return _factor_mod_p_lists(_reduce_mod_p(f, p), p)


def _factor_mod_p_lists(f: list[int], p: int) -> list[tuple[list[int], int]]:
    f = _trim([c % p for c in f])
    if not f:
        raise InputError("zero polynomial mod p")
    out: dict[tuple[int, ...], int] = {}
    _factor_mod_p_rec(_mod_monic(f, p), p, 1, out)
    items = [(list(k), e) for k, e in out.items()]
    items.sort(key=lambda t: (len(t[0]), t[0]))
    return items


def _factor_mod_p_rec(f, p, mult, out):
    if len(f) - 1 < 1:
        return
    d = _mod_deriv(f, p)
    if not d:
        # f = g(x)^p with g's coefficients the p-th roots, which in Fp are
        # the coefficients themselves.
        g = [f[i] for i in range(0, len(f), p)]
        _factor_mod_p_rec(g, p, mult * p, out)
        return
    sqfree = _mod_monic(_mod_divmod(f, _mod_gcd(f, d, p), p)[0], p)
    for piece in (piece for deg, part in _distinct_degree_parts(sqfree, p)
                  for piece in _equal_degree_split(part, deg, p)):
        key = tuple(piece)
        e = 0
        while True:
            q, r = _mod_divmod(f, piece, p)
            if r:
                break
            f = q
            e += 1
        out[key] = out.get(key, 0) + mult * e
    if len(f) - 1 >= 1:
        _factor_mod_p_rec(f, p, mult, out)


# ---------------------------------------------------------------------------
# Hensel lifting: quadratic two-factor steps arranged in a binary tree.
# All factors are monic, so divisions stay exact over Z/m.


def _xgcd_mod_p(f, g, p):
    """(s, t) with s*f + t*g = 1 over Fp, deg s < deg g, deg t < deg f."""
    r0, r1 = _trim([c % p for c in f]), _trim([c % p for c in g])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_sub(s0, _mod_mul(q, s1, p), p)
        t0, t1 = t1, _mod_sub(t0, _mod_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ArithmeticError("xgcd of non-coprime polynomials")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h with s*g + t*h = 1 from mod m to mod m^2: (g1, h1)."""
    mm = m * m
    e = _mod_sub(f, _mod_mul(g, h, mm), mm)
    q, r = _mod_divmod(_mod_mul(s, e, mm), h, mm)
    g1 = _mod_add(g, _mod_add(_mod_mul(t, e, mm), _mod_mul(q, g, mm), mm), mm)
    return g1, _mod_add(h, r, mm)


def _bezout_step(g1, h1, s, t, m):
    """Lift s*g + t*h = 1 from mod m to mod m^2, for (g1, h1) the factors
    _hensel_step lifted: (s1, t1) with s1*g1 + t1*h1 = 1 mod m^2."""
    mm = m * m
    b = _mod_sub(_mod_add(_mod_mul(s, g1, mm), _mod_mul(t, h1, mm), mm),
                 [1], mm)
    c, d = _mod_divmod(_mod_mul(s, b, mm), h1, mm)
    s1 = _mod_sub(s, d, mm)
    t1 = _mod_sub(t, _mod_add(_mod_mul(t, b, mm), _mod_mul(c, g1, mm), mm), mm)
    return s1, t1


def _modulus_for(p: int, target: int) -> int:
    m = p
    while m < target:
        m = m * m
    return m


def _hensel_lift_tree(f, factors, p, target):
    """Lift the mod-p factorization `factors` of f to mod p^(2^k) >= target."""
    m_final = _modulus_for(p, target)
    if len(factors) == 1:
        return [[c % m_final for c in f]]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = _mod_mul(g, fac, p)
    h = [1]
    for fac in factors[half:]:
        h = _mod_mul(h, fac, p)
    s, t = _xgcd_mod_p(g, h, p)
    m = p
    while m < target:
        g, h = _hensel_step(f, g, h, s, t, m)
        # the last doubling needs no s, t for a further one
        if m * m < target:
            s, t = _bezout_step(g, h, s, t, m)
        m = m * m
    g = [c % m for c in g]
    h = [c % m for c in h]
    return (_hensel_lift_tree(g, factors[:half], p, target)
            + _hensel_lift_tree(h, factors[half:], p, target))


# ---------------------------------------------------------------------------
# Zassenhaus over Z.


def _int_divmod_monic(f: list[int], g: list[int], bound: int | None = None):
    """(quotient, remainder) of exact integer division by monic g; None
    once a quotient coefficient exceeds bound in absolute value."""
    f = f[:]
    d = len(g) - 1
    q = [0] * max(len(f) - d, 0)
    for k in range(len(f) - 1, d - 1, -1):
        c = f[k]
        if c == 0:
            continue
        if bound is not None and abs(c) > bound:
            return None
        q[k - d] = c
        for j, b in enumerate(g):
            f[k - d + j] -= c * b
    return q, _trim(f[:d])


def _mignotte_target(f: list[int]) -> int:
    """2B + 1 where B bounds every coefficient of every monic divisor of f."""
    n = len(f) - 1
    b = (1 << n) * (isqrt(sum(c * c for c in f)) + 1)
    return 2 * b + 1


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _squarefree_mod(f: list[int], p: int) -> bool:
    fp = _trim([c % p for c in f])
    if len(fp) != len(f):
        return False  # leading coefficient vanished
    d = _mod_deriv(fp, p)
    if not d:
        return False
    return len(_mod_gcd(fp, d, p)) == 1


def _divisor_degrees(parts) -> tuple[int, int]:
    """(sums, count) for a distinct-degree factorization: bit d of sums is
    set when d is a subset sum of the factor degrees, and count is the
    number of factors."""
    sums = 1
    count = 0
    for d, g in parts:
        for _ in range((len(g) - 1) // d):
            sums |= sums << d
            count += 1
    return sums, count


def _factor_monic_squarefree_int(f: list[int]) -> list[list[int]]:
    """Monic irreducible integer factors of a monic squarefree int poly.

    The linear factors come from its integer roots. What is left has no
    root, so it is irreducible up to degree 3; from degree 4 it goes to
    Zassenhaus."""
    if len(f) <= 2:
        return [f]
    roots = integer_roots(f)
    for r in roots:
        f = _int_divmod_monic(f, [-r, 1])[0]
    linear = [[-r, 1] for r in roots]
    if len(f) == 1:
        return linear
    if len(f) <= 4:
        return linear + [f]
    return linear + _zassenhaus(f)


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Monic irreducible integer factors of a monic squarefree int poly
    of degree at least 4."""
    n = len(f) - 1
    # Bit d of `allowed` is set while every prime tried so far admits a
    # divisor of degree d, i.e. d is a subset sum of its factor degrees.
    # Good primes exist since f is squarefree over Q and only primes
    # dividing the discriminant fail.
    allowed = (1 << (n + 1)) - 1
    p = 3
    best = None
    for _ in range(_DEGREE_SET_PRIMES):
        while not _squarefree_mod(f, p):
            p = next_odd_prime(p)
        parts = _distinct_degree_parts(f, p)
        sums, count = _divisor_degrees(parts)
        narrowed = best is None or allowed & sums != allowed
        allowed &= sums
        if allowed == 1 | 1 << n:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, parts)
        if best[0] <= _FEW_MODULAR_FACTORS and not narrowed:
            break
        p = next_odd_prime(p)
    _, p, parts = best
    # Only parts holding several factors of one degree need splitting.
    modular = sorted(
        (fac for d, g in parts for fac in _equal_degree_split(g, d, p)),
        key=lambda fac: (len(fac), fac),
    )
    target = _mignotte_target(f)
    m = _modulus_for(p, target)
    lifted = _hensel_lift_tree([c % m for c in f], modular, p, target)
    degree = [len(g) - 1 for g in lifted]

    remaining = list(range(len(lifted)))
    current = f
    found: list[list[int]] = []
    tested = 0
    size = 1
    while 2 * size <= len(remaining):
        progressed = False
        for combo in combinations(remaining, size):
            tested += 1
            if tested > RECOMBINATION_CAP:
                raise ResourceCapError(
                    f"factor recombination exceeded {RECOMBINATION_CAP} "
                    f"subsets (degree {n}, {len(lifted)} factors mod {p})"
                )
            if not allowed >> sum(degree[i] for i in combo) & 1:
                continue
            # Cheap screen: a true divisor's constant term divides f(0).
            if current[0] != 0:
                const = 1
                for i in combo:
                    const = const * lifted[i][0] % m
                const = _symmetric(const, m)
                if const == 0 or current[0] % const != 0:
                    continue
            prod = [1]
            for i in combo:
                prod = _mod_mul(prod, lifted[i], m)
            cand = [_symmetric(c, m) for c in prod]
            # a true quotient is a monic divisor of f, within its bound
            division = _int_divmod_monic(current, cand, target // 2)
            if division is not None and not division[1]:
                found.append(cand)
                current = division[0]
                remaining = [i for i in remaining if i not in combo]
                progressed = True
                break
        if not progressed:
            size += 1
    if len(current) - 1 >= 1:
        found.append(current)
    return found


def _provably_squarefree(f: list[int]) -> bool:
    """Cheap one-sided test on an integer polynomial: squarefree modulo
    some small prime.

    deg gcd over Q never exceeds deg gcd mod p when p keeps the leading
    coefficient, so a single squarefree reduction proves squarefreeness
    and spares the exact gcd.
    """
    p = 3
    for _ in range(5):
        if _squarefree_mod(f, p):
            return True
        p = next_odd_prime(p)
    return False


def _squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive integer polynomial of degree >= 1
    with positive leading coefficient: its squarefree parts, primitive
    with positive leading coefficients, with multiplicities.  Every gcd
    and quotient is a primitive divisor of f over Q, so one in Z[x]
    (Gauss's lemma), and each division is exact there."""
    if _provably_squarefree(f):
        return [(f, 1)]
    out = []
    g = _int_gcd(f, _primitive_derivative(f))
    w = _exact_quotient(f, g)
    i = 1
    while len(w) > 1:
        y = _int_gcd(w, g)
        piece = _exact_quotient(w, y)
        if len(piece) > 1:
            out.append((piece, i))
        w = y
        g = _exact_quotient(g, y)
        i += 1
    return out


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: monic squarefree parts with multiplicities."""
    if f.is_zero:
        raise InputError("cannot decompose the zero polynomial")
    if f.degree < 1:
        return []
    return [(_from_ints(part, part[-1]), mult)
            for part, mult in _squarefree_parts(_integer_form(f)[0])]


def factor_over_q(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Irreducible monic factors of f over Q with multiplicities.

    The product of factor^multiplicity times a rational constant equals f;
    the list is sorted by (degree, coefficient tuple).  Inside a
    polynomials.memo_scope each f is factored once; every call gets a new
    list.
    """
    return list(memoized(("factor_over_q", f),
                         lambda: tuple(_factor_over_q(f))))


def _factor_over_q(f: UniPoly) -> list[tuple[UniPoly, int]]:
    if f.is_zero:
        raise InputError("cannot factor the zero polynomial")
    if f.degree < 1:
        return []
    result = [(h, mult)
              for part, mult in _squarefree_parts(_integer_form(f)[0])
              for h in _factor_primitive(part)]
    result.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return result


def _factor_squarefree_over_q(part: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors of a nonconstant part over Q, sorted as
    factor_over_q's; part must be squarefree, and is not checked again."""
    return sorted(_factor_primitive(_integer_form(part)[0]),
                  key=lambda h: (h.degree, h.coeffs))


def _factor_primitive(f: list[int]) -> list[UniPoly]:
    """Monic irreducible factors over Q of a squarefree primitive integer
    polynomial f of leading coefficient a > 0.

    They come from the factors h of the monic integer polynomial
    g = a^(n-1) f(x/a), whose roots are a times f's, as h(a x) / a^deg h,
    one Fraction per coefficient.  f is determined by its roots, so the
    memoized step has one key for f, whether f comes alone or as the
    squarefree part of one of its powers."""
    a = f[-1]
    ints = tuple(_rescaled(f))
    found = memoized(("factor_monic_squarefree_int", ints),
                     lambda: tuple(map(tuple, _factor_monic_squarefree_int(
                         list(ints)))))
    if a == 1:
        return [_from_ints(h) for h in found]
    return [UniPoly(tuple(Fraction(c, a ** (len(h) - 1 - k))
                          for k, c in enumerate(h))) for h in found]


__all__ = [
    "factor_over_q",
    "squarefree_decomposition",
    "factor_mod_p",
    "RECOMBINATION_CAP",
]
