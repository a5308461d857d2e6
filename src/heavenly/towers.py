"""Number fields as towers of explicit monic extensions of Q.

A field is its tower: RATIONAL, or an ExtensionField over its base, the
field below.  Its levels are the moduli from the bottom up, each monic and
irreducible over the field below it, as a tuple of that field's elements
in ascending degree order.  Fields with equal levels are equal, and
FieldTower(levels) interns them in a bounded table, so each field's
generator traces and residue maps are computed once.

An element of Q is a Fraction.  An element of a field of height at least 1
is a pair (nums, den) in lowest terms: a flat tuple of integers, one per
power-basis element of the whole tower, over one positive denominator.
Coordinate i*b + j, with b the degree of the field below, belongs to the
i-th power of the top generator times the j-th basis element below, so the
coefficients over the field below are consecutive slices, and flatten lists
nums/den as Fractions.  Products are integer convolutions reduced level by
level; rational scalars touch only nums and den.  Over a first level above
Q, multiplication by a is an integer matrix C over one scalar s, so the
norm of a is det C / s^d by Bareiss elimination; higher levels take norms,
and every level takes the symmetric functions of a's conjugates that
inversion needs, from traces by Newton's identities, because elimination
over a tower would invert at every pivot.

Factoring over a tower runs on norms: shift the variable by multiples of the
top generator until the resultant with the top minimal polynomial (the norm,
computed by evaluation and interpolation over the subfield) is squarefree,
factor that norm one level down recursively, and pull factors back up: the
factors of the norm are the norms of the factors over the field, one to
one (Trager 1976), so a gcd with the shifted polynomial finds each but the
last, and the last is what remains after dividing the others out.  The
shifts 0, 1, -1, 2, -2, ... are walked once, and the first whose norm is
squarefree modulo one of a few screen primes p is taken: a root mod p of
each level modulus maps the subfield's p-integral elements to F_p, and the
norm is monic, so a squarefree image proves it squarefree.  The image
depends on the shift mod p only, and at most deg(f)^2 d (d - 1) residues,
d the degree of the top level, fail when one passes, so the walk stops
after that many plus one shifts, or one per residue of the largest screen
prime.  Only when none passes does the exact test decide, on those norms
and then on more: at most half that many shifts fail it (Trager 1976).
An irreducible norm one level down leaves the polynomial irreducible.

One bound, FIELD_DEGREE_CAP, limits every tower: a norm descent of f over
F ends in a rational norm of degree deg f [F : Q], the degree of F(alpha)
for a root alpha of f, and adjoining a root of h to F builds a field of
degree deg h [F : Q].  Both are refused before any work, with an error
naming the stage and the degree reached.

A polynomial whose coefficients all lie in the field B below the top level
is factored over B first, so the step recurses to the least level holding
them.  A root of an irreducible factor g over B has degree deg g over B,
which divides [F(alpha) : B] = [F(alpha) : F] [F : B]; so when deg g is
prime to the top level's degree [F : B], it divides [F(alpha) : F], and g
stays irreducible over F.  Only the other factors descend, and each
factor keeps its multiplicity over B, since gcd(f, f') is the same over
every field.

The same primes carry two certificates that skip the descent.  Where each
level modulus, the top one included, has a simple root mod p, those roots
map the whole field to F_p through a prime of degree 1 at which the
power-basis order is regular, and a monic factor of f maps to a factor of
its image.  So when the images of f at the screen primes are squarefree and
their factor-degree patterns, intersected as over Q, leave no divisor
degree but 0 and deg f, f is irreducible with no norm taken; and a
squarefree image proves f squarefree, so Yun's algorithm is skipped.
Outputs never depend on which route decided them.

A splitting tower adjoins a root theta of an irreducible h over K.  For a
cubic or quartic h, how h/(x - theta) factors over K(theta) follows from
Gal(h) over K, read off the discriminant and the Kappe-Warren resolvent
cubic with factoring over K only; a D4 quartic, and every other degree,
is refactored over K(theta).  A quartic h that is a quintic's irreducible
cofactor has group C4, A4 or S4, and a root of its resolvent in K means
C4.  For a quintic with rational integer coefficients, its roots in Z_p,
at the least odd prime p where it splits into linears, give one candidate
for that root per pentagon on them, exact for the right pentagon, and an
exact evaluation of the resolvent accepts or rejects each (Stauduhar 1973,
with p-adic in place of complex roots).  The scan for p skips primes where
the discriminant is no nonzero square.  For any other quintic the root is
read off the degrees of the resolvent norm's factors.  The square
tests those groups rest on take square roots down the tower, by
denesting (see _square_root): an odd-degree level adds no square root to
the field K' below it, and over a quadratic level K'(sqrt e) a square
root is one to three square roots in K'.  Past any other level, an element
whose norm to K' is a square is one when x^2 - delta has a linear factor
over K, found by one norm descent.  The same roots factor a quadratic
over a tower, irreducible unless its discriminant is a square, after a
zero constant term has split off x, so neither takes a norm while the
descent crosses every level.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, count, islice
from math import gcd, isqrt, lcm

from .errors import InputError, ReducibleExtensionError, ResourceCapError
from .factorization import (
    _distinct_degree_parts,
    _divisor_degrees,
    _equal_degree_split,
    _factor_squarefree_over_q,
    _mod_deriv,
    _mod_divmod,
    _mod_gcd,
    _mod_pow_mod,
    _mod_sub,
    _squarefree_mod,
    _symmetric,
    factor_over_q,
)
from .integers import is_probable_prime, next_odd_prime
from .polynomials import (
    UniPoly,
    _bareiss_det,
    _newton_lift,
    discriminant,
    memoized,
    poly_gcd,
)

# The largest [F(alpha) : Q] a norm descent or an adjunction may reach,
# for alpha a root of the polynomial at hand
FIELD_DEGREE_CAP = 192

# Norm descent walks the shifts 0, 1, -1, 2, ... and takes the first
# whose norm is squarefree modulo one of up to _SCREEN_PRIMES primes, found
# among the first _SCREEN_SCAN primes above _SCREEN_FLOOR; when no shift is
# certified there, the exact squarefree test decides.  The same primes
# certify irreducible and squarefree inputs before any descent; with none,
# every factoring over a tower takes the exact path.  The floor is the cap
# as set here, so a cap changed later changes no field's primes.
_SCREEN_PRIMES = 3
_SCREEN_SCAN = 64
_SCREEN_FLOOR = FIELD_DEGREE_CAP

BASE_FIELD_POLYS = {
    "Q": None,
    "Q(i)": (Fraction(1), Fraction(0), Fraction(1)),      # x^2 + 1
    "Q(sqrt2)": (Fraction(-2), Fraction(0), Fraction(1)),  # x^2 - 2
    "Q(sqrt-2)": (Fraction(2), Fraction(0), Fraction(1)),  # x^2 + 2
}


# ---------------------------------------------------------------------------
# Field arithmetic: Q and iterated extensions, elements as integer vectors.


def _lowest_terms(nums, den: int) -> tuple:
    """The element nums/den, den > 0, with the common factor divided out."""
    if den == 1:
        return (tuple(nums), 1)
    g = gcd(*nums, den)
    if g == 1:
        return (tuple(nums), den)
    return (tuple([x // g for x in nums]), den // g)


class _Tower:
    """A field seen as its tower: equal and hash-equal by its levels."""

    @property
    def height(self) -> int:
        return len(self.levels)

    def level_degrees(self) -> list[int]:
        return [len(lev) - 1 for lev in self.levels]

    def extends(self, other: _Tower) -> bool:
        return self.levels[: other.height] == other.levels

    def __eq__(self, other):
        return self is other or (isinstance(other, _Tower)
                                 and self.levels == other.levels)

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        degs = "x".join(str(d) for d in self.level_degrees()) or "1"
        return f"FieldTower(degree={self.absolute_degree}, levels={degs})"


class RationalField(_Tower):
    """Field operations on Fraction values; ground of every tower."""

    degree = 1
    absolute_degree = 1
    base = None
    levels = ()
    _hash = hash(levels)
    # integer products at this height carry no denominator
    _product_den = 1

    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def zero(self):
        return self._ZERO

    def one(self):
        return self._ONE

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def parts(self, a):
        """(numerators, denominator) of a in lowest terms."""
        return ((a.numerator,), a.denominator)

    def from_parts(self, nums, den: int):
        return Fraction(nums[0], den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scale(self, a, q):
        """a times the rational (or integer) q."""
        return a * q

    def inv(self, a):
        if a == 0:
            raise InputError("division by zero")
        return 1 / a

    def is_zero(self, a):
        return not a

    def flatten(self, a):
        return (a,)

    def _residue_map(self, p: int):
        """The map of Q's p-integral elements to F_p, as an extension's
        (basis, whole) with only the image of its basis."""
        return None, (1,)


RATIONAL = RationalField()


class ExtensionField(_Tower):
    """The field below, extended by a root of a monic minimal polynomial.

    An element is a pair (nums, den): nums is a tuple of absolute_degree
    integers and den a positive integer with no factor common to all of
    nums, so equal elements are equal pairs.  The element is nums/den in
    the flattened power basis: coordinate i*b + j, with b the absolute
    degree of the field below, belongs to the i-th power of this level's
    generator times the j-th basis element of the field below.  Its
    coordinates over the field below are read with coords and written with
    from_coords.

    Products are integer convolutions reduced by each level's modulus, the
    modulus scaled to integer coefficients by the least common denominator
    of its coefficients; rational scalars act on nums and den directly.
    """

    def __init__(self, base, modulus: tuple):
        if len(modulus) < 3:
            raise InputError("extension degree must be at least 2")
        if not base.is_zero(base.sub(modulus[-1], base.one())):
            raise InputError("extension modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.levels = base.levels + (self.modulus,)
        self._hash = hash(self.levels)
        self.degree = d = len(modulus) - 1
        self._width = width = base.absolute_degree
        self.absolute_degree = n = width * d
        self._zero = ((0,) * n, 1)
        self._one = ((1,) + (0,) * (n - 1), 1)
        # y^d = -(1/M) * sum_j m_j y^j with integer vectors m_j; terms keep
        # the nonzero m_j, with an integer multiplier when m_j is rational
        parts = [base.parts(c) for c in modulus[:-1]]
        M = lcm(*(den for _, den in parts))
        below = base._product_den
        terms = []
        for j, (nums, den) in enumerate(parts):
            if any(nums):
                vec = [x * (M // den) for x in nums]
                multiplier = None if any(vec[1:]) else vec[0] * below
                terms.append((j, vec, multiplier))
        self._reduce_terms = tuple(terms)
        # each of the d - 1 reduction steps scales the partial product by
        # _step; an integer product a*b stands for (a*b) / _product_den
        self._step = below * M
        self._product_den = below * self._step ** (d - 1)
        self._residue_map_at: dict = {}

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generator(self):
        nums = [0] * self.absolute_degree
        nums[self._width] = 1
        return (tuple(nums), 1)

    def from_fraction(self, q: Fraction):
        q = Fraction(q)
        return ((q.numerator,) + self._zero[0][1:], q.denominator)

    def from_base(self, c):
        """c, an element of any field below, as an element of this one:
        its coordinates are a prefix of these, so zeros pad it."""
        nums, den = c if isinstance(c, tuple) else RATIONAL.parts(c)
        return (tuple(nums) + self._zero[0][len(nums):], den)

    def parts(self, a):
        """(numerators, denominator) of a in lowest terms."""
        return a

    def from_parts(self, nums, den: int):
        return _lowest_terms(nums, den)

    def coords(self, a) -> list:
        """The coefficients of a over the field below, ascending powers."""
        nums, den = a
        w = self._width
        B = self.base
        return [B.from_parts(nums[i * w:(i + 1) * w], den)
                for i in range(self.degree)]

    def from_coords(self, coords):
        """The element with the given coefficients over the field below."""
        B = self.base
        parts = [B.parts(c) for c in coords]
        parts += [B.parts(B.zero())] * (self.degree - len(parts))
        den = lcm(*(d for _, d in parts))
        nums = []
        for part, d in parts:
            f = den // d
            nums.extend(part if f == 1 else [x * f for x in part])
        # some coefficient with den's full power of each prime is in lowest
        # terms, so nums and den share no factor
        return (tuple(nums), den)

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            return _lowest_terms([x + y for x, y in zip(an, bn)], ad)
        g = gcd(ad, bd)
        fa, fb = bd // g, ad // g
        return _lowest_terms([x * fa + y * fb for x, y in zip(an, bn)],
                             ad * fa)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        nums, den = a
        return (tuple([-x for x in nums]), den)

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if not (any(an) and any(bn)):
            return self._zero
        return _lowest_terms(self._int_mul(an, bn),
                             ad * bd * self._product_den)

    def scale(self, a, q):
        """a times the rational (or integer) q."""
        num = q.numerator
        if not num:
            return self._zero
        nums, den = a
        return _lowest_terms([x * num for x in nums], den * q.denominator)

    def _int_mul(self, a, b) -> list:
        """Integer vector c with a*b = c / _product_den, for integer a, b."""
        d = self.degree
        w = self._width
        step = self._step
        if w == 1:
            prod = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        prod[i + j] += x * y
            for k in range(2 * d - 2, d - 1, -1):
                c = prod[k]
                if step != 1:
                    prod[:k] = [v * step for v in prod[:k]]
                if c:
                    for j, _, m in self._reduce_terms:
                        prod[k - d + j] -= c * m
            return prod[:d]
        B = self.base
        pieces_a = [(i, a[i * w:(i + 1) * w]) for i in range(d)]
        pieces_b = [(j, s) for j, s in
                    ((j, b[j * w:(j + 1) * w]) for j in range(d)) if any(s)]
        prod = [None] * (2 * d - 1)
        for i, x in pieces_a:
            if not any(x):
                continue
            for j, y in pieces_b:
                v = B._int_mul(x, y)
                acc = prod[i + j]
                prod[i + j] = v if acc is None else [
                    p + q for p, q in zip(acc, v)]
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if step != 1:
                prod[:k] = [None if acc is None else [v * step for v in acc]
                            for acc in prod[:k]]
            if c is None or not any(c):
                continue
            for j, vec, m in self._reduce_terms:
                v = B._int_mul(c, vec) if m is None else [x * m for x in c]
                acc = prod[k - d + j]
                prod[k - d + j] = [-x for x in v] if acc is None else [
                    p - q for p, q in zip(acc, v)]
        out = []
        for acc in prod[:d]:
            out.extend([0] * w if acc is None else acc)
        return out

    def inv(self, a):
        """By Cayley-Hamilton: 1/a = sum_j (-1)^j e_{d-1-j} a^j / e_d, with
        e_k the elementary symmetric functions of a's conjugates over the
        field below, so each level inverts once in the field below."""
        if self.is_zero(a):
            raise InputError("division by zero")
        B = self.base
        coords = self.coords(a)
        if all(B.is_zero(c) for c in coords[1:]):
            return self.from_base(B.inv(coords[0]))
        d = self.degree
        powers, e = self._conjugate_symmetric(a)
        if B.is_zero(e[d]):
            raise InputError("element not invertible; modulus is reducible")
        acc = self.zero()
        for j in range(d):
            term = self.mul(self.from_base(e[d - 1 - j]), powers[j])
            acc = self.sub(acc, term) if j % 2 else self.add(acc, term)
        return self.mul(self.from_base(B.inv(e[d])), acc)

    def norm(self, a):
        """The product of a's conjugates over the field below."""
        if self._width == 1:
            nums, den = a
            return Fraction(_bareiss_det(self._int_matrix(nums)),
                            (den * self._product_den) ** self.degree)
        return self._conjugate_symmetric(a)[1][self.degree]

    def _int_matrix(self, nums) -> list:
        """Integer C with multiplication by nums equal to C / _product_den
        on the power basis, as its list of columns; transposing leaves the
        determinant alone."""
        unit = [0] * self.absolute_degree
        columns = []
        for j in range(self.absolute_degree):
            unit[j] = 1
            columns.append(self._int_mul(nums, unit))
            unit[j] = 0
        return columns

    def _conjugate_symmetric(self, a) -> tuple[list, list]:
        """a^0, ..., a^(d-1) and the elementary symmetric functions e_0, ...,
        e_d of a's conjugates over the field below, from the traces of a's
        powers by Newton's identities at every level.
        """
        d = self.degree
        powers = [self.one(), a]
        while len(powers) <= d:
            powers.append(self.mul(powers[-1], a))
        traces = self._generator_power_traces
        e = _elementary_symmetric(self.base, [self._trace(x, traces)
                                              for x in powers[1:]])
        return powers[:d], e

    def _trace(self, a, traces):
        """Trace of a over the field below, given the generator's."""
        B = self.base
        acc = B.zero()
        for c, t in zip(self.coords(a), traces):
            acc = B.add(acc, B.mul(c, t))
        return acc

    @cached_property
    def _generator_power_traces(self) -> list:
        """Traces of y^0, ..., y^(d-1) for the generator y: the power sums of
        the modulus roots, by Newton's identities."""
        B = self.base
        d = self.degree
        # e_k = (-1)^k m_{d-k} for the monic modulus m
        e = [B.one()] + [
            B.neg(self.modulus[d - k]) if k % 2 else self.modulus[d - k]
            for k in range(1, d)]
        # p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i}
        sums = [B.from_fraction(Fraction(d))]
        for k in range(1, d):
            acc = B.scale(e[k], k if k % 2 else -k)
            for i in range(1, k):
                term = B.mul(e[i], sums[k - i])
                acc = B.add(acc, term) if i % 2 else B.sub(acc, term)
            sums.append(acc)
        return sums

    def is_zero(self, a):
        return not any(a[0])

    def flatten(self, a):
        nums, den = a
        return tuple(Fraction(x, den) for x in nums)

    def _residue_map(self, p: int):
        """(basis, whole): a ring map phi from the field below to F_p
        through simple roots of the level moduli mod p, as the images of
        its power basis, and phi extended to this field by a simple root of
        this level's modulus under phi, or None when it has none.
        None when p divides a denominator of a level modulus or phi of the
        field below is not defined; computed once per prime."""
        if p in self._residue_map_at:
            return self._residue_map_at[p]
        B = self.base
        below = B._residue_map(p)
        out = None
        if below is not None and below[1] is not None:
            basis = below[1]
            modulus = [_map_mod(basis, *B.parts(c), p) for c in self.modulus]
            if None not in modulus:
                r = _root_mod(modulus, p)
                # coordinate i*b + j is the i-th power of the generator
                # times the j-th basis element below
                out = basis, None if r is None else tuple(
                    pow(r, i, p) * v % p for i in range(self.degree)
                    for v in basis)
        self._residue_map_at[p] = out
        return out

    @cached_property
    def _residue_maps(self) -> tuple:
        """Up to _SCREEN_PRIMES entries (p, basis, whole) of
        _residue_map, at the first primes above _SCREEN_FLOOR where it is
        defined."""
        out = []
        primes = (q for q in count(_SCREEN_FLOOR + 1) if is_probable_prime(q))
        for p in islice(primes, _SCREEN_SCAN):
            if len(out) >= _SCREEN_PRIMES:
                break
            found = self._residue_map(p)
            if found is not None:
                out.append((p,) + found)
        return tuple(out)


# ---------------------------------------------------------------------------
# Polynomials over an arbitrary field: lists of elements, ascending, trimmed.


def _gp_trim(F, f: list) -> list:
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def _gp_scale(F, f, c):
    return _gp_trim(F, [F.mul(c, x) for x in f])


def _gp_divmod(F, f, g):
    if not g:
        raise InputError("division by the zero polynomial")
    rem = list(f)
    d = len(g) - 1
    inv_lc = None if g[-1] == F.one() else F.inv(g[-1])
    low = [(j, b) for j, b in enumerate(g[:d]) if not F.is_zero(b)]
    q = [F.zero()] * (len(rem) - d)
    # the leading term cancels by construction, so only g[:d] is applied
    for k in range(len(rem) - 1, d - 1, -1):
        if F.is_zero(rem[k]):
            continue
        c = rem[k] if inv_lc is None else F.mul(rem[k], inv_lc)
        q[k - d] = c
        for j, b in low:
            rem[k - d + j] = F.sub(rem[k - d + j], F.mul(c, b))
    return _gp_trim(F, q), _gp_trim(F, rem[:d])


def _gp_monic(F, f):
    if not f:
        return []
    lc = f[-1]
    if F.is_zero(F.sub(lc, F.one())):
        return list(f)
    return _gp_scale(F, f, F.inv(lc))


def _gp_rescale(F, f):
    """Scale by a rational constant so flattened coordinates are primitive
    integers; a gcd computed up to scalars is unaffected, and this stops
    fraction growth from compounding across Euclidean steps."""
    if not f:
        return f
    num_g = 0
    den_l = 1
    for c in f:
        nums, den = F.parts(c)
        num_g = gcd(num_g, *nums)
        den_l = lcm(den_l, den)
    if num_g == 0:
        return f
    scale = Fraction(den_l, num_g)
    if scale == 1:
        return f
    return [F.scale(c, scale) for c in f]


def _gp_gcd(F, f, g):
    if isinstance(F, RationalField):
        # integer primitive-remainder gcd; the generic Euclidean loop
        # explodes fractionally on the large norms taken over Q
        result = poly_gcd(UniPoly.from_list(list(f)),
                          UniPoly.from_list(list(g)))
        return list(result.coeffs)
    a, b = _gp_rescale(F, list(f)), _gp_rescale(F, list(g))
    while b:
        a, b = b, _gp_rescale(F, _gp_divmod(F, a, b)[1])
    return _gp_monic(F, a)


def _elementary_symmetric(F, sums) -> list:
    """e_0, ..., e_n from the power sums p_1, ..., p_n by Newton's
    identities: k e_k = sum_{i=1}^k (-1)^(i-1) e_{k-i} p_i."""
    e = [F.one()]
    for k in range(1, len(sums) + 1):
        acc = F.zero()
        for i in range(1, k + 1):
            term = F.mul(e[k - i], sums[i - 1])
            acc = F.add(acc, term) if i % 2 else F.sub(acc, term)
        e.append(F.scale(acc, Fraction(1, k)))
    return e


def _gp_deriv(F, f):
    out = [F.scale(f[k], k) for k in range(1, len(f))]
    return _gp_trim(F, out)


def _gp_taylor_shift(F, f, c):
    """f(x + c) by Horner in the linear polynomial x + c."""
    out: list = []
    for coeff in reversed(f):
        # out * (x + c) + coeff
        nxt = [F.mul(c, x) for x in out] + [F.zero()]
        for i, x in enumerate(out):
            nxt[i + 1] = F.add(nxt[i + 1], x)
        nxt[0] = F.add(nxt[0], coeff)
        out = nxt
    return _gp_trim(F, out)


def _gp_interpolate(F, xs, ys):
    """Interpolation through distinct integer nodes xs with values ys in F,
    Newton form, on integer vectors: each divided-difference column is one
    denominator over integer numerators, with one gcd per column."""
    parts = [F.parts(y) for y in ys]
    den = lcm(*(d for _, d in parts))
    column = [[x * (den // d) for x in nums] for nums, d in parts]
    dd = [(column[0], den)]
    for level in range(1, len(xs)):
        steps = [xs[i + level] - xs[i] for i in range(len(column) - 1)]
        m = lcm(*steps)
        column = [[(b - a) * (m // step) for a, b in zip(lo, hi)]
                  for lo, hi, step in zip(column, column[1:], steps)]
        den *= m
        g = gcd(den, *(x for vec in column for x in vec))
        if g > 1:
            column = [[x // g for x in vec] for vec in column]
            den //= g
        dd.append((column[0], den))
    # expand Newton form, coeffs * (x - xs[k]) + dd[k], over one denominator
    top = lcm(*(d for _, d in dd))
    coeffs: list = []
    for k in range(len(dd) - 1, -1, -1):
        nxt = [[0] * len(dd[k][0])] + coeffs
        for i, vec in enumerate(coeffs):
            nxt[i] = [a - xs[k] * b for a, b in zip(nxt[i], vec)]
        nums, d = dd[k]
        nxt[0] = [a + b * (top // d) for a, b in zip(nxt[0], nums)]
        coeffs = nxt
    return _gp_trim(F, [F.from_parts(vec, top) for vec in coeffs])


def _gp_squarefree(F, f):
    return len(_gp_gcd(F, f, _gp_deriv(F, f))) == 1


# ---------------------------------------------------------------------------
# Towers.


@lru_cache(maxsize=256)
def _interned(base, modulus: tuple) -> ExtensionField:
    """base extended by the monic modulus over it, one object per pair
    while cached; the bound keeps a long batch from growing it."""
    return ExtensionField(base, modulus)


def FieldTower(levels=()):
    """The field with the given levels, from the bottom up: RATIONAL for
    none, and one object for equal levels while _interned holds it."""
    F = RATIONAL
    for level in levels:
        F = _interned(F, tuple(level))
    return F


def base_field(tag: str):
    """The field for a ground field tag: Q, Q(i), Q(sqrt2), or Q(sqrt-2)."""
    if not isinstance(tag, str) or tag not in BASE_FIELD_POLYS:
        known = ", ".join(sorted(BASE_FIELD_POLYS))
        raise InputError(f"unknown base field {tag!r}; expected one of {known}")
    poly = BASE_FIELD_POLYS[tag]
    return FieldTower(() if poly is None else (poly,))


def field_chain(F) -> tuple:
    """Fields from Q up to F, one per level."""
    return (F,) if F.base is None else field_chain(F.base) + (F,)


def lift_to_field(F, f: UniPoly) -> list:
    """A rational polynomial as a polynomial over the field F."""
    return [F.from_fraction(c) for c in f.coeffs]


def _as_gpoly(F, f):
    """Accept a UniPoly over Q or a coefficient list over F."""
    if isinstance(f, UniPoly):
        return _gp_trim(F, lift_to_field(F, f))
    return _gp_trim(F, list(f))


def flatten_poly(F, f) -> tuple:
    """Deterministic sort key: degree, then flattened coefficients."""
    flat = []
    for c in f:
        flat.extend(F.flatten(c))
    return (len(f), tuple(flat))


# ---------------------------------------------------------------------------
# Factorization over a tower (norm descent).


def _factor_squarefree(F, f):
    """Monic irreducible factors of a monic squarefree f over the field F,
    sorted by flatten_poly.  Over an extension, a zero constant term splits
    off x, and a quadratic x^2 + b x + c is irreducible unless its
    discriminant has a square root r there (see _square_root), when it is
    (x - (-b - r)/2)(x - (-b + r)/2); the rest take norm descent."""
    deg = len(f) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [list(f)]
    if F.base is None:
        return [list(g.coeffs)
                for g in _factor_squarefree_over_q(UniPoly.from_list(f))]
    if F.is_zero(f[0]):
        out = [[F.zero(), F.one()]] + _factor_squarefree(F, f[1:])
    elif deg == 2:
        c, b, _ = f
        r = _square_root(F, F.sub(F.mul(b, b), F.scale(c, 4)))
        if r is None:
            return [list(f)]
        out = [[F.scale(F.add(b, s), Fraction(1, 2)), F.one()]
               for s in (r, F.neg(r))]
    else:
        return _norm_factors(F, f)
    return sorted(out, key=lambda h: flatten_poly(F, h))


def _norm_factors(F, f):
    """_factor_squarefree over the extension F by norm descent alone."""
    descent = _squarefree_norm(F, f)
    if descent is None:
        return [list(f)]
    shift, g, norm = descent
    sub_factors = _factor_squarefree(F.base, norm)
    # the norm of a factor of f divides the norm of f, so an irreducible
    # norm leaves f irreducible (Trager 1976)
    if len(sub_factors) == 1:
        return [list(f)]
    # each factor of the norm is the norm of one factor of g (Trager 1976):
    # a gcd finds each but the last, which is what remains of g
    found = []
    rest = g
    for nj in sub_factors[:-1]:
        common = _gp_gcd(F, rest, [F.from_base(c) for c in nj])
        rest, remainder = _gp_divmod(F, rest, common)
        if len(common) < 2 or remainder:
            raise ArithmeticError("norm descent lost factors")
        found.append(common)
    if len(rest) < 2:
        raise ArithmeticError("norm descent lost factors")
    unshift = F.neg(shift)
    out = [_gp_monic(F, _gp_taylor_shift(F, h, unshift))
           for h in found + [rest]]
    out.sort(key=lambda h: flatten_poly(F, h))
    return out


def _squarefree_norm(F, f):
    """The first half of norm descent, for a monic squarefree f of degree
    at least 2 over the extension F: None when the screen primes prove f
    irreducible, else (shift, g, norm) with g(x) = f(x + shift) and norm
    its norm to F.base, monic and squarefree.

    With n = deg(f)^2 d (d - 1), d = [F : F.base], the first of
    _shifted_norms certified squarefree at a screen prime within the first
    min(n + 1, largest screen prime) is taken; only when there is none does
    an exact gcd decide, on the first n/2 + 1, reusing those norms."""
    deg = len(f) - 1
    B = F.base
    # The descent ends in a rational norm of degree deg [F : Q]; refuse
    # before computing any norm if it is too big.
    _check_field_degree(F, deg, "norm descent")
    if _certified_irreducible(F, f):
        return None
    maps = [(p, basis) for p, basis, _ in F._residue_maps]
    # The norm of f(x - k alpha) is the product of the squarefree
    # f_j(x - k alpha_j) over the conjugates alpha_j of alpha, whose roots
    # a + k alpha_i, b + k alpha_j, i != j, meet at one k at most: at most
    # n/2 shifts give a norm that is not squarefree (Trager 1976).  At a
    # screen prime p where f is p-integral, the norm's image is the product
    # of the f_r(x - k r) over the roots r of the top modulus's image: it
    # depends on k mod p only and, where any k passes, fails only where
    # roots for r != r' meet, at most n residues.  The first m shifts are
    # consecutive integers, distinct mod p for m <= p and every residue for
    # m >= p, so one of the first min(n + 1, p) passes at p if any does.
    n = deg * deg * F.degree * (F.degree - 1)
    descents = _shifted_norms(F, f)
    walked = []
    for descent in islice(descents, min(n + 1, maps[-1][0]) if maps else 0):
        if _certified_squarefree(B, descent[2], maps):
            return descent
        walked.append(descent)
    for descent in islice(chain(walked, descents), n // 2 + 1):
        if _gp_squarefree(B, descent[2]):
            return descent
    raise ArithmeticError("no squarefree shift found for separable input")


def _shifted_norms(F, f):
    """(-k alpha, f(x - k alpha), its norm) for k = 0, 1, -1, 2, -2, ..."""
    for k in count():
        for s in (k, -k) if k else (0,):
            shift = F.scale(F.generator(), -s)
            g = _gp_taylor_shift(F, f, shift)
            yield shift, g, _norm_poly(F, g, (len(f) - 1) * F.degree)


def _check_field_degree(F, n: int, stage: str) -> None:
    """Raise a resource error naming the stage when n [F : Q], the degree of
    a field or norm about to be built, exceeds FIELD_DEGREE_CAP."""
    reached = n * F.absolute_degree
    if reached > FIELD_DEGREE_CAP:
        raise ResourceCapError(
            f"{stage}: field degree {reached} exceeds cap {FIELD_DEGREE_CAP}")


# ---------------------------------------------------------------------------
# Screen primes: squarefreeness and irreducibility modulo a prime.
#
# Let K be a field of the tower and R its power-basis elements whose
# denominators are prime to p.  When p divides no denominator of any level
# modulus, each level is monic over the ring below it, so R is a ring, and
# a root r_i mod p of each level modulus in turn (its coefficients mapped
# through the roots chosen below) defines a ring map phi: R -> F_p sending
# the i-th generator to r_i.  A monic f over R keeps its degree under phi,
# and phi(disc f) = disc phi(f): a squarefree phi(f) proves f squarefree.
# Norm descent certifies the norm of each shift so, under the map of the
# field below the top level, and an input is certified squarefree before
# any descent under the map of the whole field.
#
# Each r_i is a simple root, phi(m_i')(r_i) != 0.  Then P = ker phi is an
# unramified prime of degree 1 at which R is regular: localized at P, each
# level is a discrete valuation ring with uniformizer p, since
# m_i(y) = 0 = m_i(r) + (y - r)(m_i'(r) + (y - r)(...)) with the last factor
# a unit puts y - r in pR.  That ring is integrally closed, so it holds the
# coefficients of every monic factor over the field of a monic f over R, and
# phi extends to it.  A factorization f = g h therefore maps to
# phi(f) = phi(g) phi(h) with the same degrees: when phi(f) is squarefree,
# the degree of every divisor of f is a subset sum of the degrees of
# phi(f)'s irreducible factors, as over Q (Cohen, GTM 138, section 3.5).
# The same primes carry such a map of the whole field when the top
# modulus's image has a simple root too.  Each field keeps its maps, built
# from those of the field below (ExtensionField._residue_map).


def _root_mod(f: list, p: int):
    """A simple root in F_p of the monic f, or None: the first root of
    gcd(f, x^p - x), the product of f's linear factors, less those shared
    with f', as `_equal_degree_split` orders them.

    A quadratic x^2 + b x + c at odd p skips x^p: its roots are
    (-b +- s)/2 with s^2 = b^2 - 4c by Tonelli-Shanks, None when b^2 - 4c
    is zero or no square.  The split isolates x - r, with r the root
    returned, at its first probe x + k, k = 0, 1, ..., on which exactly
    one root has r + k a nonzero square; such a k exists, since the
    Legendre symbol of (k + r1)(k + r2) sums to -1 over F_p.
    """
    if len(f) == 3 and p > 2:
        c, b, _ = f
        half = (p - 1) // 2
        disc = (b * b - 4 * c) % p
        if pow(disc, half, p) != 1:
            return None
        s = _sqrt_mod(disc, p)
        # half + 1 = (p + 1)/2 is the inverse of 2
        roots = ((s - b) * (half + 1) % p, (-s - b) * (half + 1) % p)
        for k in count():
            first, second = (pow(r + k, half, p) == 1 for r in roots)
            if first != second:
                return roots[0] if first else roots[1]
    x = [0, 1]
    h = _mod_gcd(f, _mod_sub(_mod_pow_mod(x, p, f, p), x, p), p)
    repeated = _mod_gcd(h, _mod_deriv(f, p), p)
    if len(repeated) > 1:
        h = _mod_divmod(h, repeated, p)[0]
    return -_equal_degree_split(h, 1, p)[0][0] % p if len(h) > 1 else None


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p, by
    Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1)."""
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    x, b = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if b == 1:
        return x
    z = next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    y = pow(z, q, p)
    while b != 1:
        # b has order 2^m < 2^e; y has order 2^e
        m = next(m for m in count(1) if pow(b, 1 << m, p) == 1)
        t = pow(y, 1 << (e - m - 1), p)
        y, e = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def _map_mod(basis, nums, den: int, p: int):
    """phi(nums/den) for a power-basis vector, given phi on the basis; None
    if p divides den."""
    if den % p == 0:
        return None
    return sum(x * v for x, v in zip(nums, basis)) * pow(den, -1, p) % p


def _images(K, f, maps):
    """(p, phi(f)) for each (p, phi) of maps, phi given on the power basis
    of the field K that holds f's coefficients, where every coefficient of
    f is p-integral."""
    parts = [K.parts(c) for c in f]
    for p, basis in maps:
        if all(den % p for _, den in parts):
            yield p, [_map_mod(basis, nums, den, p) for nums, den in parts]


def _whole_maps(F) -> list:
    """(p, phi) at each screen prime of F where its top modulus has a
    simple root mod p, phi the map of the whole field through it."""
    return [(p, whole) for p, _, whole in F._residue_maps
            if whole is not None]


def _certified_irreducible(F, f) -> bool:
    """Whether the factor degrees of phi(f) at the screen primes leave the
    monic f no divisor degree but 0 and deg f, which proves f irreducible."""
    deg = len(f) - 1
    allowed = (1 << (deg + 1)) - 1
    for p, image in _images(F, f, _whole_maps(F)):
        if _squarefree_mod(image, p):
            allowed &= _divisor_degrees(_distinct_degree_parts(image, p))[0]
            if allowed == 1 | 1 << deg:
                return True
    return False


def _certified_squarefree(K, f, maps) -> bool:
    """Whether phi(f) is squarefree for some (p, phi) of maps, which proves
    the monic f over K squarefree, since phi(disc f) = disc phi(f)."""
    return any(_squarefree_mod(image, p) for p, image in _images(K, f, maps))


def _norm_poly(F, g, norm_deg):
    """Res_y(modulus(y), g(x) with the generator written as y), monic, for
    g over the extension F; the result is over F.base.

    Evaluation-interpolation over x: the modulus is monic, so the resultant
    at each integer node t is the norm of g(t) from F to F.base, and the
    interpolated polynomial is monic of degree norm_deg.
    """
    B = F.base
    nodes = []
    values = []
    t = 0
    while len(nodes) < norm_deg + 1:
        value = F.zero()
        for c in reversed(g):
            value = F.add(F.scale(value, t), c)
        values.append(F.norm(value))
        nodes.append(t)
        t = -t if t > 0 else -t + 1
    interp = _gp_interpolate(B, nodes, values)
    if len(interp) - 1 != norm_deg:
        raise ArithmeticError("norm interpolation degree mismatch")
    return _gp_monic(B, interp)


def _squarefree_parts(F, f):
    """Yun's algorithm over an arbitrary char-0 field."""
    out = []
    g = _gp_gcd(F, f, _gp_deriv(F, f))
    w = _gp_divmod(F, f, g)[0]
    i = 1
    while len(w) - 1 >= 1:
        y = _gp_gcd(F, w, g)
        piece = _gp_divmod(F, w, y)[0]
        if len(piece) - 1 >= 1:
            out.append((_gp_monic(F, piece), i))
        w = y
        g = _gp_divmod(F, g, y)[0]
        i += 1
    return out


def factor_over_tower(F, f) -> list[tuple[list, int]]:
    """Monic irreducible factors over the field F, with multiplicities.

    f may be a UniPoly over Q or a coefficient list of F's elements.
    The product of factor^multiplicity equals f up to a constant.  Over Q
    the factors are factor_over_q's, whose order is flatten_poly's.  Inside
    a polynomials.memo_scope each (field, f) is factored once; every call
    gets new lists.
    """
    key = f if isinstance(f, UniPoly) else tuple(f)
    answer = memoized(("factor_over_tower", F, key),
                      lambda: tuple((tuple(g), mult) for g, mult
                                    in _factor_over_tower(F, f)))
    return [(list(g), mult) for g, mult in answer]


def _factor_over_tower(F, f) -> list[tuple[list, int]]:
    g = _as_gpoly(F, f)
    if F.base is None:
        return [(list(h.coeffs), mult)
                for h, mult in factor_over_q(UniPoly.from_list(g))]
    if not g:
        raise InputError("cannot factor the zero polynomial")
    if len(g) - 1 < 1:
        return []
    g = _gp_monic(F, g)
    w = F._width
    if not any(any(nums[w:]) for nums, _ in g):
        return _factor_from_base(F, [F.base.from_parts(nums[:w], den)
                                     for nums, den in g])
    if _certified_squarefree(F, g, _whole_maps(F)):
        parts = [(g, 1)]
    else:
        parts = _squarefree_parts(F, g)
    result = []
    for part, mult in parts:
        for irr in _factor_squarefree(F, part):
            result.append((irr, mult))
    result.sort(key=lambda t: flatten_poly(F, t[0]))
    return result


def _factor_from_base(F, f) -> list[tuple[list, int]]:
    """The factors over F of a monic f over F.base, from its factors over
    F.base.  A root alpha of an irreducible factor g over B = F.base has
    deg g dividing [F(alpha) : B] = [F(alpha) : F] [F : B], so g stays
    irreducible over F when deg g is prime to [F : B]; only the other
    factors descend.  gcd(f, f') is the same over every field, so each
    factor over F keeps its multiplicity over B."""
    result = []
    for g, mult in factor_over_tower(F.base, f):
        lifted = [F.from_base(c) for c in g]
        factors = ([lifted] if gcd(len(g) - 1, F.degree) == 1
                   else _factor_squarefree(F, lifted))
        result.extend((irr, mult) for irr in factors)
    result.sort(key=lambda t: flatten_poly(F, t[0]))
    return result


def extend(F, g):
    """F with one more level; g must be monic irreducible over F."""
    gp = _as_gpoly(F, g)
    if len(gp) - 1 < 2:
        raise InputError("extension degree must be at least 2")
    if not F.is_zero(F.sub(gp[-1], F.one())):
        raise InputError("extension polynomial must be monic")
    facs = factor_over_tower(F, gp)
    if len(facs) != 1 or facs[0][1] != 1:
        raise ReducibleExtensionError(
            "extension polynomial is reducible over the tower",
            factors=facs,
        )
    return _interned(F, tuple(gp))


def _quadratic_step(base: str, D):
    """The tagged base field with a root s of x^2 - D adjoined, for a D
    that is no square there (see _is_square)."""
    below = base_field(base)
    return _interned(below, tuple(lift_to_field(below, UniPoly.of(-D, 0, 1))))


def _pair_cubic(K, cubic) -> list:
    """The coefficients a + b*s over K, whose generator is s, of a
    polynomial given as ascending rational (a, b) pairs."""
    s = K.generator()
    return [K.add(K.from_fraction(a), K.scale(s, b)) for a, b in cubic]


def _conjugate(K, g):
    """The monic irreducible g over the quadratic step K with s replaced by
    -s, an automorphism of K; so it stays irreducible, and is recorded as
    its own factoring in the memo scope."""
    h = tuple(K.from_coords([a, K.base.neg(b)]) for a, b in map(K.coords, g))
    memoized(("factor_over_tower", K, h), lambda: ((h, 1),))
    return list(h)


# ---------------------------------------------------------------------------
# Galois groups of cubics and quartics (Kappe-Warren 1989; Cohen GTM 138
# §6.3).  The discriminant and the resolvent use only mul, add and scale,
# so they run over Q (RATIONAL) as over any tower field.


def _sum(F, terms):
    acc = F.zero()
    for t in terms:
        acc = F.add(acc, t)
    return acc


def _cubic_discriminant(F, h):
    """Discriminant of the monic cubic h = x^3 + p x^2 + q x + s over F:
    p^2 q^2 - 4 q^3 - 4 p^3 s - 27 s^2 + 18 p q s."""
    s, q, p = h[0], h[1], h[2]
    pq = F.mul(p, q)
    return _sum(F, (F.mul(pq, pq),
                    F.scale(F.mul(F.mul(q, q), q), -4),
                    F.scale(F.mul(F.mul(F.mul(p, p), p), s), -4),
                    F.scale(F.mul(s, s), -27),
                    F.scale(F.mul(pq, s), 18)))


def _quartic_resolvent(F, h):
    """The resolvent cubic x^3 - b x^2 + (ac - 4d) x - (a^2 d - 4bd + c^2)
    of the monic quartic h = x^4 + a x^3 + b x^2 + c x + d over F, whose
    roots are r1 r2 + r3 r4 and its conjugates; it has h's discriminant."""
    d, c, b, a = h[0], h[1], h[2], h[3]
    return [_sum(F, (F.scale(F.mul(F.mul(a, a), d), -1),
                     F.scale(F.mul(b, d), 4),
                     F.scale(F.mul(c, c), -1))),
            F.add(F.mul(a, c), F.scale(d, -4)),
            F.scale(b, -1),
            F.one()]


def _is_square(F, delta) -> bool:
    """Whether delta is a square in the field F."""
    return _square_root(F, delta) is not None


def _square_root(F, delta):
    """A square root of delta in the field F, or None when delta is no
    square there.

    The root descends the tower (Borodin, Fagin, Hopcroft and Tompa 1985)
    to B = F.base.  Over Q the numerator and denominator are tested.  A
    delta in B that is a square there is one in F, and an odd-degree level
    adds no other.  A level y^2 + b y + c makes F = B(w), w = 2y + b,
    w^2 = e = b^2 - 4c, and (a + q w)^2 = a^2 + e q^2 + 2 a q w: any other
    delta in B has the root sqrt(delta e) w / e, and delta = u + v w with
    v nonzero the root a + (v / 2a) w, when u^2 - e v^2 = t^2 and
    a^2 = (u + t) / 2 for t of either sign and a nonzero a in B.  At any
    other level delta is no square unless its norm to B is one, and then
    one norm descent factors x^2 - delta over F: a linear factor gives the
    root, and none gives None.
    """
    B = F.base
    if B is None:
        num, den = isqrt(max(delta.numerator, 0)), isqrt(delta.denominator)
        exact = num * num == delta.numerator and den * den == delta.denominator
        return Fraction(num, den) if exact else None
    if F.is_zero(delta):
        return delta
    low, *high = F.coords(delta)
    below = all(B.is_zero(c) for c in high)
    if below:
        r = _square_root(B, low)
        if r is not None or F.degree % 2:
            return r if r is None else F.from_base(r)
    if F.degree == 2:
        c, b, _ = F.modulus
        e = B.sub(B.mul(b, b), B.scale(c, 4))
        if below:
            r = _square_root(B, B.mul(low, e))
            if r is None:
                return None
            a, q = B.zero(), B.mul(r, B.inv(e))
        else:
            v = B.scale(high[0], Fraction(1, 2))
            u = B.sub(low, B.mul(b, v))
            t = _square_root(B, B.sub(B.mul(u, u), B.mul(e, B.mul(v, v))))
            if t is None:
                return None
            for s in (t, B.neg(t)):
                half = B.scale(B.add(u, s), Fraction(1, 2))
                a = None if B.is_zero(half) else _square_root(B, half)
                if a is not None:
                    break
            if a is None:
                return None
            q = B.mul(v, B.inv(B.scale(a, 2)))
        # a + q w = (a + q b) + 2 q y
        return F.from_coords([B.add(a, B.mul(q, b)), B.scale(q, 2)])
    if not _is_square(B, F.norm(delta)):
        return None
    factors = _norm_factors(F, [F.neg(delta), F.zero(), F.one()])
    return F.neg(factors[0][0]) if len(factors) == 2 else None


def _has_root(F, h, degree: int = 1) -> bool:
    """Whether the monic squarefree h of degree at least 2 has a factor of
    the given degree over F, by default a root.  Over an extension, its
    norm to F.base, squarefree after a shift, has one factor of degree
    deg(g) [F : F.base] for each factor g of h (Trager 1976), so the
    question descends to Q with no gcd pulling a factor back."""
    if F.base is None:
        return any(g.degree == degree for g in
                   _factor_squarefree_over_q(UniPoly.from_list(h)))
    descent = _squarefree_norm(F, h)
    if descent is None:
        return len(h) - 1 == degree
    return _has_root(F.base, descent[2], degree * F.degree)


def _galois_class(F, h):
    """Gal(h) over the field K = F, for a monic irreducible h over K.

    A cubic is "C3" when its discriminant is a square in K, else "S3".  A
    quartic follows Kappe-Warren on its resolvent cubic R over K: no root
    in K gives "A4/S4", three give "V4"; with exactly one root r, the
    discriminant D of h is not a square, and the group is "C4" when
    x^2 - r x + d and x^2 + a x + (b - r) both split over K(sqrt D), else
    "D4".  Their discriminants multiply to a square,
    (r^2 - 4d)(a^2 - 4(b - r)) = (a r - 2c)^2 since R(r) = 0, and are not
    both zero, as h is separable; so one nonzero e of the two decides.
    Other degrees give None.  A quintic's irreducible quartic cofactor,
    never D4 or V4, is settled by _stabiliser_class instead.
    """
    if len(h) - 1 == 3:
        return "C3" if _is_square(F, _cubic_discriminant(F, h)) else "S3"
    if len(h) - 1 != 4:
        return None
    resolvent = _quartic_resolvent(F, h)
    roots = [F.neg(g[0]) for g, _ in factor_over_tower(F, resolvent)
             if len(g) == 2]
    if not roots:
        return "A4/S4"
    if len(roots) == 3:
        return "V4"
    r = roots[0]
    D = _cubic_discriminant(F, resolvent)
    d, b, a = h[0], h[2], h[3]
    e = F.add(F.mul(r, r), F.scale(d, -4))
    if F.is_zero(e):
        e = F.add(F.mul(a, a), F.scale(F.sub(b, r), -4))
    # a quadratic of nonzero discriminant e splits over K(sqrt D) when
    # e = (u + v sqrt D)^2 with u v = 0: when e D or e is a square in K
    if _is_square(F, F.mul(e, D)) or _is_square(F, e):
        return "C4"
    return "D4"


def _stabiliser_class(F, h):
    """Gal(h) over the extension F, for h the irreducible quartic cofactor
    of a quintic over F.base, whose group is then 2-transitive (F20, A5 or
    S5) with root stabiliser C4, A4 or S4.  Only C4 lies in a D4, so h is
    "C4" exactly when its resolvent cubic has a root in F.  Otherwise it
    is "A4/S4".  The root test is _pentagon_root for a quintic with
    rational integer coefficients, else the norm test _has_root."""
    resolvent = _quartic_resolvent(F, h)
    parts = [F.base.parts(c) for c in F.modulus]
    if any(den != 1 or any(nums[1:]) for nums, den in parts):
        found = _has_root(F, resolvent)
    else:
        found = _pentagon_root(F, [nums[0] for nums, _ in parts], resolvent)
    return "C4" if found else "A4/S4"


# The six Sylow 5-subgroups of S5 as pentagons on root indices: each is
# the one 5-cycle of its subgroup that takes 0 to 1.
_PENTAGONS = ((0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (0, 1, 3, 2, 4),
              (0, 1, 3, 4, 2), (0, 1, 4, 2, 3), (0, 1, 4, 3, 2))


def _pentagon_root(F, f, resolvent) -> bool:
    """Whether the monic cubic resolvent has a root in F, whose top level
    is the quintic f with ascending rational integer coefficients.

    The root stabiliser is C4 exactly when Gal(f) over F.base is the
    Frobenius group of a pentagon on f's roots z_j.  The stabiliser of z_j
    then fixes the pairing of its neighbours and of the other two roots,
    so r = z_(j-1) z_(j+1) + z_(j-2) z_(j+2), indices along the pentagon,
    is the root, in Q(alpha) for the top generator alpha.  As an algebraic
    integer, r f'(alpha) lies in Z[alpha], with the coordinates of
    sum_j r_j f(x)/(x - z_j); for the right one of the six pentagons on
    f's roots in Z_p, their symmetric residues are exact (see
    _split_prime_roots).  A candidate s counts only when
    R(s/f'(alpha)) f'(alpha)^3 = 0 in F for the resolvent R, so none
    passing proves A4 or S4."""
    B = F.base
    z, m = _split_prime_roots(f)
    quotients = []  # f(x)/(x - z_j) mod m, descending, by synthetic division
    for zj in z:
        q = [1]
        for a in f[4:0:-1]:
            q.append((a + zj * q[-1]) % m)
        quotients.append(q)
    derivative = F.from_coords([B.from_fraction(i * a)
                                for i, a in enumerate(f) if i])
    for pentagon in _PENTAGONS:
        s = [0] * 5
        for i, j in enumerate(pentagon):
            r = (z[pentagon[i - 1]] * z[pentagon[(i + 1) % 5]]
                 + z[pentagon[i - 2]] * z[pentagon[(i + 2) % 5]])
            s = [x + r * y for x, y in zip(s, quotients[j])]
        s = F.from_coords([B.from_fraction(_symmetric(x, m))
                           for x in reversed(s)])
        acc, power = F.one(), F.one()
        for c in resolvent[-2::-1]:
            power = F.mul(power, derivative)
            acc = F.add(F.mul(acc, s), F.mul(c, power))
        if F.is_zero(acc):
            return True
    return False


def _split_prime_roots(f):
    """(roots mod m, m): the roots in Z_p of the monic quintic f, given by
    its ascending integer coefficients, mod m = p^(2^k) above 40 B^6 for
    B = 1 + max |a_i|, at the least odd prime p with x^p = x mod (f, p).
    Then f mod p divides x^p - x, which is squarefree, so it splits into
    distinct linears whose roots lift by Newton's method.  Each root has
    |z| < B (Cauchy), so |r_j| < 2 B^2, f(x)/(x - z_j) has coefficients
    below 2 B^4 by synthetic division, and every coordinate of
    sum_j r_j f(x)/(x - z_j) is below 20 B^6: its symmetric residue is exact.

    The scan tries only primes p at which disc f is a nonzero square: by
    Stickelberger, f mod p squarefree with r irreducible factors has
    (disc f / p) = (-1)^(5 - r), which is 1 when f splits into linears.
    """
    disc = int(discriminant(UniPoly.from_list(f)))
    p = 3
    while (pow(disc % p, (p - 1) // 2, p) != 1
           or _mod_pow_mod([0, 1], p, f, p) != [0, 1]):
        p = next_odd_prime(p)
    roots = [-h[0] % p for h in _equal_degree_split([a % p for a in f], 1, p)]
    return _newton_lift(f, roots, p, 40 * (1 + max(map(abs, f))) ** 6)


# Groups whose root stabilisers are transitive on the other roots, so the
# cofactor h/(x - theta) stays irreducible over K(theta), and groups of
# order deg h, so K(theta) is the splitting field and the cofactor splits.
_COFACTOR_IRREDUCIBLE = frozenset({"S3", "A4/S4"})
_COFACTOR_SPLITS = frozenset({"C3", "V4", "C4"})


# ---------------------------------------------------------------------------
# Splitting towers.


def splitting_tower(f, tower=RATIONAL):
    """The least field over the given one where f splits into linears.

    Repeatedly extends by a largest-degree irreducible factor (ties broken
    by coefficient order) until every root lies in the tower.  Each adjoined
    generator is divided off synthetically, so later stages only refactor
    cofactors of strictly smaller degree, never f itself.  When the adjoined
    factor h is a cubic or quartic over the field K below, its cofactor is
    settled from Gal(h) over K instead (see _galois_class), through norms
    of the resolvent and of x^2 - delta over K rather than of the cofactor
    over K(theta): it stays irreducible for S3, A4 and S4, and splits into
    linears for C3, V4 and C4.  A D4 cofactor is a linear times an
    irreducible quadratic, which the general refactoring finds.  A
    quintic's cofactor irreducible over K(theta) is a quartic whose group
    is C4, A4 or S4, told apart by one root test of its resolvent cubic
    (see _stabiliser_class), with no square test.  Raises a
    resource error when the absolute degree would exceed
    FIELD_DEGREE_CAP.
    """
    F = tower
    facs = factor_over_tower(F, f)
    if not facs:
        raise InputError("cannot split a constant polynomial")
    if any(mult > 1 for _, mult in facs):
        raise InputError("splitting tower requires a squarefree input")
    # invariant: pending holds the nonlinear irreducible factors of f over
    # F, as coefficient lists over F
    pending = [g for g, _ in facs if len(g) - 1 >= 2]
    stabiliser = None
    while pending:
        pending.sort(key=lambda h: (-(len(h) - 1), flatten_poly(F, h)))
        chosen = pending.pop(0)
        _check_field_degree(F, len(chosen) - 1, "splitting tower")
        group = (_stabiliser_class(F, chosen) if chosen is stabiliser
                 else _galois_class(F, chosen))
        F = _interned(F, tuple(chosen))
        refactor = [[F.from_base(c) for c in h] for h in pending]
        lifted = [F.from_base(c) for c in chosen]
        cofactor, rem = _gp_divmod(F, lifted, [F.neg(F.generator()), F.one()])
        if rem:
            raise ArithmeticError(
                "adjoined generator is not a root of its minimal polynomial"
            )
        pending = []
        stabiliser = None
        if group in _COFACTOR_IRREDUCIBLE:
            pending.append(cofactor)
        elif group not in _COFACTOR_SPLITS and len(cofactor) - 1 >= 2:
            refactor.append(cofactor)
        for h in refactor:
            facs = factor_over_tower(F, h)
            if h is cofactor and len(h) == 5 and len(facs) == 1:
                stabiliser = facs[0][0]  # of a 2-transitive quintic
            pending.extend(irr for irr, _ in facs if len(irr) - 1 >= 2)
    return F


def splitting_degree(f, tower=RATIONAL) -> int:
    """Degree of the splitting tower over the given base field."""
    result = splitting_tower(f, tower)
    return result.absolute_degree // tower.absolute_degree


__all__ = [
    "FIELD_DEGREE_CAP",
    "FieldTower",
    "RationalField",
    "ExtensionField",
    "RATIONAL",
    "base_field",
    "field_chain",
    "lift_to_field",
    "factor_over_tower",
    "extend",
    "splitting_tower",
    "splitting_degree",
]
