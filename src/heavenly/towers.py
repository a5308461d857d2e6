"""Number fields as towers of explicit monic extensions of Q.

A tower is a sequence of levels; level i is a monic polynomial, irreducible
over the field generated by the levels below, stored as a tuple of that
field's elements in ascending degree order.  An element of Q is a Fraction.
An element of a field of height at least 1 is a pair (nums, den) in lowest
terms: a flat tuple of integers, one per power-basis element of the whole
tower, over one positive denominator.  Coordinate i*b + j, with b the
degree of the field below, belongs to the i-th power of the top generator
times the j-th basis element below, so the coefficients over the field
below are consecutive slices, and flatten lists nums/den as Fractions.
Products are integer convolutions reduced level by level; rational scalars
touch only nums and den.  Over a first level above Q, multiplication by a
is an integer matrix C over one scalar s, so the norm of a is det C / s^d
by Bareiss elimination; higher levels take norms, and every level takes
the symmetric functions of a's conjugates that inversion needs, from
traces by Newton's identities, because elimination over a tower would
invert at every pivot.

Factoring over a tower runs on norms: shift the variable by multiples of the
top generator until the resultant with the top minimal polynomial (the norm,
computed by evaluation and interpolation over the subfield) is squarefree,
factor that norm one level down recursively, and pull factors back up: the
factors of the norm are the norms of the factors over the field, one to
one (Trager 1976), so a gcd with the shifted polynomial finds each but the
last, and the last is what remains after dividing the others out.  The
shift is chosen modulo a prime p above the norm degrees: a root mod p of
each level modulus maps the subfield's p-integral elements to F_p, the
image of each candidate norm is interpolated there, and the first shift
whose image is squarefree is the one whose exact norm is computed, since
the norm is monic and a squarefree image proves it squarefree.  Only when
no shift in a small budget passes does the exact squarefree test decide.
When the norm is irreducible one level down, so is the polynomial, and no
gcd pulls it back.

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
cofactor has group C4, A4 or S4, and a root of its resolvent in K, read
off the degrees of the resolvent norm's factors, means C4.  The square
tests those groups rest on descend the tower while the element lies in
the field K' below the top level: an odd-degree level adjoins no square
root, and over a quadratic level K'(sqrt e) an element of K' is a square
exactly when it or its product with e is one in K'.  Any other element
is tested by factoring x^2 - delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count, islice
from math import gcd, isqrt, lcm

from .errors import InputError, ReducibleExtensionError, ResourceCapError
from .factorization import (
    _distinct_degree_parts,
    _divisor_degrees,
    _equal_degree_split,
    _mod_deriv,
    _mod_divmod,
    _mod_gcd,
    _mod_pow_mod,
    _mod_rem,
    _mod_sub,
    _squarefree_mod,
    _trim,
    factor_over_q,
)
from .integers import is_probable_prime
from .polynomials import UniPoly, _bareiss_det, memoized, poly_gcd

NORM_DEGREE_CAP = 192
SPLITTING_DEGREE_CAP = 512

# Norm descent screens its first _SCREEN_SHIFTS candidate shifts modulo
# each of up to _SCREEN_PRIMES primes in turn, found among the first
# _SCREEN_SCAN primes above _SCREEN_FLOOR; when none is certified there,
# the exact squarefree test decides.  The same primes certify irreducible
# and squarefree inputs before any descent; with none, every factoring over
# a tower takes the exact path.  The floor is the norm degree cap as set
# here, so a cap changed later changes no field's primes.
_SCREEN_PRIMES = 3
_SCREEN_SCAN = 64
_SCREEN_SHIFTS = 24
_SCREEN_FLOOR = NORM_DEGREE_CAP

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


class RationalField:
    """Field operations on Fraction values; ground of every tower."""

    degree = 1
    absolute_degree = 1
    base = None
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
        (basis, modulus, whole) with only the image of its basis."""
        return None, None, (1,)


RATIONAL = RationalField()


class ExtensionField:
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
        nums, den = self.base.parts(c)
        return (tuple(nums) + self._zero[0][self._width:], den)

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
        """(basis, modulus, whole): a ring map phi from the field below to
        F_p through simple roots of the level moduli mod p, as the images of
        its power basis, this level's modulus under phi, and phi extended to
        this field by a simple root of that image, or None when it has none.
        None when p divides a denominator of a level modulus or phi of the
        field below is not defined; computed once per prime."""
        if p in self._residue_map_at:
            return self._residue_map_at[p]
        B = self.base
        below = B._residue_map(p)
        out = None
        if below is not None and below[2] is not None:
            basis = below[2]
            modulus = tuple(_map_mod(basis, *B.parts(c), p)
                            for c in self.modulus)
            if None not in modulus:
                r = _root_mod(list(modulus), p)
                # coordinate i*b + j is the i-th power of the generator
                # times the j-th basis element below
                out = basis, modulus, None if r is None else tuple(
                    pow(r, i, p) * v % p for i in range(self.degree)
                    for v in basis)
        self._residue_map_at[p] = out
        return out

    @cached_property
    def _residue_maps(self) -> tuple:
        """Up to _SCREEN_PRIMES entries (p, basis, modulus, whole) of
        _residue_map, at the first primes above _SCREEN_FLOOR where it is
        defined, so F_p has a distinct node for every point a norm within
        the cap is interpolated on."""
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
    if len(rem) < len(g):
        return [], _gp_trim(F, rem)
    one = F.one()
    inv_lc = None if g[-1] == one else F.inv(g[-1])
    q = [F.zero() for _ in range(len(rem) - len(g) + 1)]
    for k in range(len(rem) - 1, len(g) - 2, -1):
        if F.is_zero(rem[k]):
            continue
        c = rem[k] if inv_lc is None else F.mul(rem[k], inv_lc)
        q[k - (len(g) - 1)] = c
        for j in range(len(g)):
            rem[k - (len(g) - 1) + j] = F.sub(
                rem[k - (len(g) - 1) + j], F.mul(c, g[j])
            )
    return _gp_trim(F, q), _gp_trim(F, rem)


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


@dataclass(frozen=True)
class FieldTower:
    """A number field as a tower of monic irreducible extension levels."""

    levels: tuple[tuple, ...] = ()

    @property
    def height(self) -> int:
        return len(self.levels)

    @property
    def absolute_degree(self) -> int:
        d = 1
        for lev in self.levels:
            d *= len(lev) - 1
        return d

    def level_degrees(self) -> list[int]:
        return [len(lev) - 1 for lev in self.levels]

    def extends(self, other: "FieldTower") -> bool:
        return self.levels[: other.height] == other.levels

    def __repr__(self) -> str:
        degs = "x".join(str(d) for d in self.level_degrees()) or "1"
        return f"FieldTower(degree={self.absolute_degree}, levels={degs})"


def base_field(tag: str) -> FieldTower:
    """The tower for a ground field tag: Q, Q(i), Q(sqrt2), or Q(sqrt-2)."""
    if not isinstance(tag, str) or tag not in BASE_FIELD_POLYS:
        known = ", ".join(sorted(BASE_FIELD_POLYS))
        raise InputError(f"unknown base field {tag!r}; expected one of {known}")
    poly = BASE_FIELD_POLYS[tag]
    if poly is None:
        return FieldTower(())
    return FieldTower((poly,))


@lru_cache(maxsize=256)
def field_chain(tower: FieldTower) -> tuple:
    """Fields from Q up to the tower's top, one per level; built once per
    tower, so each field's generator traces and residue maps are computed
    once."""
    if not tower.levels:
        return (RATIONAL,)
    below = field_chain(FieldTower(tower.levels[:-1]))
    return below + (ExtensionField(below[-1], tower.levels[-1]),)


def tower_field(tower: FieldTower):
    return field_chain(tower)[-1]


def lift_to_field(F, f: UniPoly) -> list:
    """A rational polynomial as a polynomial over the field F."""
    return [F.from_fraction(c) for c in f.coeffs]


def _embed_up(chain_from, chain_to, f):
    """Re-embed a polynomial over chain_to[len(chain_from)-1]'s subfield."""
    out = f
    for F in chain_to[len(chain_from):]:
        out = [F.from_base(c) for c in out]
    return out


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
    """Monic irreducible factors of a monic squarefree f over the field F."""
    deg = len(f) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [list(f)]
    if F.base is None:
        rational = UniPoly.from_list(f)
        return [list(g.coeffs) for g, _ in factor_over_q(rational)]
    descent = _norm_factors(F, f)
    # the norm of a factor of f divides the norm of f, so an irreducible
    # norm leaves f irreducible (Trager 1976)
    if descent is None or len(descent[2]) == 1:
        return [list(f)]
    shift, g, sub_factors = descent
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


def _norm_factors(F, f):
    """The first half of norm descent, for a monic squarefree f of degree
    at least 2 over the extension F: None when the screen primes prove f
    irreducible, else (shift, g, factors) with g(x) = f(x - shift), whose
    norm to F.base is squarefree, and factors that norm's monic
    irreducible factors over F.base."""
    deg = len(f) - 1
    B = F.base
    # The descent takes norms of degree deg times the level degrees, top
    # level first; refuse before computing any of them if one is too big.
    reached = deg
    level = F
    while level.base is not None:
        reached *= level.degree
        if reached > NORM_DEGREE_CAP:
            raise ResourceCapError(
                f"norm degree {reached} exceeds cap {NORM_DEGREE_CAP}"
            )
        level = level.base
    if _certified_irreducible(F, f):
        return None
    norm_deg = deg * F.degree
    alpha = F.generator()
    certified = _screened_shift(F, f, norm_deg)
    for k in _shift_values(200) if certified is None else [certified]:
        shift = F.scale(alpha, -k)
        g = _gp_taylor_shift(F, f, shift)  # g(x) = f(x - k*alpha)
        norm = _norm_poly(F, g, norm_deg)
        if certified is None and not _gp_squarefree(B, norm):
            continue
        return shift, g, _factor_squarefree(B, norm)
    raise ArithmeticError("no squarefree shift found for separable input")


def _shift_values(limit: int):
    yield 0
    for k in range(1, limit):
        yield k
        yield -k


# ---------------------------------------------------------------------------
# Screen primes: shifts, irreducibility and squarefreeness modulo a prime.
#
# Let B be the field below the top level, R its power-basis elements whose
# denominators are prime to p, and alpha a root of the top modulus m.  When
# p divides no denominator of any level modulus, each level is monic over
# the ring below it, so R is a ring, and a root r_i mod p of each level
# modulus in turn (its coefficients mapped through the roots chosen below)
# defines a ring map phi: R -> F_p sending the i-th generator to r_i.  For
# g(x) = f(x - k*alpha) with coefficients over R, the norm
# N = Res_y(m, g) is monic, so phi(N) = Res_y(phi(m), phi(g)) keeps its
# degree and phi(disc N) = disc phi(N): a squarefree phi(N) proves N
# squarefree.
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


def _whole_field_images(F, f):
    """(p, phi(f)) for each screen prime with a map phi of the whole field
    F under which f's coefficients are defined."""
    parts = [F.parts(c) for c in f]
    for p, _, _, whole in F._residue_maps:
        if whole is not None and all(den % p for _, den in parts):
            yield p, [_map_mod(whole, nums, den, p) for nums, den in parts]


def _certified_irreducible(F, f) -> bool:
    """Whether the factor degrees of phi(f) at the screen primes leave the
    monic f no divisor degree but 0 and deg f, which proves f irreducible."""
    deg = len(f) - 1
    allowed = (1 << (deg + 1)) - 1
    for p, image in _whole_field_images(F, f):
        if _squarefree_mod(image, p):
            allowed &= _divisor_degrees(_distinct_degree_parts(image, p))[0]
            if allowed == 1 | 1 << deg:
                return True
    return False


def _certified_squarefree(F, f) -> bool:
    """Whether phi(f) is squarefree at some screen prime, which proves the
    monic f squarefree, since phi(disc f) = disc phi(f)."""
    return any(_squarefree_mod(image, p)
               for p, image in _whole_field_images(F, f))


def _screened_shift(F, f, norm_deg):
    """The first of the first _SCREEN_SHIFTS shifts k whose norm, for
    g(x) = f(x - k*alpha), a screen prime above norm_deg proves
    squarefree, or None."""
    b = F.base.absolute_degree
    for p, basis, modulus, _ in F._residue_maps:
        parts = [F.parts(c) for c in f]
        if p <= norm_deg or any(den % p == 0 for _, den in parts):
            continue
        # phi of each coefficient of f, a polynomial in the top generator
        image = [[_map_mod(basis, nums[i * b:(i + 1) * b], den, p)
                  for i in range(F.degree)] for nums, den in parts]
        for k in islice(_shift_values(200), _SCREEN_SHIFTS):
            if _screen_norm(p, modulus, image, k, norm_deg):
                return k
    return None


def _resultant_mod(a: list, b: list, p: int) -> int:
    """Res(a, b) over F_p by the Euclidean recurrence
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)."""
    acc = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db < 0:
            return 0
        if db == 0:
            return acc * pow(b[0], da, p) % p
        r = _mod_rem(a, b, p)
        if not r:
            return 0
        acc = acc * pow(b[-1], da - len(r) + 1, p) % p
        if da * db % 2:
            acc = -acc
        a, b = b, r


def _interpolate_mod(values: list, p: int) -> list:
    """The polynomial over F_p of degree below len(values) taking
    values[t] at t = 0, 1, ..., in Newton form."""
    table = list(values)
    dd = [table[0]]
    for level in range(1, len(values)):
        inv = pow(level, -1, p)
        table = [(hi - lo) * inv % p for lo, hi in zip(table, table[1:])]
        dd.append(table[0])
    coeffs: list = []
    for k in range(len(dd) - 1, -1, -1):
        nxt = [0] + coeffs
        for i, c in enumerate(coeffs):
            nxt[i] -= k * c
        nxt[0] += dd[k]
        coeffs = [c % p for c in nxt]
    return _trim(coeffs)


def _screen_norm(p, modulus, image, k, norm_deg) -> bool:
    """True when phi(N) is squarefree for N the norm of f(x - k*alpha),
    which proves N squarefree; phi(N) is interpolated from its values
    Res_y(phi(m), phi(f)(t - k*y)) at t = 0, ..., norm_deg."""
    n = len(modulus) - 1
    values = []
    for t in range(norm_deg + 1):
        # Horner in (F_p[y] / phi(m))[x]: acc * (t - k*y) + c
        acc = [0] * n
        for c in reversed(image):
            top = acc[-1] * k
            acc = [t * acc[0] + c[0]] + [
                t * acc[i] - k * acc[i - 1] + c[i] for i in range(1, n)]
            if top:
                acc = [(x + top * m) % p for x, m in zip(acc, modulus)]
            else:
                acc = [x % p for x in acc]
        values.append(_resultant_mod(list(modulus), _trim(acc), p))
    norm = _interpolate_mod(values, p)
    return len(norm) == norm_deg + 1 and _squarefree_mod(norm, p)


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
    d = _gp_deriv(F, f)
    g = _gp_gcd(F, f, d)
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


def factor_over_tower(tower: FieldTower, f) -> list[tuple[list, int]]:
    """Monic irreducible factors over the tower field, with multiplicities.

    f may be a UniPoly over Q or a coefficient list of tower elements.
    The product of factor^multiplicity equals f up to a constant.  Over Q
    the factors are factor_over_q's, whose order is flatten_poly's.  Inside
    a polynomials.memo_scope each (tower levels, f) is factored once; every
    call gets new lists.
    """
    key = f if isinstance(f, UniPoly) else tuple(f)
    answer = memoized(("factor_over_tower", tower.levels, key),
                      lambda: tuple((tuple(g), mult) for g, mult
                                    in _factor_over_tower(tower, f)))
    return [(list(g), mult) for g, mult in answer]


def _factor_over_tower(tower: FieldTower, f) -> list[tuple[list, int]]:
    F = tower_field(tower)
    g = _as_gpoly(F, f)
    if not tower.levels:
        return [(list(h.coeffs), mult)
                for h, mult in factor_over_q(UniPoly.from_list(g))]
    if not g:
        raise InputError("cannot factor the zero polynomial")
    if len(g) - 1 < 1:
        return []
    g = _gp_monic(F, g)
    if _certified_squarefree(F, g):
        parts = [(g, 1)]
    else:
        parts = _squarefree_parts(F, g)
    result = []
    for part, mult in parts:
        for irr in _factor_squarefree(F, part):
            result.append((irr, mult))
    result.sort(key=lambda t: flatten_poly(F, t[0]))
    return result


def is_irreducible_over_tower(tower: FieldTower, f) -> bool:
    facs = factor_over_tower(tower, f)
    return len(facs) == 1 and facs[0][1] == 1


def extend(tower: FieldTower, g) -> FieldTower:
    """One more level; g must be monic irreducible over the tower."""
    F = tower_field(tower)
    gp = _as_gpoly(F, g)
    if len(gp) - 1 < 2:
        raise InputError("extension degree must be at least 2")
    if not F.is_zero(F.sub(gp[-1], F.one())):
        raise InputError("extension polynomial must be monic")
    facs = factor_over_tower(tower, gp)
    if len(facs) != 1 or facs[0][1] != 1:
        raise ReducibleExtensionError(
            "extension polynomial is reducible over the tower",
            factors=facs,
        )
    return FieldTower(tower.levels + (tuple(gp),))


def _extend_unchecked(tower: FieldTower, gp: list) -> FieldTower:
    return FieldTower(tower.levels + (tuple(gp),))


def _quadratic_step(base: str, D) -> FieldTower:
    """The tagged base field with a root s of x^2 - D adjoined, for a D
    that is no square there (see _is_square)."""
    below = base_field(base)
    return _extend_unchecked(below, lift_to_field(tower_field(below),
                                                  UniPoly.of(-D, 0, 1)))


def _pair_cubic(K, cubic, sign: int = 1) -> list:
    """The coefficients a + sign*b*s over K, whose generator is s, of a
    polynomial given as ascending rational (a, b) pairs."""
    s = K.generator()
    return [K.add(K.from_fraction(a), K.scale(s, sign * b)) for a, b in cubic]


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


def _is_square(tower: FieldTower, delta) -> bool:
    """Whether delta is a square in the tower field K.

    A delta in the field K' below the top level descends: a top level of
    odd degree adjoins no square root, so delta is a square in K exactly
    when it is one in K'; a top level y^2 + b y + c makes K = K'(sqrt e),
    e = b^2 - 4c, and (u + v sqrt e)^2 lies in K' only when u v = 0, so
    delta is a square in K exactly when delta or delta e is one in K'.  Over
    Q the numerator and denominator are tested.  Any other delta is a
    square exactly when x^2 - delta factors over K, through norms of degree
    2 [K:Q] at most.
    """
    if not tower.levels:
        return delta >= 0 and all(isqrt(n) ** 2 == n for n in (
            delta.numerator, delta.denominator))
    F = tower_field(tower)
    if F.is_zero(delta):
        return True
    B = F.base
    low, *high = F.coords(delta)
    if all(B.is_zero(c) for c in high):
        below = FieldTower(tower.levels[:-1])
        if F.degree % 2:
            return _is_square(below, low)
        if F.degree == 2:
            c, b, _ = F.modulus
            e = B.sub(B.mul(b, b), B.scale(c, 4))
            return _is_square(below, low) or _is_square(below, B.mul(low, e))
    return len(factor_over_tower(tower, [F.neg(delta), F.zero(),
                                         F.one()])) == 2


def _galois_class(tower: FieldTower, h):
    """Gal(h) over the tower field K, for a monic irreducible h over K.

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
    F = tower_field(tower)
    if len(h) - 1 == 3:
        return "C3" if _is_square(tower, _cubic_discriminant(F, h)) else "S3"
    if len(h) - 1 != 4:
        return None
    resolvent = _quartic_resolvent(F, h)
    roots = [F.neg(g[0]) for g, _ in factor_over_tower(tower, resolvent)
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
    if _is_square(tower, F.mul(e, D)) or _is_square(tower, e):
        return "C4"
    return "D4"


def _stabiliser_class(F, h):
    """Gal(h) over the extension F, for h the irreducible quartic cofactor
    of a quintic over F.base, whose group is then 2-transitive (F20, A5 or
    S5) with root stabiliser C4, A4 or S4.  Only C4 lies in a D4, so h is
    "C4" exactly when its resolvent cubic has a root in F: when the
    resolvent's norm to F.base has a factor of degree [F : F.base] (Trager
    1976).  Otherwise it is "A4/S4"."""
    descent = _norm_factors(F, _quartic_resolvent(F, h))
    if descent and any(len(n) - 1 == F.degree for n in descent[2]):
        return "C4"
    return "A4/S4"


# Groups whose root stabilisers are transitive on the other roots, so the
# cofactor h/(x - theta) stays irreducible over K(theta), and groups of
# order deg h, so K(theta) is the splitting field and the cofactor splits.
_COFACTOR_IRREDUCIBLE = frozenset({"S3", "A4/S4"})
_COFACTOR_SPLITS = frozenset({"C3", "V4", "C4"})


# ---------------------------------------------------------------------------
# Splitting towers.


def splitting_tower(f, tower: FieldTower = FieldTower()) -> FieldTower:
    """The minimal tower over the given one where f splits into linears.

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
    resource error carrying the partial tower when the absolute degree
    would exceed SPLITTING_DEGREE_CAP.
    """
    current = tower
    facs = factor_over_tower(current, f)
    if not facs:
        raise InputError("cannot split a constant polynomial")
    if any(mult > 1 for _, mult in facs):
        raise InputError("splitting tower requires a squarefree input")
    # invariant: pending holds the nonlinear irreducible factors of f over
    # the current tower, as coefficient lists over its top field
    pending = [g for g, _ in facs if len(g) - 1 >= 2]
    stabiliser = None
    while pending:
        F = tower_field(current)
        pending.sort(key=lambda h: (-(len(h) - 1), flatten_poly(F, h)))
        chosen = pending.pop(0)
        new_degree = current.absolute_degree * (len(chosen) - 1)
        if new_degree > SPLITTING_DEGREE_CAP:
            raise ResourceCapError(
                f"splitting tower degree {new_degree} exceeds cap "
                f"{SPLITTING_DEGREE_CAP}", partial=current,
            )
        group = (_stabiliser_class(F, chosen) if chosen is stabiliser
                 else _galois_class(current, chosen))
        current = _extend_unchecked(current, chosen)
        NF = tower_field(current)
        refactor = []
        for h in pending:
            refactor.append([NF.from_base(c) for c in h])
        lifted = [NF.from_base(c) for c in chosen]
        cofactor, rem = _gp_divmod(
            NF, lifted, [NF.neg(NF.generator()), NF.one()]
        )
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
            facs = factor_over_tower(current, h)
            if h is cofactor and len(h) == 5 and len(facs) == 1:
                stabiliser = facs[0][0]  # of a 2-transitive quintic
            pending.extend(irr for irr, _ in facs if len(irr) - 1 >= 2)
    return current


def splitting_degree(f, tower: FieldTower = FieldTower()) -> int:
    """Degree of the splitting tower over the given base tower."""
    result = splitting_tower(f, tower)
    return result.absolute_degree // tower.absolute_degree


__all__ = [
    "NORM_DEGREE_CAP",
    "SPLITTING_DEGREE_CAP",
    "FieldTower",
    "RationalField",
    "ExtensionField",
    "RATIONAL",
    "base_field",
    "field_chain",
    "tower_field",
    "lift_to_field",
    "factor_over_tower",
    "is_irreducible_over_tower",
    "extend",
    "splitting_tower",
    "splitting_degree",
]
