"""Exact univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored ascending (index = power), with
no trailing zeros; the zero polynomial is the empty tuple.  All operations
are exact and allocation-light; nothing here ever touches floating point.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm

from .errors import DigitLimitError, InputError
from .integers import next_odd_prime
from .records import Record

RatLike = int | Fraction


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise InputError(f"coefficient {c!r} is not an exact rational")


class UniPoly(Record):
    """Univariate polynomial over Q, ascending coefficients, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @staticmethod
    def of(*coeffs: RatLike) -> "UniPoly":
        """Build from ascending coefficients, e.g. of(-1, 0, 1) = x^2 - 1."""
        return UniPoly.from_list(list(coeffs))

    @staticmethod
    def from_list(coeffs: list[RatLike]) -> "UniPoly":
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly.of(1)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_list(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_list(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly.from_list(out)

    def scale(self, c: RatLike) -> "UniPoly":
        c = _as_fraction(c)
        if c == 0:
            return UniPoly.zero()
        return UniPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise InputError("negative polynomial power")
        out = UniPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        return self.divmod(other)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Quotient and remainder; exact division over Q."""
        if other.is_zero:
            raise InputError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lc = other.leading_coefficient
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / lc
            q[k - d] = f
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= f * b
        return UniPoly.from_list(q), UniPoly.from_list(rem[:d] if d else [])

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly.from_list(
            [i * c for i, c in enumerate(self.coeffs)][1:] or []
        )

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise InputError("cannot normalize the zero polynomial")
        lc = self.leading_coefficient
        return self if lc == 1 else self.scale(1 / lc)

    def integer_coefficients(self) -> list[int]:
        """Coefficients as ints; error if any is non-integral."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise InputError(f"{self} has non-integral coefficient {c}")
            out.append(c.numerator)
        return out

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"UniPoly({format_polynomial(self)})"


def _primitive_ints(f: UniPoly) -> list[int]:
    """Integer coefficients of f cleared of content, positive leading."""
    den = lcm(*[c.denominator for c in f.coeffs])
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^k * (a mod b) over Z, for some k >= 0; exact integers."""
    r = list(a)
    db = len(b) - 1
    lcb = b[-1]
    while len(r) - 1 >= db:
        shift = len(r) - 1 - db
        top = r[-1]
        r = [lcb * c for c in r]
        for j, bc in enumerate(b):
            r[shift + j] -= top * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over Q; gcd(0, 0) = 0.

    Primitive pseudo-remainder sequence: contents are stripped after each
    step, keeping all arithmetic in integers of moderate size (a plain
    Euclidean loop over Q explodes fractionally on large inputs).
    """
    if f.is_zero:
        return g if g.is_zero else g.monic()
    if g.is_zero:
        return f.monic()
    a = _primitive_ints(f)
    b = _primitive_ints(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if r:
            cont = 0
            for c in r:
                cont = gcd(cont, c)
            if r[-1] < 0:
                cont = -cont
            r = [c // cont for c in r]
        a, b = b, r
    return UniPoly.from_list(a).monic()


def squarefree_part(f: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of f (f nonzero)."""
    if f.is_zero:
        raise InputError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.one()
    return (f // poly_gcd(f, f.derivative())).monic()


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination:
    each division by the previous pivot is exact (Bareiss 1968)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def resultant(f: UniPoly, g: UniPoly) -> Fraction:
    """Res(f, g), exact: with f = c F and g = d G for primitive integer F
    and G, c^(deg g) d^(deg f) times the Bareiss determinant of the
    Sylvester matrix of F and G, which is empty, so 1, for two constants."""
    if f.is_zero or g.is_zero:
        raise InputError("resultant requires nonzero polynomials")
    m, n = f.degree, g.degree
    a, b = _primitive_ints(f)[::-1], _primitive_ints(g)[::-1]
    rows = ([[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + b + [0] * (m - 1 - i) for i in range(m)])
    return (_bareiss_det(rows) * (f.leading_coefficient / a[0]) ** n
            * (g.leading_coefficient / b[0]) ** m)


# The answers of the innermost memo_scope, keyed by function and exact
# input, or None outside every scope.
_MEMO: ContextVar[dict | None] = ContextVar("heavenly_memo", default=None)


@contextmanager
def memo_scope():
    """Keep each exact answer asked for inside the scope until it ends.

    Inside, discriminant, factorization.factor_over_q, its factoring of
    each monic squarefree integer part, and towers.factor_over_tower
    compute an answer once per exact input and then return the stored
    one; outside every scope they compute each time.  A scope starts
    empty and drops its answers on exit, so no answer, and no cap in force
    when it was computed, outlives the scope.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(key, compute):
    """compute(), or inside a memo_scope the answer stored under key.

    The answer is stored only when compute returns, so errors, resource
    caps among them, propagate on every call; it must be immutable, as
    every caller in the scope shares it.
    """
    memo = _MEMO.get()
    if memo is None:
        return compute()
    answer = memo.get(key, _MISSING)
    if answer is _MISSING:
        answer = memo[key] = compute()
    return answer


_MISSING = object()


def discriminant(f: UniPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), for deg f >= 1."""
    return memoized(("discriminant", f), lambda: _discriminant(f))


def _discriminant(f: UniPoly) -> Fraction:
    n = f.degree
    if n < 1:
        raise InputError("discriminant requires degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading_coefficient


def has_rational_root(f: UniPoly) -> bool:
    return bool(rational_roots(f))


def rational_roots(f: UniPoly) -> list[Fraction]:
    """All rational roots (without multiplicity), ascending: the integer
    roots of the monic integral form of f's squarefree part, divided by
    the scale of its roots."""
    if f.is_zero:
        raise InputError("rational roots of the zero polynomial")
    if f.degree < 1:
        return []
    g, scale = monic_integral_with_scale(squarefree_part(f))
    return [r / scale for r in integer_roots(g.integer_coefficients())]


def _horner(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _newton_lift(f: list[int], roots: list[int], p: int,
                 bound: int) -> tuple[list[int], int]:
    """(roots mod m, m) for the least m = p^(2^k) above bound: the simple
    roots mod p of the integer polynomial f, given by its ascending
    coefficients, Newton-lifted with the modulus squared at each step."""
    df = [i * c for i, c in enumerate(f)][1:]
    m = p
    while m <= bound:
        m *= m
        roots = [(r - _horner(f, r, m) * pow(_horner(df, r, m), -1, m)) % m
                 for r in roots]
    return roots, m


def integer_roots(f: list[int]) -> list[int]:
    """Integer roots, ascending, of a monic squarefree integer polynomial
    given by its ascending coefficients.

    At the smallest odd prime p at which every root of f mod p is simple,
    the roots mod p are found by evaluation and each is Newton-lifted to a
    modulus p^(2^k) above 2(1 + max |a_i|); the symmetric residues that
    are exact roots are kept.  Every integer root reduces to a simple root
    mod p, so it is the lift of one, and lies within the Cauchy bound
    1 + max |a_i|, so it equals that lift's symmetric residue.  f
    squarefree makes such a p exist: only primes dividing its
    discriminant give a repeated root.
    """
    df = [i * c for i, c in enumerate(f)][1:]
    p = 3
    while True:
        fp = [c % p for c in f]
        roots = [r for r in range(p) if _horner(fp, r, p) == 0]
        if all(_horner(df, r, p) for r in roots):
            break
        p = next_odd_prime(p)
    if not roots:
        return []
    roots, m = _newton_lift(f, roots, p, 2 * (1 + max(abs(c) for c in f)))
    out = []
    for r in roots:
        r = r - m if r > m // 2 else r
        acc = 0
        for c in reversed(f):
            acc = acc * r + c
        if acc == 0:
            out.append(r)
    return sorted(out)


def make_monic_integral(f: UniPoly) -> UniPoly:
    """The standard monic integral polynomial with the same splitting field.

    Clear denominators to get a primitive integral F with positive leading
    coefficient a, then take a^(n-1) * F(x/a): monic, integral, roots scaled
    by a.
    """
    return monic_integral_with_scale(f)[0]


def monic_integral_with_scale(f: UniPoly) -> tuple[UniPoly, Fraction]:
    """make_monic_integral plus the factor by which roots were scaled."""
    if f.is_zero:
        raise InputError("cannot normalize the zero polynomial")
    ints = _primitive_ints(f)
    return monic_rescale(ints), Fraction(ints[-1])


def monic_rescale(ints: list[int]) -> UniPoly:
    """a^(n-1) * F(x/a), monic and integral with F's roots scaled by a, for
    F of ascending integer coefficients ints, degree n and leading a."""
    a, n = ints[-1], len(ints) - 1
    return UniPoly.from_list(
        [c * a ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1])


# one term, matched whole; digits are ASCII only
_TERM_RE = re.compile(
    r"(?P<sign>-)?"
    r"(?:(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?(?P<star>\*)?)?"
    r"(?P<x>x(?:\^(?P<exp>[0-9]+))?)?"
)
# the largest exponent accepted, checked before the dense list is built;
# far above any degree the tools can factor or split
MAX_EXPONENT = 10_000


def parse_polynomial(text: str) -> UniPoly:
    """Parse 'x^4 - 1', '2*x^2 - 1', '1/2*x', ...; floats are rejected."""
    s = text.strip()
    if not s:
        raise InputError("empty polynomial")
    if "." in s:
        raise InputError(f"floating point is not accepted: {text!r}")
    s = s.replace(" ", "").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs: dict[int, Fraction] = {}
    for term in s.split("+"):
        m = _TERM_RE.fullmatch(term) if term else None
        if not m or (m.group("num") is None and m.group("x") is None):
            raise InputError(f"bad term {term!r} in {text!r}")
        if m.group("num") and m.group("x") and not m.group("star"):
            raise InputError(f"missing '*' between coefficient and x in {term!r}")
        if m.group("star") and not m.group("x"):
            raise InputError(f"dangling '*' in {term!r}")
        if m.group("num") is None:
            coef = Fraction(1)
        else:
            try:
                num, den = int(m.group("num")), int(m.group("den") or 1)
            except ValueError as exc:
                raise DigitLimitError(str(exc)) from None
            if not den:
                raise InputError(f"zero denominator in {term!r}")
            coef = Fraction(num, den)
        if m.group("sign"):
            coef = -coef
        digits = (m.group("exp") or "1") if m.group("x") else "0"
        # count digits first: int() refuses over 4300 of them
        if (len(digits.lstrip("0")) > len(str(MAX_EXPONENT))
                or int(digits) > MAX_EXPONENT):
            raise InputError(f"exponent in {term!r} exceeds {MAX_EXPONENT}")
        exp = int(digits)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
    n = max(coeffs) + 1
    return UniPoly.from_list([coeffs.get(i, Fraction(0)) for i in range(n)])


def format_polynomial(f: UniPoly) -> str:
    """Render in the same syntax parse_polynomial accepts."""
    if f.is_zero:
        return "0"
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coefficient(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def parse_quadratic_pair(text: str) -> tuple[Fraction, Fraction]:
    """(a, b) from an 'a+b*s' string over the quadratic generator s: a
    polynomial in s of degree at most 1, in parse_polynomial's grammar
    without exponents."""
    if not isinstance(text, str) or "x" in text or "^" in text:
        raise InputError(f"expected an 'a+b*s' string, got {text!r}")
    try:
        f = parse_polynomial(text.replace("s", "x"))
    except DigitLimitError:
        raise
    except InputError:
        raise InputError(f"cannot parse coefficient entry {text!r}") from None
    return f.coefficient(0), f.coefficient(1)


def quadratic_pair_text(pair: tuple[Fraction, Fraction]) -> str:
    """The 'a+b*s' text of a + b*s that certificates and documents print,
    such as '1-1*s' or '-1*s'; parse_quadratic_pair reads it back."""
    a, b = pair
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*s"
    sign = "+" if b > 0 else "-"
    return f"{a}{sign}{abs(b)}*s"
