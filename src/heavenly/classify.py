"""Heavenly-at-2 classification pipeline, emitting auditable certificates.

Decides, for an elliptic curve or a principally polarized abelian surface
over one of the supported base fields, whether its 2-power torsion tower
can lie inside the maximal pro-2 extension unramified away from
{2, infinity}.  Every verdict carries an ordered certificate whose steps
are either exact computations or explicit axiom citations, so a reader can
replay the decision and see precisely what rests on cited literature.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .axioms import MUST_BE_2POWER, apply_harbater, apply_small_degree, axiom
from .errors import InputError, ResourceCapError
from .factorization import factor_over_q
from .integers import factorize, odd_part
from .polynomials import (
    UniPoly,
    discriminant,
    format_polynomial,
    has_rational_root,
    make_monic_integral,
    memo_scope,
    monic_rescale,
    quadratic_pair_text,
    squarefree_part,
)
from .ramification import splitting_field_odd_ramified
from .records import Record
from .towers import (
    BASE_FIELD_POLYS,
    _conjugate,
    _cubic_discriminant,
    _is_square,
    _pair_cubic,
    _quadratic_step,
    base_field,
    factor_over_tower,
    splitting_tower,
)

HEAVENLY = "heavenly"
NOT_HEAVENLY = "not_heavenly"
UNKNOWN = "unknown"
PLAUSIBLE = "plausible"

COMPUTED = "computed"
AXIOM = "axiom"

# per-factor bound on the closure degree over the quadratic base, by the
# degree of the field a single Weierstrass root generates over that base
_FACTOR_CLOSURE_BOUNDS = {1: 1, 2: 4, 4: 32}

_SHAPE_ERROR = "expected an elliptic, Jacobian, product, or restriction input"


# ---------------------------------------------------------------------------
# Certificates.


class _NamedValues(Record):
    """value and has_value over the (name, value) pairs in field _pairs."""

    __slots__ = ()
    _pairs = "values"

    def value(self, name: str):
        for key, val in getattr(self, self._pairs):
            if key == name:
                return val
        raise KeyError(name)

    def has_value(self, name: str) -> bool:
        return any(key == name for key, _ in getattr(self, self._pairs))


class Step(_NamedValues):
    """One certificate entry: an exact computation or an axiom citation."""

    __slots__ = ("kind", "description", "values")

    def __init__(self, kind: str, description: str, values: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind == other.kind
                    and self.description == other.description
                    and self.values == other.values)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.description, self.values))


def _computed(description: str, **values) -> Step:
    return Step(COMPUTED, description, tuple(values.items()))


def _cite(axiom_id: str, note: str) -> Step:
    record = axiom(axiom_id)
    return Step(AXIOM, note,
                (("axiom_id", record.id), ("source", record.source)))


class Verdict(Record):
    """Classification outcome together with its step-by-step certificate.

    torsion_degree is the degree of the computed 2-division field over the
    base field; closure_degree is the degree over Q of its Galois closure,
    which is the field itself: the 2-division field is the splitting field
    over Q of one rational polynomial, so closure_degree is the absolute
    degree of its tower.  Each of these and screen is None when a
    resource cap stopped the pipeline before computing it, and
    closure_degree is None when an odd ramified prime already decided the
    verdict.
    """

    __slots__ = ("status", "steps", "torsion_degree", "closure_degree",
                 "screen")


# ---------------------------------------------------------------------------
# Input shapes.


def _require_monic_integral_squarefree(f: UniPoly, what: str) -> None:
    if not f.is_monic:
        raise InputError(f"{what} must be monic")
    if any(c.denominator != 1 for c in f.coeffs):
        raise InputError(f"{what} must have integral coefficients")
    if discriminant(f) == 0:
        raise InputError(f"{what} must be squarefree")


def _curve_model(f: UniPoly) -> UniPoly:
    """An integral model of the curve y^2 = f(x) itself, for F = d^2 f
    integral (d the least common denominator) and a = lc(F).

    At odd degree n it is a^(n-1) F(x/a), monic, through X = a x,
    Y = a^((n-1)/2) d y; F's content stays, since dividing it out would
    twist the curve.  At even degree it is c g, for g =
    make_monic_integral(f) and c the signed squarefree part of lc(f)'s
    numerator times denominator: with F = e F1, F1 primitive of leading
    coefficient L > 0, g(L x) = L^(n-1) F1(x), so (L^(n/2) d y)^2 =
    e L g(L x), and e L = a has lc(f)'s square class.  Degrees other
    than 3, 5 and 6 are left to the input shapes to reject."""
    n = f.degree
    if n > 0 and n % 2:
        d = lcm(*(c.denominator for c in f.coeffs))
        return monic_rescale([c.numerator * (d * d // c.denominator)
                              for c in f.coeffs])
    lc = f.leading_coefficient
    c = prod(p ** (e % 2)
             for p, e in factorize(lc.numerator * lc.denominator).items())
    return make_monic_integral(f).scale(c if lc > 0 else -c)


class EllipticInput(Record):
    """An elliptic curve y^2 = f(x) with f a monic integral cubic."""

    __slots__ = ("base", "cubic")

    def __init__(self, base: str, cubic: UniPoly):
        super().__init__(base, cubic)
        base_field(self.base)
        if self.cubic.degree != 3:
            raise InputError("elliptic input needs a cubic polynomial")
        _require_monic_integral_squarefree(self.cubic, "elliptic cubic")

    @staticmethod
    def from_cubic(base: str, f: UniPoly) -> "EllipticInput":
        """Any squarefree rational cubic, as a monic integral model of the
        same curve."""
        return EllipticInput(base, _curve_model(f))


class JacobianInput(Record):
    """The Jacobian of a genus-2 curve y^2 = f(x), f squarefree and
    integral: monic of degree 5, or c g with g monic of degree 6."""

    __slots__ = ("base", "poly")

    def __init__(self, base: str, poly: UniPoly):
        super().__init__(base, poly)
        base_field(self.base)
        f = self.poly
        if f.degree not in (5, 6):
            raise InputError("genus-2 model needs degree 5 or 6")
        if f.degree == 6 and f.leading_coefficient.denominator == 1:
            f = f.monic()
        _require_monic_integral_squarefree(f, "genus-2 polynomial")

    @staticmethod
    def from_poly(base: str, f: UniPoly) -> "JacobianInput":
        """Any squarefree rational quintic or sextic, as an integral model
        of the same curve (see _curve_model)."""
        return JacobianInput(base, _curve_model(f))


class ProductInput(Record):
    """A product of two elliptic curves over the same base field."""

    __slots__ = ("first", "second")

    def __init__(self, first: EllipticInput, second: EllipticInput):
        super().__init__(first, second)
        if self.first.base != self.second.base:
            raise InputError("product factors must share a base field")

    @property
    def base(self) -> str:
        return self.first.base


class WeilRestrictionInput(Record):
    """Restriction of scalars of an elliptic curve down a quadratic step.

    The curve is y^2 = f(x) with f a monic cubic over base(s), s^2 equal to
    the radicand; each coefficient is an (a, b) pair of rationals meaning
    a + b*s.  The conjugate twist replaces s by -s.  The field base(s) is
    towers._quadratic_step, once towers._is_square has rejected a square
    radicand, and towers._pair_cubic writes the cubic over it.  The
    product of the curve's cubic with its twist's needs no field: it is
    the rational sextic _conjugate_product.
    """

    __slots__ = ("base", "radicand", "cubic")

    def __init__(self, base: str, radicand: Fraction, cubic: tuple):
        super().__init__(base, radicand, cubic)
        below = base_field(self.base)
        if _is_square(below, below.from_fraction(self.radicand)):
            raise InputError("radicand must not be a square in the base field")
        if len(self.cubic) != 4:
            raise InputError("restriction input needs a cubic polynomial")
        for pair in self.cubic:
            if len(pair) != 2:
                raise InputError("coefficients must be (a, b) pairs")
        if self.cubic[-1] != (Fraction(1), Fraction(0)):
            raise InputError("restriction cubic must be monic")
        K = _quadratic_step(self.base, self.radicand)
        if K.is_zero(_cubic_discriminant(K, _pair_cubic(K, self.cubic))):
            raise InputError("restriction cubic must be squarefree")

    @staticmethod
    def of(base: str, radicand, pairs) -> "WeilRestrictionInput":
        """Build from a radicand and four ascending (a, b) coefficient pairs."""
        fixed = tuple((Fraction(a), Fraction(b)) for a, b in pairs)
        return WeilRestrictionInput(base, Fraction(radicand), fixed)

    @property
    def _conjugate_product(self) -> UniPoly:
        """Product of the cubic A + s*B with its conjugate A - s*B, for the
        rational polynomials A and B of its a-parts and b-parts: the
        rational sextic A^2 - D*B^2."""
        A = UniPoly.from_list([a for a, _ in self.cubic])
        B = UniPoly.from_list([b for _, b in self.cubic])
        return A * A - (B * B).scale(self.radicand)


# ---------------------------------------------------------------------------
# Certificate text of a + b*s pairs.


def _pair_poly_text(cubic) -> str:
    return "[" + ", ".join(map(quadratic_pair_text, cubic)) + "]"


# ---------------------------------------------------------------------------
# Good-reduction screen.


def screen_good_reduction(f: UniPoly) -> str:
    """Necessary-condition screen: plausible iff |disc f| is a power of 2.

    Never rejects a model: minimal models are out of scope, so an odd
    factor in this discriminant only downgrades the outcome to unknown.
    """
    if f.degree < 1:
        raise InputError("screen needs a nonconstant polynomial")
    if any(c.denominator != 1 for c in f.coeffs):
        raise InputError("screen needs integral coefficients")
    d = discriminant(f)
    if d == 0:
        raise InputError("screen needs a squarefree polynomial")
    if d.denominator != 1:
        raise ArithmeticError("integral polynomial with fractional "
                              "discriminant")
    return PLAUSIBLE if odd_part(abs(int(d))) == 1 else UNKNOWN


# ---------------------------------------------------------------------------
# 2-division fields by input shape.


def _model_polynomials(item) -> list[UniPoly]:
    """The rational model polynomials of an elliptic, Jacobian or product
    input: the cubic, the genus-2 model, or both cubics."""
    if isinstance(item, EllipticInput):
        return [item.cubic]
    if isinstance(item, JacobianInput):
        return [item.poly]
    if isinstance(item, ProductInput):
        return [item.first.cubic, item.second.cubic]
    raise InputError(_SHAPE_ERROR)


def _two_division_levels(item):
    """Yield the start field of two_division_tower, then each T_i as soon
    as it is built.  A dropped factor is linear over the tower so far,
    and splitting_tower drops linear factors itself, so each T_i is the
    one splitting the whole polynomial would build."""
    if isinstance(item, WeilRestrictionInput):
        start = _quadratic_step(item.base, item.radicand)
        first, later = _pair_cubic(start, item.cubic), [None]
    else:
        first, *later = _model_polynomials(item)
        start = base_field(item.base)
    yield start
    tower = splitting_tower(first, start)
    yield tower
    # later is empty or one cubic; None stands for the conjugate twist
    for f in later:
        split = [g for g, _ in factor_over_tower(start, first)]
        own = ([_conjugate(start, g) for g in split] if f is None
               else [g for g, _ in factor_over_tower(start, f)])
        for g in own:   # a cubic leaves at most one
            if len(g) > 2 and g not in split:
                if tower is not start:
                    g = [tower.from_base(c) for c in g]
                tower = splitting_tower(g, tower)
        yield tower


def two_division_tower(item) -> list:
    """The 2-division field of any input shape, as a list of fields.

    Returns [start, T_1, ..., T_k]: start is the base field, or its
    quadratic step x^2 - D for a restriction, and each T_i is the
    splitting tower over T_(i-1) of the shape's i-th polynomial: the
    cubic; the genus-2 model; both cubics of a product; or a restriction's
    curve and then its conjugate twist.  T_k is the 2-division field.
    Each factor over the start field is split once: of a later
    polynomial, only the nonlinear factors there that no earlier one had
    go to splitting_tower, a twist's factors being the curve's with s
    replaced by -s, and T_i is T_(i-1) when none is left.  Unordered
    pairs of Weierstrass points generate the 2-torsion of a Jacobian, so
    the model's splitting field is its 2-division field; a degree-5 model
    has its sixth Weierstrass point rational at infinity.  The call runs
    in its own polynomials.memo_scope.
    """
    with memo_scope():
        return list(_two_division_levels(item))


def defining_polynomials(item) -> list[UniPoly]:
    """Rational polynomials whose splitting field over Q is the 2-division
    field.

    The model polynomial (both cubics for a product; for a restriction the
    conjugate-product sextic A^2 - D*B^2 of its cubic A + s*B, and
    x^2 - D), plus the base field's modulus when the base is not Q.
    Their splitting field is Galois over Q, so it is its own Galois
    closure.
    """
    if isinstance(item, WeilRestrictionInput):
        polys = [item._conjugate_product, UniPoly.of(-item.radicand, 0, 1)]
    else:
        polys = _model_polynomials(item)
    return polys + _base_modulus(item.base)


def _base_modulus(base: str) -> list[UniPoly]:
    """The base field's modulus over Q, or nothing for Q itself."""
    modulus = BASE_FIELD_POLYS[base]
    return [] if modulus is None else [UniPoly.from_list(list(modulus))]


def factor_degree_vector(C: JacobianInput) -> tuple:
    """Degrees of the fields single Weierstrass points generate, descending.

    These are the degrees of the model polynomial's irreducible factors
    over the base field, padded with 1 for the rational point at infinity
    of a degree-5 model; the entries always sum to 6.
    """
    base = base_field(C.base)
    degrees = [len(g) - 1 for g, _ in factor_over_tower(base, C.poly)]
    if C.poly.degree == 5:
        degrees.append(1)
    return tuple(sorted(degrees, reverse=True))


def closure_degree_bound(degrees) -> int:
    """Closure-degree bound over Q for a 2-division field over a quadratic
    base, from the descending factor-degree vector of the sextic."""
    vec = tuple(degrees)
    # a bool is an int to Python, but never a factor degree
    if any(type(d) is not int for d in vec):
        raise InputError("factor degrees must be ints")
    if not vec or list(vec) != sorted(vec, reverse=True):
        raise InputError("factor degrees must be sorted descending")
    if any(d not in _FACTOR_CLOSURE_BOUNDS for d in vec):
        raise InputError("factor degrees must each be 1, 2, or 4")
    if sum(vec) != 6:
        raise InputError("factor degrees must sum to 6")
    bound = 2
    for d in vec:
        bound *= _FACTOR_CLOSURE_BOUNDS[d]
    return bound


# ---------------------------------------------------------------------------
# The classification pipeline.


_SERRE_TATE_NOTE = (
    "a variety whose 2-power torsion tower has the pro-2 containment has "
    "good reduction away from 2, so the model discriminant screen above "
    "annotates a necessary condition; it never decides the verdict"
)
_PRO2_NOTE = (
    "criterion: the 2-division field must be unramified away from "
    "{2, infinity} with a 2-power Galois closure degree over Q; the "
    "higher layers of the 2-power division tower are then pro-2"
)
_HARBATER_NOTE = (
    "shortcut consistency check: a Galois extension of Q unramified away "
    "from {2, infinity} of degree below 272 must have 2-power degree"
)
_GGR_NOTE = (
    "every principally polarized abelian surface is, over its base field, "
    "a genus-2 Jacobian, a product of two elliptic curves, or the Weil "
    "restriction of an elliptic curve over a quadratic extension; the "
    "input shape fixes the branch"
)
_C_NEQ_6_NOTE = (
    "the quadratic step ramifies at an odd prime; were the 2-division "
    "field of the surface to have relative degree 6 over it, the "
    "compositum Galois group would contain an index-3 subgroup, fixing a "
    "sextic field over Q unramified away from {2, infinity} - excluded, "
    "since only degrees 1, 2, 4, 8 occur below 16"
)


def _screen_step(f: UniPoly, label: str) -> tuple[Step, str]:
    """screen_good_reduction on a model polynomial, as a step."""
    outcome = screen_good_reduction(f)
    d = int(discriminant(f))
    return _computed(
        f"good-reduction screen on the {label}",
        discriminant=d, odd_part=odd_part(abs(d)), outcome=outcome), outcome


def _tower_step(tower, base, label: str) -> Step:
    return _computed(
        f"2-division field of the {label}, as an explicit tower",
        relative_degree=tower.absolute_degree // base.absolute_degree,
        absolute_degree=tower.absolute_degree,
        level_degrees=tuple(tower.level_degrees()))


def _elliptic_screen(E: EllipticInput, steps: list) -> str:
    d = int(discriminant(E.cubic))
    steps.append(_computed(
        "normalized elliptic model y^2 = f(x)",
        base=E.base, polynomial=format_polynomial(E.cubic), discriminant=d))
    step, outcome = _screen_step(E.cubic, "2-division cubic")
    steps.append(step)
    return outcome


def _jacobian_screen(C: JacobianInput, steps: list) -> str:
    steps.append(_cite("GGR_TRICHOTOMY", _GGR_NOTE))
    d = int(discriminant(C.poly))
    values = {
        "base": C.base,
        "polynomial": format_polynomial(C.poly),
        "degree": C.poly.degree,
        "discriminant": d,
    }
    if C.poly.degree == 5:
        values["rational_infinite_weierstrass_point"] = True
    steps.append(_computed("normalized genus-2 model y^2 = f(x)", **values))
    step, outcome = _screen_step(C.poly, "Weierstrass polynomial")
    steps.append(step)
    return outcome


def _product_screen(P: ProductInput, steps: list) -> str:
    steps.append(_cite("GGR_TRICHOTOMY", _GGR_NOTE))
    steps.append(_computed(
        "product of two elliptic curves y^2 = f(x), y^2 = g(x)",
        base=P.base,
        first=format_polynomial(P.first.cubic),
        second=format_polynomial(P.second.cubic)))
    first_step, first = _screen_step(P.first.cubic, "first factor")
    second_step, second = _screen_step(P.second.cubic, "second factor")
    steps.append(first_step)
    steps.append(second_step)
    outcome = PLAUSIBLE if (first, second) == (PLAUSIBLE, PLAUSIBLE) \
        else UNKNOWN
    steps.append(_computed(
        "combined screen: plausible only when both factors are",
        outcome=outcome))
    return outcome


def _weil_screen(W: WeilRestrictionInput, steps: list) -> str:
    steps.append(_cite("GGR_TRICHOTOMY", _GGR_NOTE))
    steps.append(_computed(
        "restriction of scalars of y^2 = f(x) down a quadratic step",
        base=W.base, radicand=str(W.radicand),
        cubic=_pair_poly_text(W.cubic),
        conjugate=_pair_poly_text(tuple((a, -b) for a, b in W.cubic))))
    # the quadratic step is the splitting field of x^2 - D and the base
    # modulus, so its odd primes are read off those, with no tower
    ramified = tuple(sorted(splitting_field_odd_ramified(
        [UniPoly.of(-W.radicand, 0, 1)] + _base_modulus(W.base))))
    steps.append(_computed(
        "odd primes ramifying in the quadratic step",
        primes=ramified))
    if ramified:
        steps.append(_cite("JONES_DEGREES", _C_NEQ_6_NOTE))
    norm = make_monic_integral(squarefree_part(W._conjugate_product))
    step, outcome = _screen_step(
        norm, "squarefree part of the conjugate-product sextic")
    steps.append(step)
    return outcome


_SCREENS = [
    (EllipticInput, _elliptic_screen),
    (JacobianInput, _jacobian_screen),
    (ProductInput, _product_screen),
    (WeilRestrictionInput, _weil_screen),
]

_TOWER_LABELS = {EllipticInput: "curve", JacobianInput: "Jacobian",
                 ProductInput: "product"}


def _tower_stage(item, steps: list):
    """Build the 2-division tower, recording the shape's steps on it.

    Each step is recorded as soon as the tower it reads exists, so a
    resource cap later in the build leaves it in the partial certificate.
    """
    if isinstance(item, JacobianInput):
        steps.append(_computed(
            "degrees over the base of the fields of single Weierstrass "
            "points",
            factor_degrees=factor_degree_vector(item)))
    towers = []
    for tower in _two_division_levels(item):
        towers.append(tower)
        if isinstance(item, ProductInput) and len(towers) == 2:
            steps.append(_computed(
                "2-division field of the first factor",
                relative_degree=tower.absolute_degree
                // towers[0].absolute_degree))
    start, top = towers[0], towers[-1]
    if not isinstance(item, WeilRestrictionInput):
        steps.append(_tower_step(top, start, _TOWER_LABELS[type(item)]))
        return top
    # the nontrivial automorphism of the quadratic step carries the curve's
    # 2-division field onto its conjugate twist's, so both have degree c
    c = towers[1].absolute_degree // start.absolute_degree
    if c not in (1, 2, 3, 6):
        raise ArithmeticError(
            f"cubic 2-division degree {c} outside 1, 2, 3, 6")
    steps.append(_computed(
        "2-division degrees of the curve and its conjugate twist over the "
        "quadratic step",
        component_degrees=(c, c)))
    steps.append(_computed(
        "compositum 2-division field of the conjugate pair",
        degree_over_quadratic=top.absolute_degree // start.absolute_degree,
        absolute_degree=top.absolute_degree,
        level_degrees=tuple(top.level_degrees())))
    return top


def _ramified_steps(ramified: tuple) -> list[Step]:
    """The step recording the 2-division field's odd ramified primes, and
    the not_heavenly verdict their least one witnesses, if any."""
    steps = [_computed(
        "odd primes ramifying in the 2-division field",
        primes=ramified)]
    if ramified:
        steps.append(_computed(
            "verdict: an odd ramified prime keeps the tower outside every "
            "extension unramified away from {2, infinity}",
            status=NOT_HEAVENLY, witness_prime=ramified[0]))
    return steps


def _non_2group_factor(polys):
    """The first irreducible rational factor of polys whose Galois group
    is provably not a 2-group, or None.

    A transitive group's order is divisible by its degree, and the group
    of an irreducible quartic x^4 + ax^3 + bx^2 + cx + d is C4, V4 or D4
    exactly when its resolvent cubic x^3 - bx^2 + (ac - 4d)x - (a^2 d -
    4bd + c^2) has a rational root (Kappe-Warren); degrees 1 and 2 give
    2-groups, and no factor here has degree 8 or more.
    """
    for f in polys:
        for g, _ in factor_over_q(f):
            n = g.degree
            if n & (n - 1):
                return g
            if n == 4:
                d, c, b, a, _ = g.coeffs
                if not has_rational_root(UniPoly.of(
                        -(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b,
                        1)):
                    return g
    return None


def _decide_at_cap(item) -> list[Step]:
    """The steps of a not_heavenly verdict that the rational factors of
    F = defining_polynomials(item) give once a cap has stopped the tower,
    or none.

    An odd prime ramifying in F, or a factor whose Galois group is not a
    2-group (so neither is Gal(F), which maps onto it), decides the
    verdict without any degree; anything else, a cap in these tests
    included, leaves it undecided.
    """
    try:
        polys = defining_polynomials(item)
        ramified = tuple(sorted(splitting_field_odd_ramified(polys)))
        factor = None if ramified else _non_2group_factor(polys)
    except ResourceCapError:
        return []
    if not ramified and factor is None:
        return []
    steps = _ramified_steps(ramified)
    if factor is not None:
        steps.append(_computed(
            "verdict: a rational factor of the defining polynomials has a "
            "Galois group that is not a 2-group, so the closure degree is "
            "not a power of 2",
            status=NOT_HEAVENLY, factor=factor))
    return steps


def classify(item) -> Verdict:
    """Verdict with certificate for any supported input shape.

    Computes the 2-division field as a tower, tests its odd ramification,
    and when that is empty decides by whether the Galois closure degree
    over Q is a power of 2.  A 2-power degree gives heavenly only on a
    plausible screen, the one proof of good reduction at every odd prime
    here; on any other screen the verdict is unknown.  The field is the
    splitting field over Q of the rational defining_polynomials, hence
    Galois over Q: its odd primes are those ramifying in the fields of
    their irreducible factors, and its closure degree is the tower's
    absolute degree.  A resource cap anywhere in the call stops it
    there.  Once the screen has run, those rational factors still decide
    not_heavenly, with both degrees null, by an odd ramified prime or by
    a Galois group that is not a 2-group (_decide_at_cap); any other
    capped verdict, and one capped in the screen, is unknown.  Either
    carries the partial certificate.

    The call runs in its own polynomials.memo_scope: a discriminant or
    factoring asked for again within the call is not recomputed, and no
    answer is kept after it returns, so the verdict depends only on the
    input and the caps in force.
    """
    with memo_scope():
        return _classify(item)


def _classify(item) -> Verdict:
    for kind, screen_stage in _SCREENS:
        if isinstance(item, kind):
            break
    else:
        raise InputError(_SHAPE_ERROR)
    steps: list[Step] = []
    screen = torsion_degree = None
    try:
        screen = screen_stage(item, steps)
        steps.append(_cite("SERRE_TATE_GOOD_REDUCTION", _SERRE_TATE_NOTE))
        tower = _tower_stage(item, steps)
        torsion_degree = \
            tower.absolute_degree // base_field(item.base).absolute_degree
        ramified = tuple(sorted(
            splitting_field_odd_ramified(defining_polynomials(item))))
    except ResourceCapError as exc:
        decided = [] if screen is None else _decide_at_cap(item)
        steps.append(_computed(
            "resource cap reached; " + ("both degrees left unknown" if decided
                                        else "verdict left undecided"),
            detail=str(exc)))
        return Verdict(NOT_HEAVENLY if decided else UNKNOWN,
                       tuple(steps + decided), torsion_degree, None, screen)
    steps += _ramified_steps(ramified)
    if ramified:
        return Verdict(NOT_HEAVENLY, tuple(steps), torsion_degree, None,
                       screen)

    closure = tower.absolute_degree
    is_2power = closure & (closure - 1) == 0
    steps.append(_computed(
        "Galois closure degree over Q of the 2-division field",
        closure_degree=closure, power_of_two=is_2power))
    if apply_harbater(closure) == MUST_BE_2POWER:
        steps.append(_cite("HARBATER_272", _HARBATER_NOTE))
    steps.append(_cite("PRO2_TOWER", _PRO2_NOTE))
    if is_2power and screen != PLAUSIBLE:
        # the screen's odd parts are not factored: that can take minutes
        steps.append(_computed(
            "verdict: good reduction at the odd primes dividing the "
            "screened discriminant's odd part is not decided",
            status=UNKNOWN, odd_parts=tuple(
                s.value("odd_part") for s in steps
                if s.has_value("odd_part") and s.value("odd_part") > 1)))
        return Verdict(UNKNOWN, tuple(steps), torsion_degree, closure,
                       screen)
    if is_2power:
        steps.append(_computed(
            "verdict: unramified away from {2, infinity} with 2-power "
            "closure degree",
            status=HEAVENLY, closure_degree=closure))
        return Verdict(HEAVENLY, tuple(steps), torsion_degree, closure,
                       screen)
    steps.append(_computed(
        "verdict: the closure degree is not a power of 2, so the tower "
        "cannot embed in a pro-2 extension",
        status=NOT_HEAVENLY, closure_degree=closure))
    return Verdict(NOT_HEAVENLY, tuple(steps), torsion_degree, closure,
                   screen)


# ---------------------------------------------------------------------------
# The mod-2 orbit trace for 2-torsion point fields of abelian surfaces.


def gl4_deduction() -> tuple[Step, ...]:
    """Machine-checked trace bounding 2-torsion point fields via orbits.

    The Galois action on the nonzero 2-torsion of an abelian surface is
    linear over the field with 2 elements in rank 4; point fields have
    degree equal to an orbit size, hence below 16, where only 2-power
    degrees can occur for fields unramified away from {2, infinity}.
    """
    nonzero = 2 ** 4 - 1
    order = 1
    for k in range(4):
        order *= 2 ** 4 - 2 ** k
    return (
        _computed(
            "nonzero vectors of a rank-4 space over the 2-element field",
            count=nonzero, formula="2^4 - 1"),
        _computed(
            "orbit-stabilizer: the field a single 2-torsion point "
            "generates has degree equal to its orbit size",
            orbit_bound=nonzero),
        _computed(
            "order of the full linear group in rank 4 over the 2-element "
            "field",
            order=order, formula="(2^4-1)(2^4-2)(2^4-4)(2^4-8)"),
        _cite("JONES_DEGREES",
              "every orbit size is at most 15 < 16, so each point field, "
              "being unramified away from {2, infinity}, has degree "
              "1, 2, 4, or 8"),
        _computed(
            "conclusion, dependent on the citation above: every 2-torsion "
            "point field degree is a power of 2",
            axiom_dependent=True, point_field_degrees=tuple(
                d for d in range(1, nonzero + 1) if apply_small_degree(d))),
    )
