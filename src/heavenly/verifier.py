"""One-command re-verification of the finite computations behind the toolkit."""

from __future__ import annotations

import time

from .classify import (
    EllipticInput,
    JacobianInput,
    _NamedValues,
    classify,
    closure_degree_bound,
    gl4_deduction,
    two_division_tower,
)
from .errors import InputError
from .integers import factorize
from .permgroups import (
    PermGroup,
    affine_group_f17,
    close_generators,
    core_bound_check,
    enumerate_subgroups,
    group_from_cycles,
    right_regular_images,
    s3_times_s3,
    subdirect_products_s3,
    sylow_two_subgroup_s8,
    two_generation_search,
)
from .permutations import Perm
from .polynomials import UniPoly


class LemmaReport(_NamedValues):
    """Outcome of one finite check: pass/fail with its numeric evidence."""

    __slots__ = ("lemma", "passed", "elapsed_seconds", "evidence", "failures")
    _pairs = "evidence"


class _Check:
    """Evidence accumulator and stopwatch behind a single LemmaReport."""

    def __init__(self, lemma: str):
        self.lemma = lemma
        self.start = time.perf_counter()
        self.evidence: list[tuple[str, object]] = []
        self.failures: list[str] = []

    def note(self, name: str, value) -> None:
        self.evidence.append((name, value))

    def expect(self, name: str, actual, expected) -> None:
        self.evidence.append((name, actual))
        if actual != expected:
            self.failures.append(
                f"{name}: expected {expected!r}, got {actual!r}")

    def check(self, name: str, holds: bool) -> None:
        self.evidence.append((name, bool(holds)))
        if not holds:
            self.failures.append(f"{name}: expected to hold")

    def report(self) -> LemmaReport:
        return LemmaReport(self.lemma, not self.failures,
                           time.perf_counter() - self.start,
                           tuple(self.evidence), tuple(self.failures))


def _step_value(steps, name: str):
    for step in steps:
        if step.has_value(name):
            return step.value(name)
    return None


# ---------------------------------------------------------------------------
# The octic obstruction: a 2-group too large for two generators.


def verify_octic() -> LemmaReport:
    """No ordered pair generates the order-128 Sylow 2-subgroup of S8."""
    c = _Check("octic")
    group = sylow_two_subgroup_s8()
    c.expect("order", group.order, 128)
    c.expect("is_two_group", group.p_group_prime() == 2, True)
    plain = two_generation_search(group)
    c.expect("pair_search_generates", plain.generates, False)
    c.expect("pairs_examined", plain.pairs_examined, group.order ** 2)
    involutions = sum(1 for p in group.elements if p.is_involution())
    c.note("involution_count", involutions)
    restricted = two_generation_search(group, require_involution=True)
    c.expect("involution_search_generates", restricted.generates, False)
    c.expect("involution_pairs_examined", restricted.pairs_examined,
             group.order * involutions)
    return c.report()


# ---------------------------------------------------------------------------
# Closure-degree bounds over a quadratic base.


BOUND_ROWS: tuple[tuple[tuple[int, ...], int], ...] = (
    ((4, 2), 256),
    ((4, 1, 1), 64),
    ((2, 2, 2), 128),
    ((2, 2, 1, 1), 32),
    ((2, 1, 1, 1, 1), 8),
    ((1, 1, 1, 1, 1, 1), 2),
)


def verify_bounds() -> LemmaReport:
    """The per-factor closure bounds reproduce all six frozen table rows."""
    c = _Check("bounds")
    for degrees, expected in BOUND_ROWS:
        name = "bound_" + "_".join(str(d) for d in degrees)
        c.expect(name, closure_degree_bound(degrees), expected)
    c.note("rows_checked", len(BOUND_ROWS))
    return c.report()


# ---------------------------------------------------------------------------
# Subdirect products of S3 x S3.


def verify_subdirect() -> LemmaReport:
    """Subdirect products in S3 x S3 have order 6, 18, or 36, each with an
    index-3 subgroup."""
    c = _Check("subdirect")
    records = subdirect_products_s3()
    orders = tuple(r.order for r in records)
    c.note("count", len(records))
    c.note("orders", orders)
    c.expect("order_set", tuple(sorted(set(orders))), (6, 18, 36))
    c.check("all_have_index_three_subgroup",
            all(r.has_index_three_subgroup for r in records))
    c.expect("order_36_count", sum(1 for r in records if r.order == 36), 1)
    return c.report()


# ---------------------------------------------------------------------------
# The normal-core index bound, spot-checked exhaustively on small groups.


def _symmetric_group(n: int) -> PermGroup:
    cycles = ["(1 2)"]
    if n > 2:
        cycles.append("(" + " ".join(str(i) for i in range(1, n + 1)) + ")")
    return group_from_cycles(n, *cycles)


def verify_corebound() -> LemmaReport:
    """Zero violations of [G : core(H)] <= d * m^d over chains H <| N <| G.

    This is a spot check of a general bound: it scans every subgroup G of
    S2, S3, S4 and S3 x S3, and within each G every chain of a subgroup H
    normal in a normal subgroup N.
    """
    c = _Check("corebound")
    ambients = [(f"s{n}", _symmetric_group(n)) for n in (2, 3, 4)]
    ambients.append(("s3xs3", s3_times_s3()))
    groups_scanned = 0
    total_chains = 0
    total_violations = 0
    for label, ambient in ambients:
        chains = 0
        violations = 0
        for sub in enumerate_subgroups(ambient):
            report = core_bound_check(sub)
            chains += report.chains_checked
            violations += len(report.violations)
            groups_scanned += 1
        c.note(f"chains_{label}", chains)
        c.expect(f"violations_{label}", violations, 0)
        total_chains += chains
        total_violations += violations
    c.note("groups_scanned", groups_scanned)
    c.note("chains_checked", total_chains)
    c.expect("violations", total_violations, 0)
    c.note("scope", "exhaustive over the listed ambient groups only; "
           "a spot check of the general bound")
    return c.report()


# ---------------------------------------------------------------------------
# The 272-dimensional witness built from the affine group of F17.


_CURVE_32A2 = UniPoly.of(0, -1, 0, 1)
_CURVE_64A1 = UniPoly.of(0, -4, 0, 1)


def verify_dim272() -> LemmaReport:
    """The degree-272 witness: a faithful regular action of a non-2-group
    whose 2-division fields sit inside Q."""
    c = _Check("dim272")
    group = affine_group_f17()
    c.expect("order", group.order, 272)
    c.expect("order_factorization",
             tuple(sorted(factorize(group.order).items())), ((2, 4), (17, 1)))
    c.expect("is_two_group", group.p_group_prime() == 2, False)
    # the regular action permutes element indices, read as points 1..272
    regular = right_regular_images(group)
    position = {p: k for k, p in enumerate(group.elements)}
    identity = tuple(range(group.order))
    image = close_generators([Perm(tuple(k + 1 for k in regular[position[g]]))
                              for g in group.generators])
    c.expect("regular_degree", image.degree, 272)
    c.expect("regular_distinct_images", len(set(regular)), group.order)
    c.expect("regular_kernel_size",
             sum(1 for t in regular if t == identity), 1)
    c.expect("regular_image_order", image.order, 272)
    for name, cubic in (("32a2", _CURVE_32A2), ("64a1", _CURVE_64A1)):
        tower = two_division_tower(EllipticInput("Q", cubic))[-1]
        c.expect(f"torsion_degree_{name}", tower.absolute_degree, 1)
    c.note("conclusion",
           "a faithful order-272 mod-2 image is not a 2-group, so the "
           "product variety it acts on is not heavenly at 2")
    return c.report()


# ---------------------------------------------------------------------------
# The rank-4 mod-2 orbit trace.


def verify_gl4() -> LemmaReport:
    """The orbit trace for rank-4 mod-2 representations checks out."""
    c = _Check("gl4")
    steps = gl4_deduction()
    c.expect("nonzero_vectors", _step_value(steps, "count"), 15)
    c.expect("orbit_bound", _step_value(steps, "orbit_bound"), 15)
    c.expect("group_order", _step_value(steps, "order"), 20160)
    c.expect("citation", _step_value(steps, "axiom_id"), "JONES_DEGREES")
    c.expect("point_field_degrees",
             _step_value(steps, "point_field_degrees"), (1, 2, 4, 8))
    return c.report()


# ---------------------------------------------------------------------------
# Flagship classifier runs.


def _flagship_inputs():
    return (
        ("jacobian_x5_minus_x",
         JacobianInput("Q", UniPoly.of(0, -1, 0, 0, 0, 1)), "heavenly", 2),
        ("jacobian_x5_plus_x",
         JacobianInput("Q", UniPoly.of(0, 1, 0, 0, 0, 1)), "heavenly", 4),
        ("jacobian_x6_minus_1",
         JacobianInput("Q", UniPoly.of(-1, 0, 0, 0, 0, 0, 1)),
         "not_heavenly", None),
        ("elliptic_x3_minus_2",
         EllipticInput("Q", UniPoly.of(-2, 0, 0, 1)), "not_heavenly", None),
    )


def verify_flagship() -> LemmaReport:
    """The four flagship classifier inputs reproduce their known verdicts."""
    c = _Check("flagship")
    for name, item, status, closure in _flagship_inputs():
        verdict = classify(item)
        c.expect(f"status_{name}", verdict.status, status)
        if closure is not None:
            c.expect(f"closure_{name}", verdict.closure_degree, closure)
        if name == "jacobian_x6_minus_1":
            c.expect("witness_prime_x6_minus_1",
                     _step_value(verdict.steps, "witness_prime"), 3)
    return c.report()


# ---------------------------------------------------------------------------
# The full suite.


_CHECKS: tuple[tuple[str, object], ...] = (
    ("octic", verify_octic),
    ("bounds", verify_bounds),
    ("subdirect", verify_subdirect),
    ("corebound", verify_corebound),
    ("dim272", verify_dim272),
    ("gl4", verify_gl4),
    ("flagship", verify_flagship),
)

CHECK_IDS: tuple[str, ...] = tuple(name for name, _ in _CHECKS)


def run_check(lemma: str) -> LemmaReport:
    """Run the single check with the given id."""
    for name, fn in _CHECKS:
        if name == lemma:
            return fn()
    raise InputError(
        f"unknown check {lemma!r}; choose from: " + ", ".join(CHECK_IDS))


def run_all() -> list[LemmaReport]:
    """Run every check in canonical id order and return the reports."""
    return [fn() for _, fn in _CHECKS]
