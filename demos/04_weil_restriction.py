"""Walk a Weil restriction from a quadratic field down to the rationals.

The curve y^2 = x^3 - sqrt(2) x lives over Q(sqrt 2); restricting scalars
gives an abelian surface over Q whose 2-division field is the compositum
of the curve's 2-division field with its conjugate's.  The pipeline builds
that compositum explicitly, watches the quadratic field for odd
ramification, and issues the same certificate shape as for Jacobians.
"""

from fractions import Fraction

from heavenly import WeilRestrictionInput, classify, two_division_tower

# Coefficients of x^3 - s*x as (rational, irrational) pairs over s = sqrt(2).
PAIRS = ((Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(-1)),
         (Fraction(0), Fraction(0)),
         (Fraction(1), Fraction(0)))


def main():
    item = WeilRestrictionInput.of("Q", Fraction(2), PAIRS)
    quadratic, curve, compositum = two_division_tower(item)
    degree = quadratic.absolute_degree
    print("curve: y^2 = x^3 - s*x over Q(s), s^2 = 2")
    print(f"  2-division degree of the curve over Q(s):  "
          f"{curve.absolute_degree // degree}")
    print(f"  compositum with the conjugate's, over Q(s): "
          f"{compositum.absolute_degree // degree}")
    print(f"  compositum degree over Q:                   "
          f"{compositum.absolute_degree}")
    print()
    verdict = classify(item)
    print(f"verdict: {verdict.status} "
          f"(closure degree {verdict.closure_degree})")
    for step in verdict.steps:
        marker = "*" if step.kind == "axiom" else "-"
        print(f"  {marker} {step.description}")


if __name__ == "__main__":
    main()
