"""Build splitting towers for small polynomials and probe their ramification.

A splitting tower stacks one irreducible extension at a time until the
polynomial falls apart into linear factors; its absolute degree is the
order of the Galois group.  The tower is the polynomial's splitting field
over Q, so its odd ramified primes are read off the polynomial itself:
Dedekind's criterion on each irreducible factor, plus order enlargement
where needed -- x^2 - 45 is the classic case where the naive discriminant
lies about 3.
"""

from heavenly import (
    UniPoly,
    factor_over_tower,
    splitting_field_odd_ramified,
    splitting_tower,
)
from heavenly.polynomials import format_polynomial

SAMPLES = (
    UniPoly.of(-2, 0, 0, 0, 1),   # x^4 - 2, dihedral of order 8
    UniPoly.of(-2, 0, 0, 1),      # x^3 - 2, full S3
    UniPoly.of(1, 0, 0, 0, 1),    # x^4 + 1, the eighth roots of unity
    UniPoly.of(-5, 0, 1),         # x^2 - 5
    UniPoly.of(-45, 0, 1),        # x^2 - 45: same field as x^2 - 5
)


def main():
    for poly in SAMPLES:
        tower = splitting_tower(poly)
        factors = factor_over_tower(tower, poly)
        primes = sorted(splitting_field_odd_ramified([poly]))
        print(f"{format_polynomial(poly):12s}"
              f"  splitting degree {tower.absolute_degree:2d}"
              f"  linear factors {sum(m for _, m in factors):2d}"
              f"  odd ramified primes {{{', '.join(map(str, primes))}}}")


if __name__ == "__main__":
    main()
