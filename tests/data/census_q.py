"""Write the frozen census of plausible genus-2 models over Q.

The census lists every monic integral quintic and sextic whose lower
coefficients lie in [-2, 2] and whose discriminant is nonzero and plus or
minus a power of 2: the models whose good-reduction screen is plausible.
A plausible model has good reduction away from 2, so by the source paper's
theorem its Jacobian over Q must classify heavenly;
tests/test_classify.py::test_plausible_census_over_q_is_heavenly asserts
that for every listed model.

Run from the repository root, about 6 s:

    PYTHONPATH=src python3 tests/data/census_q.py > tests/data/census_q.json
"""

import json
from itertools import product

from heavenly.integers import odd_part
from heavenly.polynomials import UniPoly, discriminant

BOUND = 2
DEGREES = (5, 6)


def plausible_models():
    """Ascending integer coefficient lists, by degree, then in the order
    itertools.product gives the lower coefficients."""
    for degree in DEGREES:
        for lower in product(range(-BOUND, BOUND + 1), repeat=degree):
            coeffs = list(lower) + [1]
            d = discriminant(UniPoly.of(*coeffs))
            if d and odd_part(abs(int(d))) == 1:
                yield coeffs


def main():
    models = [json.dumps(m) for m in plausible_models()]
    description = ("monic integral models of degree 5 and 6 with lower "
                   "coefficients in [-2, 2] and discriminant +-2^k; "
                   "ascending coefficients")
    print("{")
    print(f' "description": {json.dumps(description)},')
    print(f' "count": {len(models)},')
    print(' "models": [\n  ' + ",\n  ".join(models) + "\n ]")
    print("}")


if __name__ == "__main__":
    main()
