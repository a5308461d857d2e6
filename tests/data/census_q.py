"""Write the frozen census of plausible surface models over Q.

A plausible model has a discriminant of plus or minus a power of 2, so good
reduction away from 2, and by the source paper's theorem an abelian surface
over Q with such a model must classify heavenly.  The census has three
lists, each in enumeration order:

- `models`: every monic integral quintic and sextic whose lower
  coefficients lie in [-2, 2] and whose discriminant is nonzero and +-2^k;
  tests/test_classify.py::test_plausible_census_over_q_is_heavenly asserts
  that each Jacobian classifies heavenly.
- `cubics`: every monic cubic with lower coefficients in [-16, 16] and
  discriminant +-2^k, the elliptic curves over Q with good reduction away
  from 2 in that box; products of two of them are surfaces over Q.
- `weil_restrictions`: every restriction to Q of y^2 = f(x), f a monic
  cubic over Q(s), s^2 = D, D in {-1, 2, -2}, whose lower coefficients are
  a + b*s with a, b in [-2, 2] and some b nonzero, whose conjugate-product
  screen is plausible.  Each entry is [D, ascending (a, b) pairs].

Run from the repository root, about a minute:

    PYTHONPATH=src python3 tests/data/census_q.py > tests/data/census_q.json
"""

import json
from itertools import product

from heavenly.classify import PLAUSIBLE, WeilRestrictionInput, _weil_screen
from heavenly.errors import InputError
from heavenly.integers import odd_part
from heavenly.polynomials import UniPoly, discriminant

BOUND = 2
DEGREES = (5, 6)
CUBIC_BOUND = 16
RADICANDS = (-1, 2, -2)


def _plausible(coeffs) -> bool:
    d = discriminant(UniPoly.of(*coeffs))
    return bool(d) and odd_part(abs(int(d))) == 1


def plausible_models():
    """Ascending integer coefficient lists, by degree, then in the order
    itertools.product gives the lower coefficients."""
    for degree in DEGREES:
        for lower in product(range(-BOUND, BOUND + 1), repeat=degree):
            coeffs = list(lower) + [1]
            if _plausible(coeffs):
                yield coeffs


def plausible_cubics():
    """Ascending integer coefficient lists of the plausible monic cubics."""
    for lower in product(range(-CUBIC_BOUND, CUBIC_BOUND + 1), repeat=3):
        coeffs = list(lower) + [1]
        if _plausible(coeffs):
            yield coeffs


def plausible_restrictions():
    """[D, pairs] for each restriction whose conjugate-product screen is
    plausible; pairs are ascending (a, b) lists, the last one (1, 0)."""
    for radicand in RADICANDS:
        for flat in product(range(-BOUND, BOUND + 1), repeat=6):
            if not any(flat[1::2]):
                continue
            pairs = [list(flat[i:i + 2]) for i in range(0, 6, 2)] + [[1, 0]]
            try:
                item = WeilRestrictionInput.of("Q", radicand, pairs)
            except InputError:
                continue  # the cubic is not squarefree
            if _weil_screen(item, []) == PLAUSIBLE:
                yield [radicand, pairs]


def _listing(key: str, description: str, entries: list, last: bool) -> None:
    rows = [json.dumps(e) for e in entries]
    print(f' "{key}": {{')
    print(f'  "description": {json.dumps(description)},')
    print(f'  "count": {len(rows)},')
    print('  "models": [\n   ' + ",\n   ".join(rows) + "\n  ]")
    print(" }" if last else " },")


def main():
    models = [json.dumps(m) for m in plausible_models()]
    description = ("monic integral models of degree 5 and 6 with lower "
                   "coefficients in [-2, 2] and discriminant +-2^k; "
                   "ascending coefficients")
    print("{")
    print(f' "description": {json.dumps(description)},')
    print(f' "count": {len(models)},')
    print(' "models": [\n  ' + ",\n  ".join(models) + "\n ],")
    _listing("cubics", "monic integral cubics with lower coefficients in "
             "[-16, 16] and discriminant +-2^k; ascending coefficients",
             list(plausible_cubics()), False)
    _listing("weil_restrictions", "restrictions to Q of y^2 = f(x) over "
             "Q(s), s^2 = D in {-1, 2, -2}, f monic with lower coefficients "
             "a + b*s, a and b in [-2, 2], some b nonzero, whose "
             "conjugate-product screen is plausible; [D, ascending (a, b) "
             "pairs]", list(plausible_restrictions()), True)
    print("}")


if __name__ == "__main__":
    main()
