"""SLOCC covariants of W-class states stay on a single ray per multidegree.

For a W-class state every covariant of one multidegree is, up to a rational
constant, a single closed-form expression (`theorem2_form`); this is what
forces the sector decomposition to factorize.  The run below prints that
closed form for every multidegree of the W state at state degree <= 3, and
counts the multidegrees where the degree conditions make it vanish.

The check that every nested transvectant of the base form lands on the closed
form's ray runs in the tier-1 tests, with the Omega process as a test oracle:
`tests/test_acceptance.py::test_criterion_07_covariant_closure` and
`tests/test_covariants.py`.
"""

from fractions import Fraction
from itertools import product

from wkron.covariants import base_form, format_poly, theorem2_form
from wkron.wstates import WClassState, w_normal_form

state = w_normal_form(3)
print("base form:", format_poly(base_form(state)))

print("\nclosed forms at state degree <= 3:")
vanishing = 0
for n in (1, 2, 3):
    for nu in product(range(n + 1), repeat=3):
        closed = theorem2_form(state, n, nu)
        if closed is None or closed.is_zero:
            vanishing += 1
        else:
            print(f"  n={n}, nu={nu}: {format_poly(closed)}")
print(f"  {vanishing} other multidegrees vanish by the degree conditions")

generic = WClassState((Fraction(1, 6), Fraction(1, 2), Fraction(1, 6), Fraction(1, 6)))
print("\nsame closed form for a generic W-class state:")
print(" ", format_poly(theorem2_form(generic, 2, (0, 0, 2))))
