"""One tolerance rule for the public checks.

regular_sphere_check, fpk_membership and is_boomerang take a tol that is
finite and non-negative, the rule of the command line's --tol
(clifford._checked_tol).  Any other tol is a ValueError naming it, raised
before the check reads its input, so a NaN tol cannot pass every row or
fail every row, and an infinite one cannot pass every row.  The command
line's own messages are tests/test_cli.py's; classify keeps its stricter
bound (tests/test_lounesto.py).
"""

import numpy as np
import pytest

from spinorspace import fierz, topology
from spinorspace.bilinears import bilinear_covariants
from spinorspace.spinor_forms import ClassicalSpinor

PSI = ClassicalSpinor([1, 2j, 0.5, 1 + 1j])
B = bilinear_covariants(PSI)
Z = fierz.aggregate(B)

CHECKS = {
    "regular_sphere_check": lambda tol: topology.regular_sphere_check([1, 0, 0, 0], tol),
    "fpk_membership": lambda tol: topology.fpk_membership(B, tol),
    "is_boomerang": lambda tol: fierz.is_boomerang(Z, B.sigma, tol),
}

OUTSIDE = [np.nan, np.inf, -np.inf, -1.0, -5e-324]


@pytest.mark.parametrize("tol", OUTSIDE, ids=repr)
@pytest.mark.parametrize("name", CHECKS)
def test_a_tolerance_outside_the_rule_is_a_value_error(name, tol):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and non-negative, got ") as err:
        CHECKS[name](tol)
    assert type(err.value) is ValueError


def test_the_rule_takes_zero_and_small_tolerances():
    assert CHECKS["regular_sphere_check"](0.0) == CHECKS["regular_sphere_check"](1e-8) == 0.0
    assert CHECKS["fpk_membership"](1e-8) and CHECKS["is_boomerang"](1e-8)
    # zero asks for exact identities, which rounding may break: a verdict, not an error
    assert type(CHECKS["fpk_membership"](0.0)) is type(CHECKS["is_boomerang"](0.0)) is bool
