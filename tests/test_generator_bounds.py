"""The FPK identities bound what each class keeps, so some generator targets
cannot be reached.

For every nonzero spinor J.J = sigma^2 + omega^2 and J_0 = |psi|^2 with J
causal.  So |sigma| and |omega| are at most |psi|^2 (what classes 2 and 3
keep), the smaller of the two at most |psi|^2 / sqrt(2) (class 1 keeps
both), and J has Euclidean norm between |psi|^2 and sqrt(2) |psi|^2
(classes 4-6 keep it), as |J|^2 = 2 |psi|^4 - sigma^2 - omega^2.  Fierz
completeness gives component_norm()^2 = 4 |psi|^4, so |K|^2 + |S|^2 =
2 |psi|^4 for every spinor: class 4, which keeps J, K and S, keeps the
smallest at most |psi|^2.  classify keeps a group only above tol |psi|^2,
so lounesto.generate refuses a tolerance at or above the target's bound
before its first draw.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinorspace import cli, lounesto
from spinorspace.bilinears import bilinear_covariants
from spinorspace.clifford import DIRAC, WEYL, pseudoscalar, rep_matrix
from spinorspace.lounesto import LounestoClass
from spinorspace.spinor_forms import ClassicalSpinor

CLASSES = list(lounesto._REACH)
UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


def kept_ratios(psi: ClassicalSpinor) -> dict:
    """The norm of what each class must keep relative to |psi|^2, and under
    the key "J" the Euclidean norm of J."""
    b = bilinear_covariants(psi)
    norm2 = psi.norm() ** 2
    sigma, omega, j = abs(b.sigma) / norm2, abs(b.omega) / norm2, np.linalg.norm(b.J / norm2)
    k, s = np.linalg.norm(b.K / norm2), np.linalg.norm(b.S / norm2)
    return {LounestoClass.C1: min(sigma, omega), LounestoClass.C2: sigma, LounestoClass.C3: omega,
            LounestoClass.C4: min(j, k, s), LounestoClass.C5: j, LounestoClass.C6: j, "J": j}


def rotated(psi: ClassicalSpinor, theta: float) -> ClassicalSpinor:
    """The duality rotation (cos theta + i sin theta gamma5) psi, which turns
    sigma + i omega by e^(-2 i theta) and keeps J."""
    gamma5 = 1j * rep_matrix(pseudoscalar(), psi.rep)
    return ClassicalSpinor((np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * gamma5) @ psi.components, psi.rep)


def test_bounds_are_the_derived_ones():
    assert lounesto._REACH == {LounestoClass.C1: 0.5 ** 0.5, LounestoClass.C2: 1.0, LounestoClass.C3: 1.0,
                               LounestoClass.C4: 1.0, LounestoClass.C5: 2.0 ** 0.5, LounestoClass.C6: 2.0 ** 0.5}


@given(st.lists(UNIT, min_size=8, max_size=8), st.floats(-100.0, 100.0), st.sampled_from([WEYL, DIRAC]))
def test_no_spinor_exceeds_a_bound(parts, exponent, rep):
    comps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    assume(np.abs(comps).max() >= 1e-3)
    psi = ClassicalSpinor(comps * 10.0 ** exponent, rep)
    ratios = kept_ratios(psi)
    for cls in CLASSES:
        assert ratios[cls] <= lounesto._REACH[cls] * (1 + 1e-12)
    assert ratios["J"] >= 1 - 1e-12


def test_built_spinors_reach_each_bound():
    rest = ClassicalSpinor([1, 0, 0, 0], DIRAC)   # J = (|psi|^2, 0, 0, 0), omega = 0, |K| = |S| = |psi|^2
    assert abs(kept_ratios(rest)[LounestoClass.C2] - 1.0) <= 1e-12
    assert abs(kept_ratios(rest)[LounestoClass.C4] - 1.0) <= 1e-12
    assert abs(kept_ratios(rest)["J"] - 1.0) <= 1e-12
    assert abs(kept_ratios(rotated(rest, -np.pi / 4))[LounestoClass.C3] - 1.0) <= 1e-12
    assert abs(kept_ratios(rotated(rest, np.pi / 8))[LounestoClass.C1] - 0.5 ** 0.5) <= 1e-12
    weyl = ClassicalSpinor([1, 0, 0, 0], WEYL)   # class 6, J lightlike
    assert abs(kept_ratios(weyl)[LounestoClass.C6] - 2.0 ** 0.5) <= 1e-12
    for psi in lounesto.generate(LounestoClass.C5, seed=0, count=3, rep=DIRAC):
        assert abs(kept_ratios(psi)[LounestoClass.C5] - 2.0 ** 0.5) <= 1e-12


def no_draws(monkeypatch):
    def draw(rng):
        raise AssertionError("drew a candidate")
    for cls in CLASSES:
        monkeypatch.setitem(lounesto._DRAWERS, cls, draw)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.value)
def test_generate_refuses_a_tolerance_at_or_above_the_bound(monkeypatch, cls):
    no_draws(monkeypatch)
    bound = lounesto._REACH[cls]
    for tol in (bound, 1.01 * bound, 10.0):
        with pytest.raises(ValueError) as excinfo:
            lounesto.generate(cls, seed=0, count=100000, tol=tol)
        assert str(excinfo.value) == (f"generator for class {cls.value} cannot reach tol {tol!r}: the FPK identities "
                                      f"bound what the class must keep by {bound!r} |psi|^2")


def test_a_tolerance_just_below_the_bound_is_reachable():
    for cls, tol in ((LounestoClass.C6, 1.4), (LounestoClass.C4, 0.99)):
        for psi in lounesto.generate(cls, seed=0, count=3, tol=tol):
            assert lounesto.classify(psi, tol).lounesto_class is cls
    with pytest.raises(ValueError, match="classification tolerance must be positive and finite"):
        lounesto.generate(LounestoClass.C6, seed=0, count=1, tol=np.inf)


@pytest.mark.parametrize("cls, tol", [("4", "10"), ("4", "1"), ("2", "1"), ("1", "0.71")])
def test_cli_fails_before_the_first_draw(monkeypatch, capsys, cls, tol):
    no_draws(monkeypatch)
    assert cli.main(["generate", "--class", cls, "--tol", tol, "--count", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: generator for class {cls} cannot reach tol {float(tol)!r}: ")
