"""Class assignment, generators, scaling invariance."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_spinor
from spinorspace import clifford as cl
from spinorspace import lounesto
from spinorspace.bilinears import BilinearSet, bilinear_covariants
from spinorspace.lounesto import LounestoClass
from spinorspace.spinor_forms import ClassicalSpinor

ALL_SIX = [LounestoClass.C1, LounestoClass.C2, LounestoClass.C3,
           LounestoClass.C4, LounestoClass.C5, LounestoClass.C6]


def bset(sigma=0.0, omega=0.0, J=None, K=None, S=None):
    return BilinearSet(
        sigma, omega,
        np.zeros(4) if J is None else np.array(J, dtype=float),
        np.zeros(4) if K is None else np.array(K, dtype=float),
        np.zeros(6) if S is None else np.array(S, dtype=float),
    )


def test_classify_pinned_examples():
    assert lounesto.classify(ClassicalSpinor([1, 0, 0, 0], cl.WEYL)).lounesto_class is LounestoClass.C6
    assert lounesto.classify(ClassicalSpinor([1, 0, 1, 0], cl.WEYL)).lounesto_class is LounestoClass.C2
    assert lounesto.classify(ClassicalSpinor([0, 1j, 1, 0], cl.WEYL)).lounesto_class is LounestoClass.C5


def test_classify_rejects_zero_spinor():
    with pytest.raises(ValueError, match="zero spinor"):
        lounesto.classify(ClassicalSpinor([0, 0, 0, 0], cl.WEYL))


def test_classify_deterministic(rng):
    psi = random_spinor(rng)
    first = lounesto.classify(psi)
    for _ in range(5):
        again = lounesto.classify(psi)
        assert again.lounesto_class is first.lounesto_class
        assert again.margin == first.margin


def test_report_flags_consistent(rng):
    psi = random_spinor(rng)
    report = lounesto.classify(psi)
    assert report.lounesto_class is LounestoClass.C1
    assert not report.zero_flags["J"]
    assert report.margin >= 1.0
    d = report.as_dict()
    assert d["class"] == "1" and "margin" in d and "zero_flags" in d


def test_classify_bilinears_of_generated_spinor(rng):
    psi = lounesto.generate(LounestoClass.C1, seed=0, count=1)[0]
    b = bilinear_covariants(psi)
    assert lounesto.classify_bilinears(b) is LounestoClass.C1


def test_classify_bilinears_fpk_gate():
    # order-one violation of the first identity
    b = bset(sigma=1.0, omega=1.0, J=[5, 0, 0, 0], K=[0, 1, 0, 0])
    assert lounesto.classify_bilinears(b) is LounestoClass.ANOMALOUS


def test_classify_bilinears_j_zero_sector():
    flag = bset(S=[1, 0, 0, 0, 0, 1])
    assert lounesto.classify_bilinears(flag) is LounestoClass.FLAG
    pole = bset(K=[1, 0, 0, 1])
    assert lounesto.classify_bilinears(pole) is LounestoClass.POLE
    both = bset(K=[1, 0, 0, 1], S=[0, 1, 0, 0, 1, 0])
    assert lounesto.classify_bilinears(both) is LounestoClass.FLAG_POLE_J0


def test_classify_bilinears_all_zero_is_anomalous():
    assert lounesto.classify_bilinears(bset()) is LounestoClass.ANOMALOUS


def test_spinor_derived_points_never_anomalous(rng):
    for _ in range(50):
        psi = random_spinor(rng)
        cls = lounesto.classify_bilinears(bilinear_covariants(psi))
        assert cls is not LounestoClass.ANOMALOUS


@pytest.mark.parametrize("target", ALL_SIX)
def test_generate_soundness(target):
    for seed in (0, 1, 2):
        for psi in lounesto.generate(target, seed=seed, count=5):
            assert lounesto.classify(psi).lounesto_class is target


def test_generate_deterministic():
    a = lounesto.generate(LounestoClass.C5, seed=9, count=4)
    b = lounesto.generate(LounestoClass.C5, seed=9, count=4)
    for x, y in zip(a, b):
        assert np.array_equal(x.components, y.components)


def test_generate_dirac_rep():
    for psi in lounesto.generate(LounestoClass.C6, seed=7, count=10, rep=cl.DIRAC):
        assert psi.rep is cl.DIRAC
        assert lounesto.classify(psi).lounesto_class is LounestoClass.C6


def test_generate_c6_chiral_shape():
    for psi in lounesto.generate(LounestoClass.C6, seed=7, count=10):
        upper = np.linalg.norm(psi.components[:2])
        lower = np.linalg.norm(psi.components[2:])
        assert min(upper, lower) < 1e-14 < max(upper, lower)


def test_generate_rejects_nonspinor_classes():
    for target in (LounestoClass.ANOMALOUS, LounestoClass.POLE,
                   LounestoClass.FLAG, LounestoClass.FLAG_POLE_J0):
        with pytest.raises(ValueError, match="cannot generate"):
            lounesto.generate(target, seed=0, count=1)
    with pytest.raises(ValueError, match="count"):
        lounesto.generate(LounestoClass.C1, seed=0, count=0)


def generate_one_at_a_time(target, seed, count, rep=cl.WEYL, tol=lounesto.DEFAULT_TOL):
    """Reference generator classifying each candidate on its own as it is
    drawn; generate must return exactly its spinors and fail where it does."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    draw = lounesto._DRAWERS[target]
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > lounesto._MAX_ATTEMPTS * count:
            raise ValueError(f"generator for class {target.value} failed to converge")
        candidate = ClassicalSpinor(draw(rng), cl.WEYL)
        if candidate.norm() < 1e-6:
            continue
        if lounesto.classify(candidate, tol).lounesto_class is target:
            out.append(candidate.to_rep(rep))
    return out


def outcome(generator, *args, **kwargs):
    """('ok', stacked components) or ('error', message)."""
    try:
        spinors = generator(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)
    assert all(psi.rep is kwargs.get("rep", cl.WEYL) for psi in spinors)
    return "ok", np.array([psi.components for psi in spinors])


def same_outcome(a, b):
    return a[0] == b[0] and (np.array_equal(a[1], b[1]) if a[0] == "ok" else a[1] == b[1])


@pytest.mark.parametrize("rep", [cl.WEYL, cl.DIRAC], ids=["weyl", "dirac"])
@pytest.mark.parametrize("target", ALL_SIX)
def test_generate_equals_one_at_a_time(target, rep):
    for seed in (0, 7, 21):
        for count in (1, 70):
            got = outcome(lounesto.generate, target, seed, count, rep=rep)
            assert got[0] == "ok" and got[1].shape == (count, 4)
            assert same_outcome(got, outcome(generate_one_at_a_time, target, seed, count, rep=rep))


def test_generate_fails_where_one_at_a_time_fails(monkeypatch):
    """At tol 0.2 about half the class-1 draws classify as class 1, so with
    2 draws allowed per spinor some seeds fill 10 spinors and some run out."""
    monkeypatch.setattr(lounesto, "_MAX_ATTEMPTS", 2)
    kinds = set()
    for seed in range(20):
        got = outcome(lounesto.generate, LounestoClass.C1, seed, 10, tol=0.2)
        assert same_outcome(got, outcome(generate_one_at_a_time, LounestoClass.C1, seed, 10, tol=0.2))
        kinds.add(got[0])
    assert kinds == {"ok", "error"}
    monkeypatch.undo()
    got = outcome(lounesto.generate, LounestoClass.C4, 0, 1, tol=10.0)
    assert got == ("error", "generator for class 4 failed to converge")
    assert same_outcome(got, outcome(generate_one_at_a_time, LounestoClass.C4, 0, 1, tol=10.0))


def test_generated_currents_never_vanish():
    for target in ALL_SIX:
        for psi in lounesto.generate(target, seed=13, count=3):
            b = bilinear_covariants(psi)
            assert np.linalg.norm(b.J) > lounesto.DEFAULT_TOL * psi.norm() ** 2


def test_rescale_pinned_examples():
    assert lounesto.rescale_class_invariance(ClassicalSpinor([1, 0, 1, 0], cl.WEYL), 3.0)
    assert lounesto.rescale_class_invariance(ClassicalSpinor([1, 0, 0, 0], cl.WEYL), 1j)


def test_rescale_zero_factor_rejected(rng):
    with pytest.raises(ValueError, match="nonzero"):
        lounesto.rescale_class_invariance(random_spinor(rng), 0.0)


def test_rescale_zero_spinor_is_classify_row_error(rng):
    """A zero spinor in a batch is classify's RowError naming its row."""
    psi = ClassicalSpinor([random_spinor(rng).components, np.zeros(4)], cl.WEYL)
    with pytest.raises(cl.RowError, match="^zero spinor cannot be classified$") as caught:
        lounesto.rescale_class_invariance(psi, 2.0)
    assert caught.value.rows.tolist() == [False, True]


@given(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=1e3),
    st.integers(min_value=0, max_value=5),
)
def test_rescale_invariance_property(re, im, cls_index):
    c = complex(re, im)
    if abs(c) < 1e-3:
        return
    psi = lounesto.generate(ALL_SIX[cls_index], seed=17, count=1)[0]
    assert lounesto.rescale_class_invariance(psi, c)


def test_classify_tiny_spinor_on_its_ray():
    """(1e-200, 0, 1e-200, 0) has covariants below the smallest float64; the
    class comes from the rescaled ray, like that of (1, 0, 1, 0)."""
    tiny = lounesto.classify(ClassicalSpinor([1e-200, 0, 1e-200, 0], cl.WEYL))
    unit = lounesto.classify(ClassicalSpinor([1, 0, 1, 0], cl.WEYL))
    assert tiny.lounesto_class is unit.lounesto_class is LounestoClass.C2
    assert tiny.zero_flags == unit.zero_flags
    assert tiny.margin == pytest.approx(unit.margin, rel=1e-14)
    assert tiny.bilinears.sigma == 0.0


def test_classify_overflowing_covariants_rejected():
    with pytest.raises(ValueError, match="do not fit in float64"):
        lounesto.classify(ClassicalSpinor([1e200, 0, 1, 0], cl.WEYL))


def test_classify_reports_covariants_of_psi(rng):
    for scale in (1e-3, 1.0, 1e3):
        psi = ClassicalSpinor(scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4)), cl.DIRAC)
        got = lounesto.classify(psi).bilinears
        want = bilinear_covariants(psi)
        for name in ("sigma", "omega", "J", "K", "S"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@given(
    st.floats(min_value=-150, max_value=150),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.integers(min_value=0, max_value=5),
)
def test_rescale_invariance_over_three_hundred_decades(log10_abs, phase, cls_index):
    c = 10.0 ** log10_abs * np.exp(1j * phase)
    psi = lounesto.generate(ALL_SIX[cls_index], seed=17, count=1)[0]
    assert lounesto.rescale_class_invariance(psi, c)
