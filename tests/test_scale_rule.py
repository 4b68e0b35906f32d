"""The FPK pass rule at every scale.

A covariant set passes an identity when |r_k| <= tol * component_norm^2.
Where that arithmetic stays normal, fpk_membership, classify_bilinears and
the verify --mode fpk columns decide exactly as the rule on the set itself;
outside that band they decide as the rule does on the set scaled back to
unit size, so a set classifies and verifies alike at every scale.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinorspace import cli, fierz, lounesto, topology
from spinorspace.bilinears import BilinearSet, bilinear_covariants
from spinorspace.clifford import WEYL
from spinorspace.spinor_forms import ClassicalSpinor

TOLS = (1e-14, 1e-10, 1e-6)
CLASS1 = [1, 2j, 0.5, 1 + 1j]

# a part is 0 or of magnitude at least 1e-3, so that with scales down to
# 1e-70 no product of covariants reaches the subnormal band
PARTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def covariant_batches(draw):
    """Covariants of 1 to 4 spinors with |psi| from about 1e-70 to 1e70,
    each set moved off the identities by a relative 10^-d."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        parts = np.array(draw(st.lists(PARTS, min_size=8, max_size=8)))
        if not parts.any():
            parts[0] = 1.0
        psi = ClassicalSpinor(parts.view(np.complex128) * 10.0 ** draw(st.floats(-70, 70)), WEYL)
        v = bilinear_covariants(psi).stack()
        nudge = np.array(draw(st.lists(PARTS, min_size=16, max_size=16)))
        rows.append(v + np.abs(v).max() * 10.0 ** -draw(st.integers(5, 17)) * nudge)
    return BilinearSet.from_stack(np.array(rows))


@given(covariant_batches())
def test_fpk_decisions_follow_the_rule_on_the_set(b):
    """Bit for bit the rule |r| <= tol * component_norm^2 on the set itself,
    with the zero pattern against tol * component_norm."""
    scale = b.component_norm()
    res = fierz.fpk_residuals(b).stack()
    for tol in TOLS:
        within = np.abs(res) <= tol * scale[:, None] ** 2
        pattern, _, _ = lounesto._pattern(b.stack(), scale, tol)
        expected = np.where(within.all(axis=-1), pattern, lounesto.LounestoClass.ANOMALOUS)
        assert topology.fpk_membership(b, tol).tolist() == within.all(axis=-1).tolist()
        assert lounesto.classify_bilinears(b, tol).tolist() == expected.tolist()
        columns = cli._verify_rows(b, "fpk", tol)
        for k in range(4):
            assert columns[f"r{k + 1}"].tobytes() == res[:, k].tobytes()
            assert columns[f"pass_per_identity.r{k + 1}"].tolist() == within[:, k].tolist()
        assert columns["pass"].tolist() == within.all(axis=-1).tolist()


@pytest.mark.parametrize("s", [1e-200, 1e-160, 1e154, 1e200, 1e300])
def test_class_one_set_holds_at_extreme_scales(s):
    """The class-1 covariants of one spinor, scaled far past where their
    squares fit in float64, still classify as C1 and pass the identities,
    with no warning; one batch decides as its single sets."""
    v = bilinear_covariants(ClassicalSpinor(CLASS1, WEYL)).stack() * s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lounesto.classify_bilinears(BilinearSet.from_stack(v)) is lounesto.LounestoClass.C1
        assert topology.fpk_membership(BilinearSet.from_stack(v)) is True
        batch = BilinearSet.from_stack([v, v])
        assert lounesto.classify_bilinears(batch).tolist() == [lounesto.LounestoClass.C1] * 2
        assert topology.fpk_membership(batch).tolist() == [True, True]


def tiny_spinor_doc():
    components = np.array(CLASS1) * 1e-80
    return {"version": 1, "entries": [{"id": "tiny", "rep": "weyl",
                                       "components": [[z.real, z.imag] for z in components]}]}


def tiny_covariant_doc():
    v = bilinear_covariants(ClassicalSpinor(CLASS1, WEYL)).stack() * 1e-160
    return {"version": 1, "entries": [{"id": "tiny", "sigma": v[0], "omega": v[1], "J": v[2:6].tolist(),
                                       "K": v[6:10].tolist(), "S": v[10:].tolist()}]}


@pytest.mark.parametrize("doc", [tiny_spinor_doc, tiny_covariant_doc], ids=["spinor-1e-80", "covariants-1e-160"])
def test_verify_fpk_passes_tiny_class_one_input(tmp_path, capsys, doc):
    """Residuals and tol * norm^2 that are subnormal or zero at the input's
    scale: the flags are decided on the ray and pass, as classify's class 1."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc()))
    code = cli.main(["verify", str(path), "--mode", "fpk"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    report = json.loads(out.out)
    assert report["all_pass"] is True
    row = report["results"][0]
    assert row["pass"] is True and all(row["pass_per_identity"].values())
