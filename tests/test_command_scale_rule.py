"""One scale rule for the spinor and covariant rows of the file commands.

classify, verify and reconstruct compute each row on its power-of-two ray
and report absolute values at the row's own scale through an exact ldexp.
So where the arithmetic at the row's own scale stays normal, every row is
the own-scale computation bit for bit; a spinor scaled by 2^k gives the
same flags and relative residuals, with absolute values scaled exactly;
and an entry gets an error row only where its own-scale values do not fit
in float64: its covariants for every command, their squared norm or
residuals for verify.
"""

import contextlib
import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinorspace import cli, fierz, lounesto
from spinorspace.bilinears import bilinear_covariants
from spinorspace.clifford import DIRAC, WEYL, RowError
from spinorspace.spinor_forms import ClassicalSpinor

COMMANDS = {
    "classify": ["classify", "-"],
    "fpk": ["verify", "-", "--mode", "fpk"],
    "boomerang": ["verify", "-", "--mode", "boomerang"],
    "aggregate": ["verify", "-", "--mode", "aggregate"],
    "reconstruct": ["reconstruct", "-"],
}
VERIFY_TOL, RECONSTRUCT_TOL = lounesto.DEFAULT_TOL, 1e-9
REPS = {"weyl": WEYL, "dirac": DIRAC}

# a part is 0 or of magnitude at least 1e-3, so that with |psi| down to 1e-60
# no product of covariants reaches the subnormal band
PARTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def spinors(draw):
    """(components, rep) of a nonzero spinor with |psi| from about 1e-60 to 1e60."""
    parts = np.array(draw(st.lists(PARTS, min_size=8, max_size=8)))
    if not parts.any():
        parts[0] = 1.0
    return parts.view(np.complex128) * 10.0 ** draw(st.floats(-60, 60)), draw(st.sampled_from(sorted(REPS)))


def spinor_doc(rows):
    return {"version": 1, "entries": [
        {"id": f"e{i}", "rep": rep, "components": [[z.real, z.imag] for z in comps]}
        for i, (comps, rep) in enumerate(rows)]}


def run(command, doc):
    """Exit code and report of one command run in process on doc; it must
    write nothing to stderr and raise no warning."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(COMMANDS[command])
    finally:
        sys.stdin = stdin
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def own_scale_rows(comps, rep):
    """The verify and reconstruct rows of one spinor by the public API at
    its own scale: the covariants, the FPK rule |r_k| <= tol |b|^2, the
    boomerang residual, the aggregate ratio and the reconstruction.  The
    spinor is a batch of one, as in the command's blocks: the norms of a
    single spinor are sums in another order, and a numpy scalar's ** 2 is
    not always x * x."""
    psi = ClassicalSpinor(comps[None], REPS[rep])
    b = bilinear_covariants(psi)
    res = fierz.fpk_residuals(b).stack()[0]
    within = np.abs(res) <= VERIFY_TOL * (b.component_norm() ** 2)[0]
    z = fierz.aggregate(b)
    boomerang = fierz.boomerang_residual(z, b.sigma)[0]
    zscale = np.maximum(z.norm() ** 2, 1e-300)[0]
    res5 = fierz.generalized_fpk_residuals(z, b)[0]
    recovered = fierz.reconstruct(z, fierz.default_probe_spinor(z, psi.rep), psi_ref=psi)
    err = np.abs(recovered.components - psi.components).max()
    return {
        "fpk": {"r": res, "pass_per_identity": within, "pass": within.all()},
        "boomerang": {"residual": boomerang, "pass": boomerang <= VERIFY_TOL},
        "aggregate": {"residuals": res5 / zscale, "pass": res5.max() <= VERIFY_TOL * zscale},
        "reconstruct": {"max_abs_error": err, "pass": err <= RECONSTRUCT_TOL * psi.norm()[0]},
    }


def fpk_r(row):
    return [row[f"r{k}"] for k in range(1, 5)]


@given(st.lists(spinors(), min_size=1, max_size=4))
def test_rows_are_the_own_scale_route_bit_for_bit(rows):
    """Where the own-scale arithmetic stays normal, computing on the ray
    changes no flag and no printed bit."""
    doc = spinor_doc(rows)
    reports = {command: run(command, doc)[1]["results"] for command in ("fpk", "boomerang", "aggregate", "reconstruct")}
    for i, (comps, rep) in enumerate(rows):
        expected = own_scale_rows(comps, rep)
        fpk = reports["fpk"][i]
        assert bits(fpk_r(fpk)) == bits(expected["fpk"]["r"])
        assert list(fpk["pass_per_identity"].values()) == expected["fpk"]["pass_per_identity"].tolist()
        assert fpk["pass"] == expected["fpk"]["pass"]
        for command, field in (("boomerang", "residual"), ("aggregate", "residuals"), ("reconstruct", "max_abs_error")):
            row = reports[command][i]
            assert bits(row[field]) == bits(expected[command][field])
            assert row["pass"] == expected[command]["pass"]


@given(spinors(), st.integers(-1074, 1023))
def test_rows_of_psi_times_two_to_the_k(spinor, k):
    """psi * 2^k, exact and with covariants that fit in float64, gives the
    rows of psi: the same class, flags and relative residuals, fpk
    residuals times 4^k and max_abs_error times 2^k."""
    comps, rep = spinor
    parts = comps.view(np.float64)
    v = bilinear_covariants(ClassicalSpinor(comps, REPS[rep])).stack()
    with np.errstate(over="ignore"):
        scaled = np.ldexp(parts, k)
        covariants_fit = np.isfinite(np.ldexp(v, 2 * k)).all()
        norm_fits = np.isfinite(np.ldexp(np.sum(v * v), 4 * k))
    assume(np.array_equal(np.ldexp(scaled, -k), parts) and covariants_fit)
    commands = ["classify", "reconstruct"] + (["fpk", "boomerang", "aggregate"] if norm_fits else [])
    for command in commands:
        code, report = run(command, spinor_doc([spinor]))
        scaled_code, scaled_report = run(command, spinor_doc([(scaled.view(np.complex128), rep)]))
        assert scaled_code == code
        row, scaled_row = report["results"][0], scaled_report["results"][0]
        if command == "classify":
            assert scaled_row["class"] == row["class"]
        elif command == "fpk":
            assert bits(fpk_r(scaled_row)) == bits(np.ldexp(fpk_r(row), 4 * k))
            assert (scaled_row["pass_per_identity"], scaled_row["pass"]) == (row["pass_per_identity"], row["pass"])
        elif command == "reconstruct":
            assert bits(scaled_row["max_abs_error"]) == bits(np.ldexp(row["max_abs_error"], k))
            assert scaled_row["pass"] == row["pass"]
        else:
            assert json.dumps(scaled_row) == json.dumps(row)


def nineteen_spinors():
    """The class-1 spinor (1, 2i, 0.5, 1+i) and three generated spinors of
    each class 1 to 6, seed 11."""
    spinors = [np.array([1, 2j, 0.5, 1 + 1j])]
    for cls in range(1, 7):
        spinors += [psi.components for psi in lounesto.generate(lounesto.LounestoClass(str(cls)), 11, 3)]
    return np.array(spinors)


def own_scale_unfit(comps):
    """Whether the covariants of the spinor, at its own scale, and their
    squared norm overflow float64."""
    with np.errstate(all="ignore"):
        try:
            v = bilinear_covariants(ClassicalSpinor(comps, WEYL)).stack()
        except RowError:
            return True, True
        return False, not np.isfinite(np.sum(v * v))


def test_error_rows_only_where_own_scale_values_overflow():
    """The nineteen spinors at 1e-320 to 1e160 by ten decades, and the
    spinor (5e-324, 0, 0, 0): classify and reconstruct give an error row
    exactly where the covariants overflow, verify also where their squared
    norm does, and every other verify and reconstruct row passes."""
    comps = [c * 10.0 ** d for d in range(-320, 161, 10) for c in nineteen_spinors()]
    comps.append(np.array([5e-324, 0, 0, 0]))
    unfit = np.array([own_scale_unfit(c) for c in comps])
    assert unfit[:, 0].any() and (unfit[:, 1] & ~unfit[:, 0]).any()
    doc = spinor_doc([(c, "weyl") for c in comps])
    for command in COMMANDS:
        _, report = run(command, doc)
        verify = command in ("fpk", "boomerang", "aggregate")
        expected = ["covariants do not fit in float64" if cov else "residuals do not fit in float64"
                    if norm and verify else None for cov, norm in unfit]
        assert [row.get("error") for row in report["results"]] == expected, command
        if command != "classify":
            assert all(row["pass"] for row in report["results"] if "error" not in row), command


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0, 1e150])
@pytest.mark.parametrize("mode", ["fpk", "boomerang", "aggregate"])
def test_broken_covariant_sets_fail_at_every_scale(mode, scale):
    """Random N(0, 1) covariant sets break every identity; scaled down to
    where their squares underflow they still fail."""
    v = np.random.default_rng(1).standard_normal((4, 16)) * scale
    doc = {"version": 1, "entries": [
        {"id": f"b{i}", "sigma": r[0], "omega": r[1], "J": r[2:6].tolist(), "K": r[6:10].tolist(),
         "S": r[10:].tolist()} for i, r in enumerate(v)]}
    code, report = run(mode, doc)
    assert code == 1
    assert [row["pass"] for row in report["results"]] == [False] * 4
