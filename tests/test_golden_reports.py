"""Golden digests of the file commands' reports.

classify, verify --mode fpk|boomerang|aggregate and reconstruct run in
process, as tests/test_command_scale_rule.py runs them, on seeded inputs:

* spinors of classes 1 to 6 in both representations from generate,
  scaled by 1, 1e-160, 1e-80, 1e60 and 1e150;
* the same spinors each scaled by its own 10^U(-150, 60);
* an error-row file with a zero spinor, a 1e200 and a 1e160 spinor among
  ordinary ones;
* the covariants that classify reports for each scaled file, and random
  covariant sets off the identities at 10^-200 to 10^300.

The sha256 of each report and the exit code must equal the recorded pair,
so a change that keeps the reports byte-stable is checked against every
row at once.  A change meant to alter a report updates its digest and says
which rows moved.

The digests were recorded with numpy 2.4 on an x86-64 CPU with AVX-512.
A numpy build or CPU whose kernels sum in another order prints other last
digits; there, record the digests again from a tree whose reports are
trusted before checking a change against them.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
import warnings

import numpy as np
import pytest

from spinorspace import cli

SCALES = {"x1": 1.0, "x1e-160": 1e-160, "x1e-80": 1e-80, "x1e60": 1e60, "x1e150": 1e150}
SPINOR_COMMANDS = {
    "classify": ["classify", "-"],
    "fpk": ["verify", "-", "--mode", "fpk"],
    "boomerang": ["verify", "-", "--mode", "boomerang"],
    "aggregate": ["verify", "-", "--mode", "aggregate"],
    "reconstruct": ["reconstruct", "-"],
}
COVARIANT_COMMANDS = ("fpk", "boomerang", "aggregate")

# (exit code, sha256 of stdout) of each command on each input
GOLDEN = {
    "classify-spinors-x1": (0, "6b5d2dae0fc32dd63935064174550087ab3aa14f8bdc5c501d48484a06bb4891"),
    "fpk-spinors-x1": (0, "dc01838d88bc1db05a04694bc794640a9ec52cd7a0b9a4bacca084fb8ef2d332"),
    "boomerang-spinors-x1": (0, "a9d77af96642126d6ff6e2409b3742f2fbbdb7c6af620aaac70b792c46495432"),
    "aggregate-spinors-x1": (0, "7a1acc353db082a9f01aa973457796e10b5196455423aa87a28237eda8d36b16"),
    "reconstruct-spinors-x1": (0, "a4a6390ac95fafa3241e18865f37b28646d58170e5f03f16c3444ed9952c3378"),
    "classify-spinors-x1e-160": (0, "48e9e69f9a72e0579c0cb2ca205e00d6b3bebdf0fd9ad8c66aa930e5efa7f807"),
    "fpk-spinors-x1e-160": (0, "7130f8d2a570c9146c5f3419ead40d5f566f308c0bef1f6193578e0f4f961934"),
    "boomerang-spinors-x1e-160": (0, "f159e338d96e78eb3e500af8a6f5a6fb50fdb6981779ca607b106f2ce0843b80"),
    "aggregate-spinors-x1e-160": (0, "3426476392ffb8b42aa22cbab4a23c71cb02c8a51ecaa7c1771ba0e5de721fb0"),
    "reconstruct-spinors-x1e-160": (0, "6a2e3362607992c2a8c707a35e3bd442774795c00170f47d46bd97b229512417"),
    "classify-spinors-x1e-80": (0, "0a2615580fc1d6d5c7f8aaa9eebc13ccf3e298f8df305f38b2c24e6a90e0486d"),
    "fpk-spinors-x1e-80": (0, "0fe27abf011df71f00c876dadb277fed49344add56b954d16db8b30e777d5753"),
    "boomerang-spinors-x1e-80": (0, "522f40cb7c744bcefe08d863bc1181c3a7cc7f0d60e8d423ca0d38d027f9d9b7"),
    "aggregate-spinors-x1e-80": (0, "65502c2dede3886a03dd991b4a437b7fade0525e9f0a2976900284cbbb738d4d"),
    "reconstruct-spinors-x1e-80": (0, "08520e756aa64bb89d8e76939d591b00728242fcb774da68daea3c8cc3b7d759"),
    "classify-spinors-x1e60": (0, "53caca047b7a1a40159ba3cac990296df9ae3a25826a52592da6b3593c025447"),
    "fpk-spinors-x1e60": (0, "d71794cf891de0addbd40e450fca29f2b142c3a72206513d42721a74bc87974a"),
    "boomerang-spinors-x1e60": (0, "d5e44f74b665c2d9d4287a520f6ea8bf01809806d4c857f14fed4cecb5a6e4a2"),
    "aggregate-spinors-x1e60": (0, "c6c5e84866c9cb627a259f6a06a4d0b138c37fbb13ccd674c8caf2818e9beef6"),
    "reconstruct-spinors-x1e60": (0, "9cdc835b9c41a76808aa59f363bbd6e3b82cddc797504605ca780e2ee6be29e9"),
    "classify-spinors-x1e150": (0, "83aa97220a4c3b0ab9765229bcbeeb4fc40dfae02d4a2888745007e112360cf1"),
    "fpk-spinors-x1e150": (1, "4e7e803590e3ea81a6613ab9ec396e8f45f6d27b458c376a84dac55aa53498e4"),
    "boomerang-spinors-x1e150": (1, "8c4166e6424ec9db549da1db942f4fef83766245f9b5c4944f147f28b2cccb0a"),
    "aggregate-spinors-x1e150": (1, "fa621e66cdd8a33e77a95bbf62d05e3f7473388bab4cb83e3c9f8f91ae2e76bc"),
    "reconstruct-spinors-x1e150": (0, "87dcf681d94578665db0c851f0d7b5822157cedee726ef5cbe91dc06024a9abf"),
    "classify-spinors-mixed": (0, "b75288c2359ecc1b98034e2f4e690f3d050cc2921709aeb292953c521116460f"),
    "fpk-spinors-mixed": (0, "726b1168c0b4a47e66a55148d6097a227bd6e783a57f248ce336dd21ff52bddd"),
    "boomerang-spinors-mixed": (0, "0708c30a51d21da4856b07166d2029e790c3634236642442b9eabccd9a57a4f8"),
    "aggregate-spinors-mixed": (0, "8fcc7b063d76f56c4b3a7e8b52b6d0aa7e91586390dbff96788d81ed2c31c9c6"),
    "reconstruct-spinors-mixed": (0, "54e7ac7dded98ec05f50a1761672dabcef3268c215115c2139ee6e6884e54a71"),
    "classify-spinors-errors": (0, "d2c13cdf0f39b537a4dade258742a9de4223761f86ba6a696bbf6e7b0f7d1a01"),
    "fpk-spinors-errors": (1, "9fa496d4cd824f91f87de1e7a92ab8e936e39c70a89e457db34b4599819a71e0"),
    "boomerang-spinors-errors": (1, "3a516185e005682727312418f9001b222580f9ff05595a31e965fb6223151bbb"),
    "aggregate-spinors-errors": (1, "077954538bae2256eec592bc61468f85ed0ce107e9477304aac436fb7e30232a"),
    "reconstruct-spinors-errors": (1, "d91deb1106d78a631d4eb85cce19888c7dd2505f198e17c310ab68ac6381c67e"),
    "fpk-covariants-x1": (0, "ddc00f66dc20581d64f734a1837c60744d9ef77aafa72cf7e52de9f7310fce39"),
    "boomerang-covariants-x1": (0, "78f20a8b61b17118ec1cd8437d1aec45cbd7ba744d77cc3ede69a5a756405bcd"),
    "aggregate-covariants-x1": (0, "4a5ba76a36dee3881664d7590e5498223e67a35663b11dce3439129b01695774"),
    "fpk-covariants-x1e-160": (1, "4eb4460d904d510f2ecbfb06e1d6cf4c4889b5db0a458832c9bceda7acb0123d"),
    "boomerang-covariants-x1e-160": (1, "2b4ded6b9167f416bc87810181d5044f2909dd7044889eeb88826459f218d648"),
    "aggregate-covariants-x1e-160": (1, "3bfbacd9ddd727d758e73ca6b06b1ba95c1d580affa5c5d464f5bb1853ae466f"),
    "fpk-covariants-x1e-80": (0, "8a6e16b19ffac27d770fb587d7d4e2683d31bcd3f69be69d1c9175f824a9b74c"),
    "boomerang-covariants-x1e-80": (0, "484ce6f28915d0d15d4d4586c0b9fdad104c214446b6a24f4f409f43d6965189"),
    "aggregate-covariants-x1e-80": (0, "fc3d9e1c6e79dad7642ff15a0cc96240bb18ebed26089a20b00516f5696461ff"),
    "fpk-covariants-x1e60": (0, "addbd5f539c4c23fac9dd4dad9159f975ff589b89ef801f5a2013665d658a969"),
    "boomerang-covariants-x1e60": (0, "b19f3019c516af51ab9abefce7678c3e2988beb9f49f28a9fed4ea562892c994"),
    "aggregate-covariants-x1e60": (0, "dd15af48b59a9db58b9bb657d8bbb7e58afd297cbebf9c98cde083da66f48b01"),
    "fpk-covariants-x1e150": (1, "2c65a9347170b63ea79901ddb2de74f16a8fcd12c49eabda76aa08390cdcf279"),
    "boomerang-covariants-x1e150": (1, "521379f4584d08c9c822d3111df5a7cad98394fd00607952d64ad59bb5ba80e5"),
    "aggregate-covariants-x1e150": (1, "f244586d53c50c64d358090a7dd727c9ed94c1e4e71a3f3893ba02655607e235"),
    "fpk-covariants-anomalous": (1, "50d313246156febad88250de519d851d969e6553d767784b05148d33d811d05b"),
    "boomerang-covariants-anomalous": (1, "3371b8df768fcc6ac28f7c1e4d562681f8b1404b6b4df6a10574f77541059d34"),
    "aggregate-covariants-anomalous": (1, "8890a0eb50719e05f73e6bf8f7db0bce9a4ddfc2f8f255ecdc38f3d6e5852742"),
}


def run(argv, text):
    """Exit code and stdout of one command run in process on text; it must
    write nothing to stderr and raise no warning."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    assert err.getvalue() == ""
    return code, out.getvalue()


def spinor_doc(ids, reps, comps):
    return {"version": 1, "entries": [
        {"id": i, "rep": rep, "components": [[z.real, z.imag] for z in c.tolist()]}
        for i, rep, c in zip(ids, reps, comps)]}


@functools.lru_cache(maxsize=None)
def generated():
    """Ids, reps and components of three generated spinors of each class
    and representation, seed 5."""
    ids, reps, comps = [], [], []
    for cls in "123456":
        for rep in ("weyl", "dirac"):
            code, text = run(["generate", "--class", cls, "--rep", rep, "--count", "3", "--seed", "5"], "")
            assert code == 0
            for entry in json.loads(text)["entries"]:
                ids.append(entry["id"] + "-" + rep)
                reps.append(rep)
                comps.append(np.array(entry["components"]).view(np.complex128)[:, 0])
    return ids, reps, np.array(comps)


def covariant_doc(classify_text):
    """The covariant file of the rows classify reported."""
    keys = ("id", "sigma", "omega", "J", "K", "S")
    return {"version": 1, "entries": [{key: row[key] for key in keys}
                                      for row in json.loads(classify_text)["results"] if "error" not in row]}


@functools.lru_cache(maxsize=None)
def inputs() -> dict:
    """Every input file as JSON text, by name."""
    ids, reps, comps = generated()
    files = {f"spinors-{name}": spinor_doc(ids, reps, comps * s) for name, s in SCALES.items()}
    rng = np.random.default_rng(16)
    files["spinors-mixed"] = spinor_doc(ids, reps, comps * 10.0 ** rng.uniform(-150, 60, (len(ids), 1)))
    error_rows = [comps[0], np.zeros(4), comps[1] * 1e200, comps[2], comps[3] * 1e160, np.zeros(4), comps[4]]
    files["spinors-errors"] = spinor_doc([f"e{k}" for k in range(7)], ["weyl", "weyl", "dirac", "weyl", "weyl",
                                                                     "dirac", "dirac"], error_rows)
    text = {name: json.dumps(doc) for name, doc in files.items()}
    for name in SCALES:
        code, report = run(SPINOR_COMMANDS["classify"], text[f"spinors-{name}"])
        assert code == 0
        text[f"covariants-{name}"] = json.dumps(covariant_doc(report))
    v = rng.standard_normal((12, 16)) * 10.0 ** np.repeat(np.arange(-200, 301, 100), 2)[:, None]
    text["covariants-anomalous"] = json.dumps({"version": 1, "entries": [
        {"id": f"a{k}", "sigma": row[0], "omega": row[1], "J": row[2:6].tolist(), "K": row[6:10].tolist(),
         "S": row[10:].tolist()} for k, row in enumerate(v)]})
    return text


RUNS = {f"{command}-spinors-{name}": (command, f"spinors-{name}")
        for name in list(SCALES) + ["mixed", "errors"] for command in SPINOR_COMMANDS}
RUNS.update({f"{command}-covariants-{name}": (command, f"covariants-{name}")
             for name in list(SCALES) + ["anomalous"] for command in COVARIANT_COMMANDS})


def digest(name):
    command, source = RUNS[name]
    code, text = run(SPINOR_COMMANDS[command], inputs()[source])
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", RUNS)
def test_report_matches_its_golden_digest(name):
    assert digest(name) == GOLDEN[name]


def test_every_run_has_a_digest():
    assert sorted(GOLDEN) == sorted(RUNS)
