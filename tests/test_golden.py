"""Byte-for-byte pins of reports, computed values, files and failure texts.

A change that leaves the mathematics alone leaves every entry here as it
is: the structured ``verify`` report of each default entry and suite, the
structured ``compute`` output, the files ``twist`` and
``serialize_structure`` write, and the failing reports and error texts of
deliberately broken inputs.  Reports and outputs are pinned by sha256
digest (``--seed 0 --trials 2``, run in-process through ``cli.main``);
error texts are pinned literally.

To see the current values, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from qhakit import cli
from qhakit.antipode import compute_v
from qhakit.catalog import CatalogEntry, builtin
from qhakit.drinfeld import (compute_drinfeld_twist, compute_gamma, compute_gamma_bar,
                             compute_second_drinfeld, opposite_drinfeld)
from qhakit.dynamical import DynamicalTwist, ShiftSystem
from qhakit.errors import QhaError
from qhakit.qtriangular import altschuler_coste_operator
from qhakit.report import Report
from qhakit.serial import serialize_structure
from qhakit.structures import (QuasiAntipode, QuasiBialgebra, verify_quasi_antipode,
                               verify_rmatrix)
from qhakit.suites import SUITE_NAMES, run_suites
from qhakit.tensor import LinearMap, tensor_of
from qhakit.twists import Twist

ENTRIES = ("trivial", "group_z3", "z2_triangular", "sweedler_h4", "semion")

COMPUTE_JOBS = [(name, what) for name in ("sweedler_h4", "semion")
                for what in ("drinfeld", "second-drinfeld", "gamma", "gammabar", "u", "v",
                             "invariants", "ac-operator")] + [("group_z3", "v")]

TWIST_JOBS = [("semion", "0"), ("sweedler_h4", "1"), ("group_z3", "2")]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report) -> str:
    return _digest(json.dumps(report.to_dict(), sort_keys=True))


def _cli(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _outcome(fn) -> str:
    """"ok" for a clean return, else the error class and text."""
    try:
        fn()
    except QhaError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _suite_outcome(entry, suite) -> str:
    """The report digest of one suite, or the error class and text it raised."""
    try:
        (report,) = run_suites(entry, suite, seed=0, trials=1)
    except QhaError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _report_digest(report)


# -- the broken inputs --------------------------------------------------------

def _z2_non_cocycle_family() -> CatalogEntry:
    """A twist family on k[Z/2] whose p(x)p coefficient is not 1-periodic."""
    t = builtin("z2_triangular").structure
    alg = t.algebra
    one, g = alg.unit_element, alg.basis_element(1)
    half = Fraction(1, 2)
    p0, p1 = half * one + half * g, half * one - half * g
    domain = [Fraction(k, 2) for k in range(5)]
    twists = {lam: Twist(alg.tensor_unit(2) + tensor_of(p1, p1).scale(1 if lam < 1 else 2),
                         t.counit)
              for lam in domain}
    shift = ShiftSystem([p0, p1], [0, 1])
    return CatalogEntry("z2_non_cocycle", t, dynamical=DynamicalTwist(domain, twists, shift))


def _semion_perturbed_r():
    s = builtin("semion").structure
    g = s.algebra.basis_element(1)
    return QuasiBialgebra(s.algebra, s.coproduct, s.counit, s.phi, s.phi_inv, s.antipode,
                          s.r + tensor_of(g, g).scale(Fraction(1, 3)), verify=False)


def _with_antipode(h, s, s_inv, alpha=None, beta=None):
    anti = QuasiAntipode(s, h.alpha if alpha is None else alpha,
                         h.beta if beta is None else beta, s_inv=s_inv)
    return QuasiBialgebra(h.algebra, h.coproduct, h.counit, h.phi, h.phi_inv, anti,
                          h.r, h.r_inv, verify=False)


def _sweedler_wrong_alpha():
    h = builtin("sweedler_h4").structure
    return _with_antipode(h, h.s, h.s_inv, alpha=2 * h.alpha)


def _sweedler_inverse_antipode():
    """S^{-1} in place of S: an anti-automorphism, but not an antipode."""
    h = builtin("sweedler_h4").structure
    return _with_antipode(h, h.s_inv, h.s)


def _sweedler_mutated_coproduct():
    """Delta(x) = x (x) g + 1 (x) x in place of x (x) 1 + g (x) x."""
    h = builtin("sweedler_h4").structure
    alg = h.algebra
    one, g, x = (alg.basis_element(i) for i in range(3))
    cols = list(h.coproduct.columns)
    cols[2] = tensor_of(x, g) + tensor_of(one, x)
    return QuasiBialgebra(alg, LinearMap(alg, cols), h.counit, h.phi, h.phi_inv,
                          h.antipode, h.r, h.r_inv, verify=False)


def _group_z3_identity_antipode():
    """(h, S~) with S~ = id on k[Z/3]: every closed form of v agrees, S~ is no conjugate of S."""
    h = builtin("group_z3").structure
    alg = h.algebra
    w = alg.unit_element + alg.basis_element(1)
    ident = LinearMap.identity(alg)
    return h, QuasiAntipode(ident, w * h.alpha, h.beta * w.inverse())


DRINFELD_OPERATIONS = {
    "compute_gamma": compute_gamma,
    "compute_gamma_bar": compute_gamma_bar,
    "compute_drinfeld_twist": compute_drinfeld_twist,
    "compute_second_drinfeld": compute_second_drinfeld,
    "opposite_drinfeld": opposite_drinfeld,
    "altschuler_coste_operator": altschuler_coste_operator,
}

BROKEN = {
    "wrong_alpha": _sweedler_wrong_alpha,
    "inverse_antipode": _sweedler_inverse_antipode,
    "mutated_coproduct": _sweedler_mutated_coproduct,
}


# -- what the code gives now ----------------------------------------------------

def observed_verify(name, suite):
    code, out = _cli(["verify", name, "--suite", suite, "--seed", "0", "--trials", "2",
                      "--format", "structured"])
    return [code, _digest(out)]


def observed_compute(name, what):
    argv = ["compute", name, what, "--seed", "0", "--format", "structured"]
    if what == "invariants":
        argv.insert(3, "2")
    code, out = _cli(argv)
    return [code, _digest(out)]


def observed_twist(name, seed):
    code, out = _cli(["twist", name, "--generate-seed", seed])
    return [code, _digest(out)]


def observed_failures():
    out = {}
    out["serialize/z2_triangular"] = _digest(serialize_structure(builtin("z2_triangular")))
    family = _z2_non_cocycle_family()
    out["non_cocycle_family/dynamical"] = _suite_outcome(family, "dynamical")
    bad_r = _semion_perturbed_r()
    out["perturbed_r/verify_rmatrix"] = _report_digest(verify_rmatrix(bad_r))
    for suite in SUITE_NAMES:
        out[f"perturbed_r/{suite}"] = _suite_outcome(CatalogEntry("semion_bad_r", bad_r),
                                                     suite)
    wrong = _sweedler_wrong_alpha()
    out["wrong_alpha/verify_quasi_antipode"] = _report_digest(verify_quasi_antipode(wrong))
    for suite in SUITE_NAMES:
        out[f"wrong_alpha/{suite}"] = _suite_outcome(CatalogEntry("sweedler_bad_alpha", wrong),
                                                     suite)
    for label, build in BROKEN.items():
        for op, fn in DRINFELD_OPERATIONS.items():
            out[f"{label}/{op}"] = _outcome(lambda: fn(build()))
    out["identity_antipode/compute_v"] = _outcome(
        lambda: compute_v(*_group_z3_identity_antipode()))
    return out


# -- the pins -------------------------------------------------------------------

GOLDEN_VERIFY = {
    'group_z3/axioms': [0, 'e2cdd9edc99560ad0fd6f560df2e8a144d09785e2d3bb41a0563ef9353f3fa2e'],
    'group_z3/drinfeld': [0,
                          '387decd3ecb1f141e5d51664290f1bfbec86d14bbcb5afa1ea25666fe322cea5'],
    'group_z3/dynamical': [0,
                           'e0d95ecb83c9f88ca51856cf201cb2dc24884d2cf158d48f9d63acc199884bbf'],
    'group_z3/qtriangular': [0,
                             '528738929725acd12d1e4cf0c5b34ad3b55f42ac296c3ef5c899c7293e4305ef'],
    'group_z3/twist': [0, '9641e8e4af6596d6ff949b74558291771a35bef83e31d896ba599834cc0def80'],
    'semion/axioms': [0, 'dbc3df2e946a17693da40005e04a71dee898a57579119f3a6fc6a572eb9cd800'],
    'semion/drinfeld': [0, '0d1b56b9e8f49fe8f7f5d6c0ed01a3337754ba8b30446874efe2729d9cda8e78'],
    'semion/dynamical': [0,
                         '27a9d94b51e4869a98b99d260b644999dc05415236aaa38e59bf33631e5abebd'],
    'semion/qtriangular': [0,
                           '1cb82988b2059beefcfb4bc8c168f870425a04d1a83cff63d83d0d5bb06aeb47'],
    'semion/twist': [0, '4eef6729b4cc0906aa4b88b74d4cc2b7c19b73c8c29eb521842f7930a1bd3289'],
    'sweedler_h4/axioms': [0,
                           '51e7d8b95e0368896f3a188cdf54201dc74d37619e76bc88b339699de1338ee3'],
    'sweedler_h4/drinfeld': [0,
                             'ddd55de667d580b39bfdda5320b5b5f6a080fcebc5cedc87df82f4dc86690132'],
    'sweedler_h4/dynamical': [0,
                              '91e344e8210547b5d86119824dbaedc280c9a39554c4e551158f98898ed3efe3'],
    'sweedler_h4/qtriangular': [0,
                                '0aac1ff9c2e93b50b1713c587cc9345745173b53612a4c9ec7b6e47f6fa58b49'],
    'sweedler_h4/twist': [0,
                          'a636a161f9f048b881a8c6bc9a4f424308c6c5e5ec4469a0cc586d82cc125f08'],
    'trivial/axioms': [0, '1ae7eb6d0104272ddc719f007542f83109118c746f415ced30996d2c2095fc48'],
    'trivial/drinfeld': [0,
                         '58b8ec76f312e84d50c0a04fc2fe40c11294f5aeb4cdd6ccb592a2536c83df1f'],
    'trivial/dynamical': [0,
                          '1da66ae09df2af812b685bd194c45bbbc57b3840320b2c1c621bd1cdf3172df2'],
    'trivial/qtriangular': [0,
                            '3564f7636a6d6f396ec7d68b73f74bfa1f089d5920f176077a1e3ee23460d8b2'],
    'trivial/twist': [0, '472a0a4b2beb99890534468e3c116fdffd919998f8099d25f84ad09e48f21b6d'],
    'z2_triangular/axioms': [0,
                             'bf3dc5a9e104529b02b14abeb126bda55f58b47f3e6e2931c4f80cd4e3913967'],
    'z2_triangular/drinfeld': [0,
                               'e1e2ecffeff64096cedef4f44dcc09cc01088b624b303236942864d06aaea055'],
    'z2_triangular/dynamical': [0,
                                'b2d14ae7c7c1939924d30e3bd7279aab2da0176599b365a1f8623bef41401e29'],
    'z2_triangular/qtriangular': [0,
                                  'fdddca5a46a624d6e678775c76ab1cb450a13e0d559d6d512a90ff9c7964a763'],
    'z2_triangular/twist': [0,
                             'bf0faa858955fe1a4d9ae162de204d04b836258c9ada0c5b477318627c8a4475'],
}

GOLDEN_COMPUTE = {
    'group_z3/v': [0, '0b122d68500f98b1af2a674409fb926aa06c33a0eb03dcde8e96732a8e3ecc7d'],
    'semion/ac-operator': [0,
                           '4950aa612570adc8f83b13b043a031ba969d92d3f86251240b18e60472d70bbc'],
    'semion/drinfeld': [0, 'ac7a5cb4c68aae386ae4eb4227a49fd7e6589cebd17c54ff27dc9a35f25e9cfb'],
    'semion/gamma': [0, 'fec41d9f6a7ff1ead03d2f31095b5af14b18a104d29ad50e8c8805f639b4ec4f'],
    'semion/gammabar': [0, '20dc2ce492e676f5178ce045d99b09cef185c220c0085df732f1c86e3cc2d3aa'],
    'semion/invariants': [0,
                          '93ce092d10f452920032f4d353d09dc40dfb636f23907f642bb756438e1f66e5'],
    'semion/second-drinfeld': [0,
                               '7c21d3426e04f78fd86afaf8fbe76a1961d1f3dd24dc204d43cfa0050ec79fd8'],
    'semion/u': [0, '566e2611c40bdeb224cc2092044db01da8b7bd09505d9b47943bfa3abbfc757e'],
    'semion/v': [0, 'b404f9e3009b29f61b03922613dc4a70ee2094ab6218cc404df9bb862fa079ae'],
    'sweedler_h4/ac-operator': [0,
                                '5c4f46bf77ed1dd92567e180f1872dd84d5158b3c4f6483b1f1adbe458ff665c'],
    'sweedler_h4/drinfeld': [0,
                             'fe94a550670f8a687940bd1b2865c7990f35733d5157a1dab4beb192dff75d66'],
    'sweedler_h4/gamma': [0,
                          'a0f4ac4ad88f25056163ce417bdf9e2d935ea6118998eebc637dfb1e8a9e55c7'],
    'sweedler_h4/gammabar': [0,
                             '78fafc105fa4407ef7ca13531e7feadedaf97a47427523f5560def758fb9942d'],
    'sweedler_h4/invariants': [0,
                               '3d2187c60d8fe83e31640371fc315189c4a1a26b256327f481b282b84a97bf7f'],
    'sweedler_h4/second-drinfeld': [0,
                                    '4aac6c820273799d6bfffbe3ba7342cd21c123597638af20db4ab6e277b09de7'],
    'sweedler_h4/u': [0, '020efeda2bae31197429b76feb21ed3c842b925e234f4b855fffee8d570b94bc'],
     'sweedler_h4/v': [0, '635dcaa6317c25c6d2384ac2dec41c13d0537a0f3eb490bc4071f19d3aadfe26'],
}

GOLDEN_TWIST = {
    'group_z3/2': [0, '5a2de891c1909f7eadb1659a768040b8069b709accd05e037577df86c9056008'],
    'semion/0': [0, '016c5e824c9a1adabf2d6e267338bc358d78206dc2aeae23072a0304cab6cf09'],
     'sweedler_h4/1': [0, 'b90bd46e636653ac4f5ee36c848da78ce8ed9c3495d384f3f1d80d01579d394d'],
}

GOLDEN_FAILURES = {
    'identity_antipode/compute_v': 'ConsistencyError: S~ is not conjugation by v on basis '
                                   'element g',
    'inverse_antipode/altschuler_coste_operator': 'ConsistencyError: gamma intertwining fails '
                                                  'on basis element x',
    'inverse_antipode/compute_drinfeld_twist': 'ConsistencyError: gamma intertwining fails on '
                                               'basis element x',
    'inverse_antipode/compute_gamma': 'ConsistencyError: gamma intertwining fails on basis '
                                      'element x',
    'inverse_antipode/compute_gamma_bar': 'ConsistencyError: gamma-bar intertwining fails on '
                                          'basis element x',
    'inverse_antipode/compute_second_drinfeld': 'ConsistencyError: gamma intertwining fails '
                                                'on basis element x',
    'inverse_antipode/opposite_drinfeld': 'ConsistencyError: gamma intertwining fails on '
                                          'basis element x',
    'mutated_coproduct/altschuler_coste_operator': 'ConsistencyError: gamma intertwining '
                                                   'fails on basis element x',
    'mutated_coproduct/compute_drinfeld_twist': 'ConsistencyError: gamma intertwining fails '
                                                'on basis element x',
    'mutated_coproduct/compute_gamma': 'ConsistencyError: gamma intertwining fails on basis '
                                       'element x',
    'mutated_coproduct/compute_gamma_bar': 'ConsistencyError: gamma-bar intertwining fails on '
                                           'basis element x',
    'mutated_coproduct/compute_second_drinfeld': 'ConsistencyError: gamma intertwining fails '
                                                 'on basis element x',
    'mutated_coproduct/opposite_drinfeld': 'ConsistencyError: gamma intertwining fails on '
                                           'basis element x',
    'non_cocycle_family/dynamical': '64493f01b9f5f0412b30486f54cf2ccce9f96286272db49f8960d067427146f1',
    'perturbed_r/axioms': '2a2565e9d638ff099450a4b1b8232d3e0265959680f8963ff6f748f757e97d6d',
    'perturbed_r/drinfeld': '8613de1d026a9254e7e52c9cda2a923203f62483a1458063467ed887e94e20e1',
    'perturbed_r/dynamical': '45addcb767786208a229a0c40326b3a6d96e20e5e0b1c922c5bbfe69cdd1c5e5',
    'perturbed_r/qtriangular': 'cd88cef53fcec2ac989547be37980d0434a221ade368340b36f772f2d18134fd',
    'perturbed_r/twist': '1b2826c01bc996b722dfa8251c36c61d5f6db1a7125d197bd67e5149ebd7a203',
    'perturbed_r/verify_rmatrix': '419381c86e14073d1c4cb7b796fe10be9f229874890a84d82d990b1afbc1cd97',
    'serialize/z2_triangular': '3b12712a9d87b4251c229dd405983cbfd4fbac1bd227475453c8028600468e46',
    'wrong_alpha/altschuler_coste_operator': 'TwistError: cached inverse is not a two-sided '
                                             'inverse',
    'wrong_alpha/axioms': '8f87d0c81dbb7b9a38b12b8c40bc98598c69376131af3b19c14393b471b093ca',
    'wrong_alpha/compute_drinfeld_twist': 'TwistError: cached inverse is not a two-sided '
                                          'inverse',
    'wrong_alpha/compute_gamma': 'ok',
    'wrong_alpha/compute_gamma_bar': 'ok',
    'wrong_alpha/compute_second_drinfeld': 'TwistError: cached inverse is not a two-sided '
                                           'inverse',
    'wrong_alpha/drinfeld': '52d2a3e519032f204ab16fc90bc3d9790e742c8b8f13e91efe17a922a4bc2276',
    'wrong_alpha/dynamical': '21d09faf9c3d538721f6da12dd8c39715886aa1643ada0feb19bf83048c9f6f4',
    'wrong_alpha/opposite_drinfeld': 'TwistError: cached inverse is not a two-sided inverse',
    'wrong_alpha/qtriangular': 'e02baa08b776ba5f68d4c1fe129f187aeb65453cbe6e9d7696d81f56f79af15f',
    'wrong_alpha/twist': 'd8cf6bbcdb0e65e811df859fdfb8ea91bb1657b8e6b752d0d0ba60c58fefc126',
     'wrong_alpha/verify_quasi_antipode': '83e7f395a7ee4aef84174dcd82660b70a54a27c5865c474a4a390600cad3fe7a',
}


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_report_bytes(name, suite):
    assert observed_verify(name, suite) == GOLDEN_VERIFY[f"{name}/{suite}"]


@pytest.mark.parametrize("name,what", COMPUTE_JOBS)
def test_compute_output_bytes(name, what):
    assert observed_compute(name, what) == GOLDEN_COMPUTE[f"{name}/{what}"]


@pytest.mark.parametrize("name,seed", TWIST_JOBS)
def test_twist_file_bytes(name, seed):
    assert observed_twist(name, seed) == GOLDEN_TWIST[f"{name}/{seed}"]


def test_failure_reports_and_texts():
    assert observed_failures() == GOLDEN_FAILURES


@pytest.mark.parametrize("build, failing", [
    (_semion_perturbed_r, {"L3.group@0": "R-matrix axioms fail: E14.ii, E14.iii, R-counit"}),
    (_sweedler_wrong_alpha,
     {"L3.group@0": "quasi-antipode axioms fail: Sphi, Sphi-inv, eps-alpha-beta",
      "uni-v@0": "closed-form inverse of v is not a two-sided inverse; at (0,): 4 != 1"}),
], ids=["perturbed_r", "wrong_alpha"])
def test_twist_suite_reports_a_broken_bundle(build, failing):
    """The checks that verify a twisted bundle fail with the error text instead of raising."""
    (report,) = run_suites(CatalogEntry("broken", build()), "twist", seed=0, trials=1)
    witnesses = {c.check_id: c.witness for c in report.failures()}
    assert witnesses.items() >= failing.items()


@pytest.mark.parametrize("label", ["perturbed_r", *BROKEN])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_reports_a_broken_bundle(label, suite):
    """Every suite returns a report on a broken bundle; none raises."""
    build = _semion_perturbed_r if label == "perturbed_r" else BROKEN[label]
    (report,) = run_suites(CatalogEntry("broken", build()), suite, seed=0, trials=1)
    assert isinstance(report, Report)
    if suite == "axioms":
        assert not report.ok
        assert "P1.involution" in report.failure_ids()


if __name__ == "__main__":
    import pprint
    pprint.pprint({f"{n}/{s}": observed_verify(n, s) for n in ENTRIES for s in SUITE_NAMES},
                  width=100)
    pprint.pprint({f"{n}/{w}": observed_compute(n, w) for n, w in COMPUTE_JOBS}, width=100)
    pprint.pprint({f"{n}/{s}": observed_twist(n, s) for n, s in TWIST_JOBS}, width=100)
    pprint.pprint(observed_failures(), width=100)
