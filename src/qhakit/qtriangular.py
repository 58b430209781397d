"""Quasi-triangular specifics: canonical elements of R, the square-of-the-
antipode operators u and u~, their twist invariance, and the compatible
twist built from them.

Twisting H by R lands on H^cop: :func:`canonical_r_elements` proves that once
per R choice, and no R-twisted bundle is built.  u is the v of
:mod:`qhakit.antipode` computed on H^cop (the unverified bundle in the memo),
connecting H^cop's own triple (S^{-1}, S^{-1}(alpha), S^{-1}(beta)) to the one
twisting by R induces, (S, alpha_R, beta_R).  u~ is the same with (R^T)^{-1}.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .report import Report
from .structures import (QuasiBialgebra, _connecting_element, _memoized, _opposite, _require,
                         _require_equal, _require_scan, opposite_structure, primed_structure,
                         verify_quasi_antipode)
from .tensor import TensorElement, contract, tensor_of
from .twists import (Twist, _twisted_coproduct, is_compatible, twisted_antipode,
                     twisted_coassociator, twisted_coassociator_inv)
from .drinfeld import compute_drinfeld_data

__all__ = [
    "UOperators", "canonical_r_elements", "compute_u", "check_u_universality",
    "check_ssr_identity", "altschuler_coste_operator", "opposite_by_r_vs_cop",
    "r_tilde",
]


UOperators = namedtuple("UOperators", "u u_inv u_tilde u_tilde_inv")


def r_tilde(t: QuasiBialgebra) -> tuple[TensorElement, TensorElement]:
    """(R^T)^{-1} and its inverse R^T; itself an R-matrix for the same structure."""
    return t.r_inv.transpose(), t.r.transpose()


@_memoized
def _canonical(t: QuasiBialgebra, which: str):
    """(R-twist, (S, alpha_R, beta_R)) for R or for (R^T)^{-1}, with nothing asserted."""
    if which not in ("r", "r_tilde"):
        raise ValueError("which must be 'r' or 'r_tilde'")
    r, r_inv = (t.r, t.r_inv) if which == "r" else r_tilde(t)
    twist = Twist(r, t.counit, r_inv, check=False)
    return twist, twisted_antipode(t, twist)


@_memoized
def canonical_r_elements(t: QuasiBialgebra, which: str = "r"):
    """(alpha_R, beta_R) for R or for (R^T)^{-1}: the one proof that twisting lands on H^cop.

    Asserts that the R-twisted coproduct, coassociator and its inverse are
    H^cop's, that H^cop passes the verifier battery (:func:`opposite_structure`,
    shared with P1'-E14) and that (S, alpha_R, beta_R) is a quasi-antipode of it:
    all that the verifiers would read of an R-twisted bundle.  A failure caches nothing.
    """
    (twist, anti), cop = _canonical(t, which), _opposite(t)
    _require_equal(_twisted_coproduct(t, twist), cop.coproduct,
                   "twisting by the R-matrix does not reverse the coproduct")
    reverse = "twisting by the R-matrix does not reverse the coassociator"
    _require_equal(twisted_coassociator(t, twist.f, twist.f_inv), cop.phi, reverse)
    _require_equal(twisted_coassociator_inv(t, twist.f, twist.f_inv), cop.phi_inv, reverse)
    opposite_structure(t)
    _require(verify_quasi_antipode(cop, anti), "alternative quasi-antipode fails")
    return anti.alpha, anti.beta


def _r_landing(t: QuasiBialgebra):
    """(R-twist, H^cop's coproduct and coassociator with R's triple and no R-matrix): what
    twisting by R makes of t, built unverified once :func:`canonical_r_elements` proved it."""
    canonical_r_elements(t, "r")
    (twist, anti), cop = _canonical(t, "r"), _opposite(t)
    return twist, QuasiBialgebra(t.algebra, cop.coproduct, t.counit, cop.phi, cop.phi_inv, anti,
                                 verify=False)


@_memoized
def _u_operators(t: QuasiBialgebra) -> UOperators:
    """u, u^{-1}, u~, u~^{-1}: the v of H^cop for the triples its R-twists induce.

    Each connects H^cop's own triple to (S, alpha_R, beta_R), which twisting
    by R, or by (R^T)^{-1} for u~, induces.
    """
    cop = _opposite(t)
    return UOperators(*_connecting_element(cop, _canonical(t, "r")[1]),
                      *_connecting_element(cop, _canonical(t, "r_tilde")[1]))


def compute_u(t: QuasiBialgebra) -> UOperators:
    """u, u^{-1}, u~, u~^{-1} with the full relation battery asserted.

    The R-twists behind both pairs of canonical elements are checked first
    (:func:`canonical_r_elements`).  Computing u and u~ as connecting
    elements asserts both closed forms of each of the four elements, the
    inverses, the canonical element relations and the conjugation S^2(a) =
    u a u^{-1} = u~ a u~^{-1}; the cross relations between u and u~, u~ =
    S(u^{-1}), and centrality of u S(u) are asserted here.
    """
    s = t.s
    alpha_r, beta_r = canonical_r_elements(t, "r")
    alpha_rt, beta_rt = canonical_r_elements(t, "r_tilde")
    ops = u, u_inv, ut, ut_inv = _u_operators(t)
    tilde = "cross relations for the tilde canonical elements fail"
    _require_equal(beta_rt, s(u) * s(t.beta), tilde)
    _require_equal(alpha_rt, s(t.alpha) * s(u_inv), tilde)
    plain = "cross relations for the plain canonical elements fail"
    _require_equal(beta_r, s(ut) * s(t.beta), plain)
    _require_equal(alpha_r, s(t.alpha) * s(ut_inv), plain)
    _require_equal(ut, s(u_inv), "u~ != S(u^{-1})")
    usu = u * s(u)
    central = "u S(u) is not central"
    _require_equal(usu, s(u) * u, central)
    e = t.algebra.basis_element
    _require_scan(t.algebra, lambda i: (usu * e(i), e(i) * usu), central)
    return ops


def check_u_universality(t: QuasiBialgebra, twisted) -> bool:
    """u and u~ recomputed on ``twisted`` equal t's.  ``twisted`` is ``twist_structure(t, f)``
    for any f, built (verified or not) by the caller: u is the same after every twist."""
    return _u_operators(t) == _u_operators(twisted)


def check_ssr_identity(t: QuasiBialgebra) -> Report:
    """(S (x) S)R against the Drinfeld twist conjugate, plus the gamma intertwiners.

    Also verifies that the primed structure is quasi-triangular with
    (S (x) S)R as its R-matrix.
    """
    rep = Report("ssr")
    data = functools.cache(lambda: compute_drinfeld_data(t))
    ssr = functools.cache(lambda: t.s.map_tensor(t.r))
    rep.add_equal("E16", lambda: (ssr(), data().f_delta.f.transpose() * t.r * data().f_delta.f_inv))
    rep.add_equal("E16.gamma", lambda: (ssr() * data().gamma, data().gamma.transpose() * t.r))
    rep.add_equal("E16.gammabar",
                  lambda: (t.r * data().gamma_bar, data().gamma_bar.transpose() * ssr()))
    rep.check("P5", lambda: primed_structure(t).r == ssr(),
              "primed structure R-matrix is not (S (x) S)R")
    return rep


def altschuler_coste_operator(t: QuasiBialgebra) -> TensorElement:
    """A = Delta(u^{-1}) F_delta^{-1} (u (x) u) F_0, both orderings asserted equal.

    A commutes with the coproduct and its counit-normalized form is a
    compatible twist; both are asserted.
    """
    data = compute_drinfeld_data(t)
    ops = _u_operators(t)
    u, u_inv = ops.u, ops.u_inv
    core = data.f_delta.f_inv * tensor_of(u, u) * data.f_zero.f
    a = _require_equal(t.coproduct(u_inv) * core, core * t.coproduct(u_inv),
                       "the two orderings of the ribbon-type operator disagree")
    alg = t.algebra
    _require_scan(alg, lambda i: (a * t.coproduct.col(i), t.coproduct.col(i) * a),
                  "operator does not commute with the coproduct at {name}")
    # counit normalization: (eps (x) 1)A = eps(u) 1, so divide by eps(u)
    unit1 = alg.tensor_unit(1)
    eps_u = t.counit(u)
    counit = "operator counit is not the expected scalar"
    _require_equal(t.counit.on_leg(a, 1), unit1.scale(eps_u), counit)
    _require_equal(t.counit.on_leg(a, 2), unit1.scale(eps_u), counit)
    normalized = Twist(a.scale(alg.field.inv(eps_u)), t.counit)
    _require_equal(is_compatible(normalized, t), True,
                   "normalized operator is not a compatible twist")
    return a


def opposite_by_r_vs_cop(t: QuasiBialgebra) -> Report:
    """u as the connecting operator of H^cop's two triples, against its leg-order form.

    ``u-as-v`` compares the memoized u (:func:`_u_operators`) with its own second
    closed form, which the connecting routine already compared with the first, read
    in leg order on Phi: it tests ``perm`` and ``contract``, not a second derivation
    of u.  That form comes first, on alpha_R from :func:`canonical_r_elements`, which
    verifies R's triple on H^cop, so a wrong triple fails the check with that text.
    """
    rep = Report("u-origin")
    rep.check("u-as-v", lambda: contract(t.phi, [(3, t.s.compose(t.s)), t.s(t.beta), (2, t.s),
                                                 canonical_r_elements(t, "r")[0], (1, None)])
              == _u_operators(t).u, "connecting operator differs from u")
    return rep
