"""Equivalence of quasi-antipodes: the connecting operator v.

Two quasi-antipode triples on one quasi-bialgebra are related by a unique
invertible v with v alpha = alpha~, beta~ v = beta and S~ = v S(.) v^{-1}.
``compute_v`` evaluates all four closed forms of v and v^{-1} and fails
loudly on any disagreement, which doubles as a free self-test of the
tensor kernel.
"""

from __future__ import annotations

from .errors import ConsistencyError
from .structures import (QuasiAntipode, QuasiBialgebra, _require, _require_scan,
                         verify_quasi_antipode)
from .tensor import contract_element
from .twists import Twist, twist_structure, twisted_alpha, twisted_beta

__all__ = ["AntipodePair", "compute_v", "antipode_from_v", "check_v_universality"]


class AntipodePair:
    """A quasi-Hopf structure plus an alternative quasi-antipode on the same base."""

    def __init__(self, base: QuasiBialgebra, alt: QuasiAntipode, verify=True):
        self.base = base
        self.alt = alt
        if verify:
            _require(verify_quasi_antipode(base.with_antipode(alt, verify=False)),
                     "alternative quasi-antipode fails")

    @property
    def algebra(self):
        return self.base.algebra


def compute_v(pair: AntipodePair):
    """The unique invertible v relating the two antipode triples.

    Evaluates both closed forms of v, both closed forms of v^{-1}, and the
    three defining relations on every basis element; raises
    ConsistencyError if anything disagrees.
    """
    base, alt = pair.base, pair.alt
    alg = base.algebra
    phi, phi_inv = base.phi, base.phi_inv
    s, s_inv = base.s, base.s_inv
    st = alt.s
    alpha, beta = base.alpha, base.beta
    alpha_t, beta_t = alt.alpha, alt.beta

    st_sinv = st.compose(s_inv)

    v = contract_element(phi, [(1, st), alpha_t, (2, None), beta, (3, s)])
    v_alt = contract_element(
        phi_inv, [(1, st_sinv), st(s_inv(beta)), (2, st), alpha_t, (3, None)])
    if v != v_alt:
        raise ConsistencyError("the two closed forms of v disagree")

    v_inv = contract_element(phi, [(1, s), alpha, (2, None), beta_t, (3, st)])
    v_inv_alt = contract_element(
        phi_inv, [(1, None), beta_t, (2, st), st(s_inv(alpha)), (3, st_sinv)])
    if v_inv != v_inv_alt:
        raise ConsistencyError("the two closed forms of v^{-1} disagree")

    one = alg.unit_element
    if v * v_inv != one or v_inv * v != one:
        raise ConsistencyError("closed-form inverse of v is not a two-sided inverse")
    if v * alpha != alpha_t:
        raise ConsistencyError("v alpha != alpha~")
    if beta_t * v != beta:
        raise ConsistencyError("beta~ v != beta")
    _require_scan(alg, lambda i: st.col_element(i) != v * s.col_element(i) * v_inv,
                  "S~ is not conjugation by v on basis element {name}")
    return v


def antipode_from_v(h: QuasiBialgebra, w) -> QuasiAntipode:
    """The quasi-antipode (w S(.) w^{-1}, w alpha, beta w^{-1}) attached to invertible w.

    The constructed triple is verified, and the round trip through
    ``compute_v`` returns exactly w (the 1-1 correspondence).
    """
    alt = h.antipode.conjugated(w)
    pair = AntipodePair(h, alt, verify=True)
    back = compute_v(pair)
    if back != w:
        raise ConsistencyError("round trip through compute_v did not recover w")
    return alt


def twisted_alt_antipode(pair: AntipodePair, f: Twist) -> QuasiAntipode:
    """The alternative triple transported along a twist (S~ itself is untouched)."""
    alt = pair.alt
    return QuasiAntipode(alt.s, twisted_alpha(alt, f), twisted_beta(alt, f), s_inv=alt.s_inv)


def check_v_universality(pair: AntipodePair, f: Twist) -> bool:
    """v computed on the twisted pair equals v computed on the original pair.

    compute_v asserts the full relation battery on the twisted pair, so
    the twisted structure is not re-verified here.
    """
    twisted_base = twist_structure(pair.base, f, verify=False)
    twisted_pair = AntipodePair(twisted_base, twisted_alt_antipode(pair, f),
                                verify=False)
    return compute_v(twisted_pair) == compute_v(pair)
