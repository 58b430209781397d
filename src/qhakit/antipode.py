"""Equivalence of quasi-antipodes: the connecting operator v.

Two quasi-antipode triples on one quasi-bialgebra are related by a unique
invertible v with v alpha = alpha~, beta~ v = beta and S~ = v S(.) v^{-1}.
``compute_v`` evaluates all four closed forms of v and v^{-1} and fails
loudly on any disagreement, which doubles as a free self-test of the
tensor kernel.  The forms and their relation battery live in one routine
(``structures._connecting_element``), which also gives Drinfeld's u and
u~ (:mod:`qhakit.qtriangular`) and the central element of a compatible
twist (``twists.compatible_to_central``): each is the v of a pair of
quasi-antipodes.
"""

from __future__ import annotations

from .errors import ConsistencyError
from .structures import (QuasiAntipode, QuasiBialgebra, _connecting_element, _require,
                         verify_quasi_antipode)
from .twists import Twist, twist_structure, twisted_antipode

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
    base = pair.base
    v, _ = _connecting_element(base.phi, base.phi_inv, base.antipode, pair.alt)
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


def check_v_universality(pair: AntipodePair, f: Twist) -> bool:
    """v computed on the twisted pair equals v computed on the original pair.

    compute_v asserts the full relation battery on the twisted pair, so
    the twisted structure is not re-verified here.
    """
    twisted_base = twist_structure(pair.base, f, verify=False)
    twisted_pair = AntipodePair(twisted_base, twisted_antipode(pair.alt, f), verify=False)
    return compute_v(twisted_pair) == compute_v(pair)
