"""Equivalence of quasi-antipodes: the connecting operator v.

Two quasi-antipode triples on one quasi-bialgebra are related by a unique
invertible v with v alpha = alpha~, beta~ v = beta and S~ = v S(.) v^{-1}.
``compute_v(h, alt)`` connects h's own triple to the triple ``alt``; it
evaluates all four closed forms of v and v^{-1} and fails loudly on any
disagreement, which doubles as a free self-test of the tensor kernel.
``alt`` is checked against h's quasi-bialgebra by
``structures.verify_quasi_antipode(h, alt)`` where a caller needs it
verified.  The forms and their relation battery live in one routine,
``structures._connecting_element(h, other)``, which also gives the central
element of a compatible twist (``twists.compatible_to_central``) and
Drinfeld's u and u~ (:mod:`qhakit.qtriangular`), v computed on H^cop.
"""

from __future__ import annotations

from .structures import (QuasiAntipode, QuasiBialgebra, _connecting_element, _require,
                         _require_equal, verify_quasi_antipode)
from .twists import Twist, twisted_antipode

__all__ = ["compute_v", "antipode_from_v", "check_v_universality"]


def compute_v(h: QuasiBialgebra, alt: QuasiAntipode):
    """The unique invertible v taking h's quasi-antipode to ``alt``.

    Evaluates both closed forms of v, both closed forms of v^{-1}, and the
    three defining relations on every basis element; raises
    ConsistencyError if anything disagrees.
    """
    return _connecting_element(h, alt)[0]


def antipode_from_v(h: QuasiBialgebra, w) -> QuasiAntipode:
    """The quasi-antipode (w S(.) w^{-1}, w alpha, beta w^{-1}) attached to invertible w.

    The constructed triple is verified, and the round trip through
    ``compute_v`` returns exactly w (the 1-1 correspondence).
    """
    alt = h.antipode.conjugated(w)
    _require(verify_quasi_antipode(h, alt), "alternative quasi-antipode fails")
    _require_equal(compute_v(h, alt), w, "round trip through compute_v did not recover w")
    return alt


def check_v_universality(h: QuasiBialgebra, alt: QuasiAntipode, f: Twist, twisted) -> bool:
    """v computed on the twisted pair equals v computed on (h, alt).

    ``twisted`` is ``twist_structure(h, f)``, built (verified or not) by the
    caller.  compute_v asserts the full relation battery on the twisted pair,
    so neither ``twisted`` nor ``alt`` is verified here.
    """
    return compute_v(twisted, twisted_antipode(alt, f)) == compute_v(h, alt)
