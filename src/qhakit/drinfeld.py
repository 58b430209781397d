"""The coproduct-conjugating twist machinery: gamma, gamma-bar, F_delta, F_0.

The twist F_delta conjugates the coproduct into a -> (S (x) S) Delta^T(S^{-1}(a))
and transports the coassociator onto its reversed antipode image; F_0 does
the same with S^{-1} in place of S.  Every operation here evaluates its
result along two independent routes (the two expansion choices, or a
closed form against a from-scratch recomputation) and raises
ConsistencyError on any disagreement.

F_delta and F_0 twist H onto the primed and the zero structure, read from
the bundle's memo; one battery, :func:`_require_twists_onto`, checks both.

Each closed form sums L(x) R(y) over the entries of a tensor, for maps L, R
from H to H (x) H: ``contract`` reduces the tensor to an arity-2 t, and
``_paired`` forms sum_ab t_ab L(e_a) R(e_b) grouped by a, one ``on_leg``
and one product per distinct a.  Each route builds its own t and maps
from the bundle's inputs.  Gamma and gamma-bar share ``_intertwiner``,
which differs between them only in its inputs.
"""

from __future__ import annotations

from collections import namedtuple

from .structures import (QuasiBialgebra, _mapped_structure, _memoized, _require_equal,
                         _require_scan, opposite_structure)
from .tensor import LinearMap, TensorElement, contract
from .twists import Twist, twisted_alpha, twisted_beta, twisted_coassociator

__all__ = [
    "DrinfeldData", "compute_gamma", "compute_gamma_bar", "compute_drinfeld_twist",
    "compute_second_drinfeld", "opposite_drinfeld", "gamma_bar_under_twist",
    "drinfeld_under_twist",
]


DrinfeldData = namedtuple("DrinfeldData", "gamma gamma_bar f_delta f_zero")


def _paired(t: TensorElement, left: LinearMap, right: LinearMap) -> TensorElement:
    """sum_ab t_ab left(e_a) right(e_b) for an arity-2 ``t`` and maps H -> H (x) H,
    grouped by a: sum_a left(e_a) right(y_a) with y_a = sum_b t_ab e_b."""
    rows = {}
    for (a, b), v in t._nums.items():
        rows.setdefault(a, {})[(b,)] = v
    return sum((left.col(a) * right(TensorElement._reduced(t.algebra, 1, y, t._den))
                for a, y in rows.items()), t.algebra.tensor_zero(2))


@_memoized
def _sdt_map(h) -> LinearMap:
    """a -> (S (x) S) Delta^T(a), materialized on the basis."""
    alg = h.algebra
    cols = [h.s.map_tensor(h.coproduct_t.col(i)) for i in range(alg.dim)]
    return LinearMap(alg, cols)


def _intertwiner(h, name: str, w1, w2, spec, law) -> TensorElement:
    """Contract ``spec`` over both four-leg expansions ``w1``, ``w2`` and check the law.

    The two contractions must agree, and on every basis element e
    ``_paired(Delta(e), *law(x))`` must equal eps(e) x.
    """
    x = _require_equal(contract(w1, *spec), contract(w2, *spec),
                       f"the two expansion choices of {name} disagree")
    left, right = law(x)
    _require_scan(h.algebra,
                  lambda i: (_paired(h.coproduct.col(i), left, right),
                             x.scale(h.counit.col(i).scalar())),
                  f"{name} intertwining fails on basis element {{name}}")
    return x


@_memoized
def compute_gamma(h: QuasiBialgebra) -> TensorElement:
    """gamma = sum S(B)alpha C (x) S(A)alpha D over either four-leg expansion.

    The two expansion choices of A (x) B (x) C (x) D must give the same
    gamma, and gamma intertwines the (S (x) S)Delta^T and Delta images of
    the coproduct on every basis element.
    """
    delta, sdt = h.coproduct, _sdt_map(h)
    return _intertwiner(
        h, "gamma",
        h.phi_inv.embed((1, 2, 3), 4) * delta.on_leg(h.phi, 1),
        h.phi.embed((2, 3, 4), 4) * delta.on_leg(h.phi_inv, 3),
        ([(2, h.s), h.alpha, (3, None)], [(1, h.s), h.alpha, (4, None)]),
        lambda x: (LinearMap(h.algebra, [c * x for c in sdt.columns]), delta))


@_memoized
def compute_gamma_bar(h: QuasiBialgebra) -> TensorElement:
    """gamma-bar = sum A beta S(D) (x) B beta S(C), with the mirrored checks."""
    delta, sdt = h.coproduct, _sdt_map(h)
    return _intertwiner(
        h, "gamma-bar",
        delta.on_leg(h.phi_inv, 1) * h.phi.embed((1, 2, 3), 4),
        delta.on_leg(h.phi, 3) * h.phi_inv.embed((2, 3, 4), 4),
        ([(1, None), h.beta, (4, h.s)], [(2, None), h.beta, (3, h.s)]),
        lambda x: (delta, LinearMap(h.algebra, [x * c for c in sdt.columns])))


def _require_twists_onto(h: QuasiBialgebra, twist: Twist, mapped: QuasiBialgebra,
                         label: str, form: str, m: str) -> Twist:
    """``twist`` (``label``) carries the coproduct, the coassociator and the canonical
    elements of h onto those of ``mapped``, the ``form`` structure of the map ``m``."""
    f, f_inv = twist.f, twist.f_inv
    _require_scan(h.algebra, lambda i: (mapped.coproduct.col(i), f * h.coproduct.col(i) * f_inv),
                  f"{label} does not conjugate the coproduct onto the {form} coproduct "
                  "at basis element {name}")
    _require_equal(twisted_coassociator(h, f, f_inv), mapped.phi,
                   f"the coassociator does not twist onto its {form} form")
    canonical = f"twisted canonical elements are not ({m}(beta), {m}(alpha))"
    _require_equal(twisted_alpha(h, twist), mapped.alpha, canonical)
    _require_equal(twisted_beta(h, twist), mapped.beta, canonical)
    return twist


@_memoized
def compute_drinfeld_twist(h: QuasiBialgebra) -> Twist:
    """F_delta, from both closed forms, with its full postcondition battery.

    Asserted: both forms of F_delta and of its inverse agree; they make a
    twist; F_delta Delta(alpha) = gamma and Delta(beta) F_delta^{-1} =
    gamma-bar; then, by :func:`_require_twists_onto`, F_delta twists H
    onto the primed structure.
    """
    alg, delta, s, sdt = h.algebra, h.coproduct, h.s, _sdt_map(h)
    gamma, gamma_bar = compute_gamma(h), compute_gamma_bar(h)
    primed = _mapped_structure(h, True)

    f = _require_equal(
        _paired(contract(h.phi, [(1, None)], [(2, None), h.beta, (3, s)]),
                LinearMap(alg, [c * gamma for c in sdt.columns]), delta),
        _paired(contract(h.phi_inv, [(1, None), h.beta, (2, s)], [(3, None)]),
                LinearMap(alg, [c * gamma for c in primed.coproduct.columns]), delta),
        "the two closed forms of the Drinfeld twist disagree")
    f_inv = _require_equal(
        _paired(contract(h.phi_inv, [(1, None)], [(2, s), h.alpha, (3, None)]),
                delta, LinearMap(alg, [gamma_bar * c for c in primed.coproduct.columns])),
        _paired(contract(h.phi, [(1, s), h.alpha, (2, None)], [(3, None)]),
                delta, LinearMap(alg, [gamma_bar * c for c in sdt.columns])),
        "the two closed forms of the inverse Drinfeld twist disagree")

    twist = Twist(f, h.counit, f_inv)
    _require_equal(f * delta(h.alpha), gamma, "F_delta Delta(alpha) != gamma")
    _require_equal(delta(h.beta) * f_inv, gamma_bar, "Delta(beta) F_delta^{-1} != gamma-bar")
    return _require_twists_onto(h, twist, primed, "F_delta", "primed", "S")


@_memoized
def compute_second_drinfeld(h: QuasiBialgebra) -> Twist:
    """F_0 = (S^{-1} (x) S^{-1}) F_delta^T, which twists H onto the zero structure."""
    f_delta, s_inv = compute_drinfeld_twist(h), h.s_inv
    twist = Twist(s_inv.map_tensor(f_delta.f.transpose()), h.counit,
                  s_inv.map_tensor(f_delta.f_inv.transpose()))
    return _require_twists_onto(h, twist, _mapped_structure(h, False), "F_0", "zero", "S^{-1}")


def opposite_drinfeld(h: QuasiBialgebra) -> Twist:
    """The Drinfeld twist of the opposite structure, by two independent routes.

    Route (a) runs the closed-form computation on the opposite structure,
    a new bundle that computes its own F_delta; route (b) applies S^{-1}
    legwise to F_delta.  Both must agree, and both must equal the
    transpose of F_0; the second Drinfeld twist of the opposite structure
    must likewise be F_delta^T.
    """
    f_delta = compute_drinfeld_twist(h)
    h_op = opposite_structure(h)
    via_opposite = compute_drinfeld_twist(h_op)
    _require_equal(via_opposite.f, h.s_inv.map_tensor(f_delta.f),
                   "opposite-structure Drinfeld twist disagrees with (S^{-1} (x) S^{-1})F_delta")
    _require_equal(via_opposite.f, compute_second_drinfeld(h).f.transpose(),
                   "opposite-structure Drinfeld twist is not F_0^T")
    _require_equal(compute_second_drinfeld(h_op).f, f_delta.f.transpose(),
                   "second Drinfeld twist of the opposite structure is not F_delta^T")
    return via_opposite


def gamma_bar_under_twist(h: QuasiBialgebra, g: Twist, twisted) -> TensorElement:
    """gamma-bar of the twisted structure, closed form against recomputation.

    ``twisted`` is ``twist_structure(h, g)``, built (verified or not) by the
    caller; its gamma-bar is the recomputation route.
    """
    recomputed = compute_gamma_bar(twisted)

    gamma_bar = compute_gamma_bar(h)
    gt = g.f.transpose()
    closed = _paired(g.f, LinearMap(h.algebra, [g.f * c * gamma_bar for c in h.coproduct.columns]),
                     LinearMap(h.algebra, [h.s.map_tensor(gt * c) for c in h.coproduct_t.columns]))
    return _require_equal(closed, recomputed,
                          "twisted gamma-bar closed form disagrees with recomputation")


def drinfeld_under_twist(h: QuasiBialgebra, g: Twist, twisted) -> Twist:
    """F_delta of the twisted structure, closed form against recomputation.

    ``twisted`` is ``twist_structure(h, g)``, built (verified or not) by the
    caller; its F_delta is the recomputation route.  Also checks the
    inverse form and the matching closed form for F_0.
    """
    f_delta = compute_drinfeld_twist(h)
    recomputed = compute_drinfeld_twist(twisted)

    s, s_inv = h.s, h.s_inv
    _require_equal(recomputed.f, s.map_tensor(g.f_inv.transpose()) * f_delta.f * g.f_inv,
                   "twisted Drinfeld twist disagrees with its closed form")
    _require_equal(recomputed.f_inv, g.f * f_delta.f_inv * s.map_tensor(g.f.transpose()),
                   "twisted inverse Drinfeld twist disagrees with its closed form")

    _require_equal(compute_second_drinfeld(twisted).f,
                   s_inv.map_tensor(g.f_inv.transpose()) * compute_second_drinfeld(h).f * g.f_inv,
                   "twisted second Drinfeld twist disagrees with its closed form")
    return recomputed


@_memoized
def compute_drinfeld_data(h: QuasiBialgebra) -> DrinfeldData:
    """gamma, gamma-bar, F_delta, F_0 of one bundle, each computed once."""
    return DrinfeldData(compute_gamma(h), compute_gamma_bar(h), compute_drinfeld_twist(h),
                        compute_second_drinfeld(h))
