"""The structure bundle: a quasi-bialgebra with an optional quasi-antipode and R-matrix.

One class, :class:`QuasiBialgebra`, carries every kind of structure; its
kind is simply which of ``antipode`` and ``r`` are set.  A bundle is
verified against its defining identities at construction (unless
explicitly deferred with ``verify=False``), and the verifiers return
structured reports that localize a failing identity to a basis element or
multi-index rather than throwing.

Data derived from one bundle alone (the opposite coproduct, the opposite,
primed and zero structures, the Drinfeld data, the u-operators, ...) is
cached in that bundle's own memo by the functions decorated with
:func:`_memoized`.  Every bundle object starts with an empty memo, and no
memo is ever copied to another bundle, so a check that recomputes a value
on a derived or twisted bundle really recomputes it.  A bundle stores no
verified flag; whether it satisfies its axioms is what the verifiers report.
H^cop is written out once, by :func:`_opposite`, and Drinfeld's u is the
connecting element over it.  No memoized function runs on an unverified memo
bundle itself: a check that needs such a bundle's derived data verifies a new copy.
What twisting by R makes of H, H^cop's parts with R's triple, is no memo bundle:
:mod:`qhakit.qtriangular` builds it only once the landing on H^cop is proved.

The constructor is the one place that chooses the rational block basis
of :mod:`qhakit.blocks` (whose docstring states the rule): where that
basis applies, the bundle is verified there and the carried bundle is
kept in the memo (``_block_form``); where it fails, the verifiers run
again on the bundle itself, so every refusal is that of the original
basis.  This is the only place that retries in the original basis: the
suites and computations on a carried bundle run once, in its basis,
which a :class:`Transported` holds.

Every route check (two routes to one value must agree exactly) calls one
primitive, :func:`_require_equal`.  It only compares values that each
route has already built on its own, and names where they part.  One
basis scan, :func:`_require_scan`, serves the route checks that raise and
the verifiers' checks that :meth:`Report.check` records.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .errors import ConsistencyError, QhaError, SingularError, StructureError
from .report import Report, _diff_witness
from .tensor import LinearMap, contract

__all__ = [
    "QuasiBialgebra", "QuasiAntipode",
    "verify_qba", "verify_quasi_antipode", "verify_rmatrix",
    "opposite_structure", "primed_structure", "zero_structure", "check_qqybe",
]


def _memoized(fn):
    """Cache ``fn(h, *args)`` in the memo of the bundle ``h``, keyed by ``(fn, *args)``
    with keywords and defaults bound to their positions: ``f(h)``, ``f(h, "r")`` and
    ``f(h, which="r")`` share one entry.

    Only data computed from ``h`` alone belongs here: nothing keyed by a
    twist and no tensor product of two bundles.  H^cop and the primed and zero
    structures live here, unverified, and H^cop and the primed structure once more
    as new verified bundles (:func:`opposite_structure`, :func:`primed_structure`),
    so the checks of one run that verify one share one verification.
    """
    names = fn.__code__.co_varnames[1:fn.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))

    @functools.wraps(fn)
    def wrapper(h, *args, **kwargs):
        rest, bound = names[len(args):], {**defaults, **kwargs}
        if not kwargs.keys() <= set(rest) <= bound.keys():
            return fn(h, *args, **kwargs)  # a call that does not bind: Python's TypeError
        key = (fn, *args, *(bound[n] for n in rest))
        if key not in h._memo:
            h._memo[key] = fn(h, *key[1:])
        return h._memo[key]

    return wrapper


def _inverse(t, report_name: str, check_id: str, message: str):
    """The inverse of ``t``, or a StructureError whose report names the failed check."""
    report = Report(report_name)
    inverse = report.check(check_id, t.invert)
    if not report.ok:
        raise StructureError(message, report)
    return inverse


def _require(report: Report, message: str) -> None:
    if not report.ok:
        raise StructureError(f"{message}: {', '.join(report.failure_ids())}", report)


class QuasiAntipode:
    """A triple (S, alpha, beta) with the inverse of S cached.

    Without ``s_inv`` the inverse is computed here; a singular ``s`` raises
    StructureError.
    """

    def __init__(self, s, alpha, beta, s_inv=None):
        self.s = s
        if s_inv is None:
            try:
                s_inv = s.inverse()
            except SingularError as exc:
                raise StructureError(f"antipode is not invertible: {exc}") from exc
        self.s_inv = s_inv
        self.alpha = alpha
        self.beta = beta

    def conjugated(self, w) -> "QuasiAntipode":
        """The equivalent triple (w S(.) w^{-1}, w alpha, beta w^{-1})."""
        alg = self.s.algebra
        w_inv = w.inverse()
        s_new = LinearMap(alg, [w * self.s.col(i) * w_inv for i in range(alg.dim)])
        s_new_inv = LinearMap(alg, [self.s_inv(w_inv * alg.basis_element(i) * w)
                                    for i in range(alg.dim)])
        return QuasiAntipode(s_new, w * self.alpha, self.beta * w_inv, s_inv=s_new_inv)


def _connecting_element(h, other: QuasiAntipode):
    """(v, v^{-1}) for the unique invertible v taking h's own quasi-antipode to ``other``.

    v alpha = alpha~, beta~ v = beta and S~ = v S(.) v^{-1}.  Both closed
    forms of v and both of v^{-1} are evaluated over h's coassociator, and every
    relation is asserted on every basis element; any disagreement raises
    ConsistencyError.
    """
    phi, phi_inv, s, s_inv, alpha, beta = h.phi, h.phi_inv, h.s, h.s_inv, h.alpha, h.beta
    st, alpha_t, beta_t = other.s, other.alpha, other.beta
    st_sinv = st.compose(s_inv)

    v = _require_equal(
        contract(phi, [(1, st), alpha_t, (2, None), beta, (3, s)]),
        contract(phi_inv, [(1, st_sinv), st(s_inv(beta)), (2, st), alpha_t, (3, None)]),
        "the two closed forms of v disagree")
    v_inv = _require_equal(
        contract(phi, [(1, s), alpha, (2, None), beta_t, (3, st)]),
        contract(phi_inv, [(1, None), beta_t, (2, st), st(s_inv(alpha)), (3, st_sinv)]),
        "the two closed forms of v^{-1} disagree")

    alg = s.algebra
    two_sided = "closed-form inverse of v is not a two-sided inverse"
    _require_equal(v * v_inv, alg.unit_element, two_sided)
    _require_equal(v_inv * v, alg.unit_element, two_sided)
    _require_equal(v * alpha, alpha_t, "v alpha != alpha~")
    _require_equal(beta_t * v, beta, "beta~ v != beta")
    _require_scan(alg, lambda i: (st.col(i), v * s.col(i) * v_inv),
                  "S~ is not conjugation by v on basis element {name}")
    return v, v_inv


class QuasiBialgebra:
    """(H, coproduct, counit, coassociator), optionally with a quasi-antipode and an R-matrix.

    The inverses of the coassociator and of R are cached.  Verification
    runs in the rational block basis where :mod:`qhakit.blocks` picks the
    bundle, and the inverses not given are then taken from there.
    Otherwise, or where the carried bundle fails, it runs here in a fixed
    order: invertibility of the coassociator (with the inverse found in
    the block basis, if any), the quasi-bialgebra axioms, the
    quasi-antipode, invertibility of R, the R-matrix identities.
    """

    def __init__(self, algebra, coproduct, counit, phi, phi_inv=None, antipode=None,
                 r=None, r_inv=None, verify=True):
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        self.phi, self.phi_inv = phi, phi_inv
        self.antipode = antipode
        self.r, self.r_inv = r, r_inv
        self._memo = {}
        carried = _block_form(self) if verify else None  # sets phi_inv if Phi inverts there
        if carried is not None:
            if r is not None and r_inv is None:
                self.r_inv = carried.back(carried.s.r_inv)
            return
        if self.phi_inv is None:
            self.phi_inv = _inverse(phi, "qba", "phi-invertible", "coassociator is not invertible")
        if verify:
            _require(verify_qba(self), "quasi-bialgebra axioms fail")
            if antipode is not None:
                _require(verify_quasi_antipode(self), "quasi-antipode axioms fail")
        if r is not None and r_inv is None:
            self.r_inv = _inverse(r, "rmatrix", "R-invertible", "R-matrix is not invertible")
        if verify and r is not None:
            _require(verify_rmatrix(self), "R-matrix axioms fail")

    @property
    @_memoized
    def coproduct_t(self) -> LinearMap:
        return self.coproduct.swapped()

    @property
    def s(self):
        return self.antipode.s

    @property
    def s_inv(self):
        return self.antipode.s_inv

    @property
    def alpha(self):
        return self.antipode.alpha

    @property
    def beta(self):
        return self.antipode.beta


class Transported(namedtuple("Transported", "original s down up")):
    """The basis a run uses: ``s``, with the maps from ``original``'s basis (``down``)
    and back (``up``); in ``original``'s own basis both are None and return their
    argument.  Draws are made on ``original`` with its RNG calls and carried over,
    so a seed draws the same twists in either basis.  In a bundle's memo
    (``_block_form``) ``original`` is None, not the bundle: ``suites.setting`` sets it.
    """

    __slots__ = ()

    def carry(self, x):
        """An element or tensor of ``original``, in ``s``'s basis."""
        return x if self.down is None else self.down.map_tensor(x)

    def back(self, x):
        """An element or tensor of ``s``, in ``original``'s basis."""
        return x if self.up is None else self.up.map_tensor(x)

    def twist(self, rng):
        """A random twist of ``original``, in ``s``'s basis.  The basis change is
        verified, so a carried twist is a twist and is not checked again."""
        from .randgen import random_twist
        from .twists import Twist
        f = random_twist(rng, self.original)
        return f if self.down is None else Twist(self.carry(f.f), self.s.counit,
                                                 self.carry(f.f_inv), check=False)

    def element(self, rng):
        """A random invertible element of ``original``, in ``s``'s basis."""
        from .randgen import random_invertible_element
        return self.carry(random_invertible_element(rng, self.original.algebra))


@_memoized
def _block_form(s):
    """``s`` carried into the rational block basis and verified there (a
    :class:`Transported`), or None: the one decision, kept in ``s``'s memo.

    A bundle with the trivial coassociator is never carried, and is turned
    away here so that its jobs never import :mod:`qhakit.blocks`.  Otherwise
    that module's rules pick the basis, or None; a carried bundle that fails
    verification gives None too, so the original basis decides.
    """
    if s.phi == s.algebra.tensor_unit(3):
        return None
    from .blocks import _selected, transport
    basis = _selected(s.algebra)
    if basis is None:
        return None
    try:
        return transport(s, basis)
    except QhaError:
        return None


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _require_equal(left, right, message: str):
    """``left`` where it equals ``right``; else a ConsistencyError whose witness is the
    first differing multi-index of two tensors, elements of H among them (an element
    is the arity-1 tensor), and both values whole for anything else (two maps)."""
    if left == right:
        return left
    raise ConsistencyError(message, _diff_witness(left, right))


def _require_scan(alg, sides, message: str, pairs=False) -> None:
    """:func:`_require_equal` on the pair ``sides(i)`` at each basis index ``i`` in turn, or
    with ``pairs`` on ``sides(i, j)`` at each ordered pair of indices.  ``{name}`` in
    ``message`` names the basis element, or the pair's two names."""
    for idx in itertools.product(range(alg.dim), repeat=2 if pairs else 1):
        names = ", ".join(alg.basis_names[i] for i in idx)
        _require_equal(*sides(*idx), message.format(name=names))


def verify_qba(q) -> Report:
    """Check the quasi-bialgebra axioms, each as an exact tensor equality."""
    alg = q.algebra
    rep = Report("qba")
    unit2 = alg.tensor_unit(2)
    delta, eps, phi, phi_inv = q.coproduct, q.counit, q.phi, q.phi_inv
    e = [alg.basis_element(i) for i in range(alg.dim)]

    rep.add_equal("delta-unital", lambda: (delta(alg.unit_element), unit2))
    rep.check("eps-unital", lambda: eps(alg.unit_element) == alg.field.one,
              lambda: f"eps(1) = {eps(alg.unit_element)}")

    rep.check("delta-hom", lambda: _require_scan(
        alg, lambda i, j: (delta(e[i] * e[j]), delta(e[i]) * delta(e[j])), "pair ({name})",
        pairs=True))
    rep.check("eps-hom", lambda: _require_scan(
        alg, lambda i, j: (eps(e[i] * e[j]), eps(e[i]) * eps(e[j])), "pair ({name})",
        pairs=True))

    def counit(i):
        d = delta(e[i])
        return (eps.on_leg(d, 1), eps.on_leg(d, 2)), (e[i], e[i])
    rep.check("counit", lambda: _require_scan(alg, counit, "basis element {name}"))

    rep.check("phi-invertible",
              lambda: phi * phi_inv == alg.tensor_unit(3) and phi_inv * phi == alg.tensor_unit(3),
              "product with cached inverse is not the unit")

    def qco(i):
        d = delta(e[i])
        return delta.on_leg(d, 2), phi_inv * delta.on_leg(d, 1) * phi
    rep.check("qco", lambda: _require_scan(alg, qco, "basis element {name}"))

    rep.add_equal("pentagon", lambda: (
        delta.on_leg(phi, 1) * delta.on_leg(phi, 3),
        phi.embed((1, 2, 3), 4) * delta.on_leg(phi, 2) * phi.embed((2, 3, 4), 4)))

    rep.add_equal("epsphi", lambda: (eps.on_leg(phi, 2), unit2))
    rep.check("epsphi-derived", lambda: eps.on_leg(phi, 1) == unit2 and eps.on_leg(phi, 3) == unit2,
              "outer-leg counit of the coassociator is not the unit")
    return rep


def verify_quasi_antipode(h: QuasiBialgebra, antipode=None) -> Report:
    """Check a quasi-antipode triple, by default h's own, against h's quasi-bialgebra."""
    alg = h.algebra
    rep = Report("antipode")
    anti = h.antipode if antipode is None else antipode
    s, s_inv, alpha, beta = anti.s, anti.s_inv, anti.alpha, anti.beta
    eps, phi, phi_inv = h.counit, h.phi, h.phi_inv
    one, e = alg.unit_element, [alg.basis_element(i) for i in range(alg.dim)]

    rep.add_equal("S-unital", lambda: (s(one), one))
    rep.check("S-antihom", lambda: _require_scan(
        alg, lambda i, j: (s(e[i] * e[j]), s(e[j]) * s(e[i])), "pair ({name})", pairs=True))
    rep.check("S-inverse", lambda: _require_scan(
        alg, lambda i: ((s_inv(s(e[i])), s(s_inv(e[i]))), (e[i], e[i])), "basis element {name}"))

    rep.add_equal("Sphi", lambda: (contract(phi, [(1, s), alpha, (2, None), beta, (3, s)]), one))
    rep.add_equal("Sphi-inv",
                  lambda: (contract(phi_inv, [(1, None), beta, (2, s), alpha, (3, None)]), one))

    rep.check("Sab-alpha", lambda: _require_scan(
        alg, lambda i: (contract(h.coproduct(e[i]), [(1, s), alpha, (2, None)]),
                        eps(e[i]) * alpha), "basis element {name}"))
    rep.check("Sab-beta", lambda: _require_scan(
        alg, lambda i: (contract(h.coproduct(e[i]), [(1, None), beta, (2, s)]),
                        eps(e[i]) * beta), "basis element {name}"))

    rep.check("eps-alpha-beta", lambda: eps(alpha) * eps(beta) == alg.field.one,
              lambda: f"eps(alpha)*eps(beta) = {eps(alpha) * eps(beta)}")

    rep.check("eps-S", lambda: _require_scan(
        alg, lambda i: ((eps(s(e[i])), eps(s_inv(e[i]))), (eps(e[i]), eps(e[i]))),
        "basis element {name}"))
    return rep


def verify_rmatrix(t: QuasiBialgebra, r=None, r_inv=None) -> Report:
    """Check quasi-triangularity of R, by default t's own, plus its twist credentials."""
    alg = t.algebra
    rep = Report("rmatrix")
    if r is None:
        r, r_inv = t.r, t.r_inv
    phi, phi_inv = t.phi, t.phi_inv
    delta, eps = t.coproduct, t.counit
    unit2 = alg.tensor_unit(2)

    rep.check("R-invertible", lambda: r * r_inv == unit2 and r_inv * r == unit2,
              "product with cached inverse is not the unit")

    e = [alg.basis_element(i) for i in range(alg.dim)]
    rep.check("E14.i", lambda: _require_scan(
        alg, lambda i: (t.coproduct_t(e[i]) * r, r * delta(e[i])), "basis element {name}"))

    rep.add_equal("E14.ii", lambda: (
        delta.on_leg(r, 1),
        phi_inv.perm((2, 3, 1)) * r.embed((1, 3), 3) * phi.perm((1, 3, 2))
        * r.embed((2, 3), 3) * phi_inv))
    rep.add_equal("E14.iii", lambda: (
        delta.on_leg(r, 2),
        phi.perm((3, 1, 2)) * r.embed((1, 3), 3) * phi_inv.perm((2, 1, 3))
        * r.embed((1, 2), 3) * phi))

    unit1 = alg.tensor_unit(1)
    rep.check("R-counit", lambda: eps.on_leg(r, 1) == unit1 and eps.on_leg(r, 2) == unit1,
              "counit of R is not 1")
    return rep


# ---------------------------------------------------------------------------
# derived structures
# ---------------------------------------------------------------------------

@_memoized
def _opposite(h) -> QuasiBialgebra:
    """H^cop, unverified: Delta^T, Phi^{-1}_{321}, (S^{-1}, S^{-1}(alpha), S^{-1}(beta)), R^T.
    Every reader of the opposite structure, verified or not, reads it here."""
    anti = QuasiAntipode(h.s_inv, h.s_inv(h.alpha), h.s_inv(h.beta), s_inv=h.s)
    r, r_inv = (h.r.transpose(), h.r_inv.transpose()) if h.r is not None else (None, None)
    return QuasiBialgebra(h.algebra, h.coproduct_t, h.counit, h.phi_inv.perm((3, 2, 1)),
                          h.phi.perm((3, 2, 1)), anti, r, r_inv, verify=False)


@_memoized
def _mapped_structure(h, primed: bool) -> QuasiBialgebra:
    """The structure transported by m = S (``primed``) or m = S^{-1} (the zero one), unverified.

    Coproduct a -> (m (x) m) Delta^T(m^{-1}(a)), coassociator m(Phi^{321}),
    canonical elements (m(beta), m(alpha)), R-matrix (m (x) m)R; the
    antipode map stays S.  F_delta, F_0 and the opposite dynamical QYBEs
    read it here; :func:`primed_structure` and :func:`zero_structure` pass
    its parts through the constructor, which verifies them.
    """
    m, m_inv = (h.s, h.s_inv) if primed else (h.s_inv, h.s)
    coproduct = LinearMap(h.algebra, [m.map_tensor(h.coproduct_t(c)) for c in m_inv.columns])
    r, r_inv = (m.map_tensor(h.r), m.map_tensor(h.r_inv)) if h.r is not None else (None, None)
    anti = QuasiAntipode(h.s, m(h.beta), m(h.alpha), s_inv=h.s_inv)
    return QuasiBialgebra(h.algebra, coproduct, h.counit, m.map_tensor(h.phi.perm((3, 2, 1))),
                          m.map_tensor(h.phi_inv.perm((3, 2, 1))), anti, r, r_inv, verify=False)


def _verified(b: QuasiBialgebra) -> QuasiBialgebra:
    """The parts of the unverified bundle ``b`` as a new bundle, verified by the constructor."""
    return QuasiBialgebra(b.algebra, b.coproduct, b.counit, b.phi, b.phi_inv, b.antipode,
                          b.r, b.r_inv)


@_memoized
def opposite_structure(h):
    """The opposite structure H^cop, with R^T as its R-matrix if h has one, verified
    once per bundle."""
    return _verified(_opposite(h))


@_memoized
def primed_structure(h):
    """The structure carried by a -> (S (x) S) Delta^T(S^{-1}(a)), verified once per bundle."""
    return _verified(_mapped_structure(h, True))


def zero_structure(h):
    """The mirror of the primed structure built from S^{-1} instead of S."""
    return _verified(_mapped_structure(h, False))


def structures_equal(a, b) -> bool:
    """Component-wise equality of two structure bundles of the same kind."""
    if (a.antipode is None) != (b.antipode is None) or a.r != b.r:
        return False
    if not (a.coproduct == b.coproduct and a.counit == b.counit and a.phi == b.phi):
        return False
    return a.antipode is None or (a.s == b.s and a.alpha == b.alpha and a.beta == b.beta)


def _qybe_sides(phi, phi_inv, left, right):
    """R12 Phi_231^{-1} R13 Phi_132 R23 Phi^{-1} and Phi_321^{-1} R23 Phi_312 R13 Phi_213^{-1} R12.

    Each side takes its R placements from its own triple, ``left`` = (R12,
    R13, R23) and ``right`` = (R23, R13, R12): the dynamical forms shift them.
    """
    r12, r13, r23 = left
    lhs = r12 * phi_inv.perm((2, 3, 1)) * r13 * phi.perm((1, 3, 2)) * r23 * phi_inv
    r23, r13, r12 = right
    rhs = (phi_inv.perm((3, 2, 1)) * r23 * phi.perm((3, 1, 2)) * r13
           * phi_inv.perm((2, 1, 3)) * r12)
    return lhs, rhs


def qqybe_sides(t: QuasiBialgebra):
    """Both arity-3 products whose equality is the quasi-QYBE."""
    r12, r13, r23 = (t.r.embed(legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
    return _qybe_sides(t.phi, t.phi_inv, (r12, r13, r23), (r23, r13, r12))


def check_qqybe(t: QuasiBialgebra) -> bool:
    """Exact check of the quasi-QYBE."""
    lhs, rhs = qqybe_sides(t)
    return lhs == rhs
