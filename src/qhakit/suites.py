"""Named verification suites: deterministic batteries over one structure.

Each suite maps a catalog entry (plus a seed for the randomized checks)
to a Report.  Randomness is derived from ``Random(f"{seed}:{suite}:{name}")``
so reports are byte-identical for a fixed (input, seed) pair.  Every
check goes through :meth:`Report.check` and computes inside it every value
it reads, a value two checks share by a ``functools.cache`` thunk, so a
kernel error fails each check that needs the value and no other.  Only the
draws and the family that ``_dynamical_r_checks`` is handed come first.

A suite runs once, in the rational block basis where the rule stated in
:mod:`qhakit.blocks` applies (``setting``).  Its random twists and
elements are then still drawn on the original bundle, with the same RNG
calls, and carried over (``structures.Transported``, the basis the run
uses), so a seed means the same draws in either basis.

Each suite imports its own layers when it runs, and the random draws
import :mod:`qhakit.randgen` when first made, so an axioms job compiles
none of them (the import rule is stated in :mod:`qhakit.cli`).
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from . import DEFAULT_TRIALS, SUITE_NAMES
from .catalog import CatalogEntry
from .report import Report
from .structures import (Transported, _block_form, _opposite, _require, check_qqybe,
                         opposite_structure, primed_structure, qqybe_sides, structures_equal,
                         verify_qba, verify_quasi_antipode, verify_rmatrix, zero_structure)


def _rng(seed, suite, name):
    return random.Random(f"{seed}:{suite}:{name}")


def suite_axioms(entry: CatalogEntry, draw: Transported, seed, trials) -> Report:
    rep = Report("axioms")
    s = entry.structure
    rep.extend(verify_qba(s), prefix="qba")
    rep.extend(verify_quasi_antipode(s), prefix="antipode")
    if s.r is not None:
        rep.extend(verify_rmatrix(s), prefix="rmatrix")
    op = rep.check("P1", lambda: opposite_structure(s))
    rep.check("P2", lambda: primed_structure(s))
    rep.check("P2'", lambda: zero_structure(s))
    # equal to the verified s in every part the verifiers read but the cached inverses,
    # which are leg permutations of s's own, the double opposite needs no battery
    rep.check("P1.involution",
              lambda: op is not None and structures_equal(_opposite(op), s),
              "no opposite structure (P1 failed)" if op is None
              else "the opposite of the opposite differs from the original")
    return rep


def suite_twist(entry: CatalogEntry, draw: Transported, seed, trials) -> Report:
    from .antipode import antipode_from_v, check_v_universality
    from .twists import (Twist, central_to_compatible, compatible_to_central,
                         compose_twists, is_compatible, is_quasi_cocycle, twist_structure)
    rep = Report("twist")
    s = entry.structure
    rng = _rng(seed, "twist", entry.name)

    rep.check("E23.identity", lambda: is_quasi_cocycle(Twist.identity(s), s),
              "identity twist fails the quasi-cocycle condition")

    for k in range(trials):
        f = draw.twist(rng)
        g = draw.twist(rng)
        w = draw.element(rng)

        verified = rep.check(f"E6.verify@{k}", lambda: twist_structure(s, f))
        ts = functools.cache(lambda: verified or twist_structure(s, f, verify=False))
        rep.check(f"L3.group@{k}",
                  lambda: structures_equal(twist_structure(s, compose_twists(f, g)),
                                           twist_structure(twist_structure(s, g, verify=False),
                                                           f, verify=False)),
                  "twisting by FG differs from twisting by G then F")
        rep.check(f"L3.untwist@{k}",
                  lambda: structures_equal(twist_structure(ts(), f.inverse(), verify=False), s),
                  "twisting then untwisting does not return the original")
        rep.check(f"E23.equiv@{k}", lambda: is_quasi_cocycle(f, s) == (ts().phi == s.phi),
                  "quasi-cocycle check disagrees with coassociator invariance")

        rep.check(f"T1.roundtrip@{k}", lambda: antipode_from_v(s, w))
        rep.check(f"uni-v@{k}", lambda: check_v_universality(s, s.antipode.conjugated(w), f, ts()),
                  "v changed under a twist")

        # compatible twists: P7 in both directions, P8 recovery.  C is built from a
        # random central z (a scalar where the draw is not central: then C = 1).
        # Twisting by FC keeps the coproduct, coassociator and R of twisting by F
        # and moves the canonical elements by zeta = eps(z)^2 (z S(z))^{-1}, the
        # central element that P8 recovers from C.
        z = draw.element(rng)
        if not z.is_central():
            z = s.algebra.scalar_element(rng.choice([2, 3, Fraction(1, 2)]))
        c = functools.cache(lambda: central_to_compatible(z, s))
        zeta = functools.cache(lambda: (z * s.s(z)).inverse().scale((eps := s.counit(z)) * eps))
        g_fc = functools.cache(lambda: compose_twists(f, c()))
        rep.check(f"L4@{k}", lambda: is_compatible(c(), s),
                  "central construction is not compatible")

        def moved_by_zeta():
            moved, plain = twist_structure(s, g_fc(), verify=False), ts()
            return ((moved.coproduct, moved.phi, moved.r, moved.alpha, moved.beta * zeta())
                    == (plain.coproduct, plain.phi, plain.r, zeta() * plain.alpha, plain.beta))
        rep.check(f"P7.fwd@{k}", moved_by_zeta, "twisting by F and by FC differ")
        rep.check(f"P7.rev@{k}", lambda: is_compatible(compose_twists(f.inverse(), g_fc()), s),
                  "F^{-1}G of structure-equal twists is not compatible")
        rep.check(f"P8@{k}", lambda: compatible_to_central(c(), s) == zeta(),
                  "the central element of C is not eps(z)^2 (z S(z))^{-1}")
    return rep


def suite_drinfeld(entry: CatalogEntry, draw: Transported, seed, trials) -> Report:
    from .drinfeld import (compute_drinfeld_data, drinfeld_under_twist,
                           gamma_bar_under_twist, opposite_drinfeld)
    from .twists import twist_structure
    rep = Report("drinfeld")
    h = entry.structure
    rng = _rng(seed, "drinfeld", entry.name)

    rep.check("E9+E10+E11+P2+P3", lambda: compute_drinfeld_data(h))
    if not rep.ok:
        return rep
    rep.check("P4", lambda: opposite_drinfeld(h))
    for k in range(trials):
        g = draw.twist(rng)
        tw = functools.cache(lambda: twist_structure(h, g, verify=False))
        rep.check(f"P9@{k}", lambda: gamma_bar_under_twist(h, g, tw()))
        rep.check(f"T4@{k}", lambda: drinfeld_under_twist(h, g, tw()))
    return rep


def suite_qtriangular(entry: CatalogEntry, draw: Transported, seed, trials) -> Report:
    rep = Report("qtriangular")
    s = entry.structure
    if s.r is None:
        rep.check("skip", lambda: True)
        return rep
    from .drinfeld import compute_drinfeld_data, drinfeld_under_twist
    from .qtriangular import (_r_landing, altschuler_coste_operator,
                              canonical_r_elements, check_ssr_identity, check_u_universality,
                              compute_u, opposite_by_r_vs_cop, r_tilde)
    from .twists import Twist, is_compatible, quadratic_invariants, twist_structure
    rng = _rng(seed, "qtriangular", entry.name)

    rep.check("P6+E17", lambda: canonical_r_elements(s, "r"))
    ops = rep.check("E18+E19+E20+L1+L2", lambda: compute_u(s))
    if ops is None:
        return rep
    rep.check("u-central-product", lambda: (ops.u * s.s(ops.u)).is_central(),
              "u S(u) is not central")

    rep.extend(check_ssr_identity(s))
    rep.check("E24AC", lambda: altschuler_coste_operator(s))
    rep.extend(opposite_by_r_vs_cop(s))

    rt = functools.cache(lambda: r_tilde(s))   # Q = (R^T)^{-1} and Q^{-1}
    rep.check("Rtilde-E14", lambda: _require(verify_rmatrix(s, *rt()), "R-matrix axioms fail"))
    rep.check("P1'-E14", lambda: opposite_structure(s))

    # Q = (R^T)^{-1}: QtR and RtQ are the unit for every R and QinvR is RtR, so these three
    # cannot fail; they stay until the re-recording of bench/expected.json replaces them
    combos = {
        "QinvR": lambda q, q_inv: q_inv * s.r,
        "QtR": lambda q, q_inv: q.transpose() * s.r,
        "RinvQ": lambda q, q_inv: s.r_inv * q,
        "RtQ": lambda q, q_inv: s.r.transpose() * q,
        "RtR": lambda q, q_inv: s.r.transpose() * s.r,
    }
    for label, product in combos.items():
        rep.check(f"compat.{label}", lambda: is_compatible(Twist(product(*rt()), s.counit), s),
                  f"{label} is not a compatible twist")

    for m in (0, 1, 2):
        rep.check(f"P8.invariants@{m}", lambda: quadratic_invariants(s, m))
    one = s.algebra.unit_element
    rep.check("P8.inverse-pairing",
              lambda: quadratic_invariants(s, 1) * quadratic_invariants(s, -1) == one
              and quadratic_invariants(s, 2) * quadratic_invariants(s, -2) == one,
              "invariants at m and -m are not mutually inverse")

    rep.check("E42", lambda: check_qqybe(s), "quasi-QYBE fails")

    rep.add_equal("FdR", lambda: (drinfeld_under_twist(s, *_r_landing(s)).f,
                                  compute_drinfeld_data(s).f_delta.f.transpose()
                                  * s.r_inv.transpose() * s.r_inv))

    for k in range(trials):
        f = draw.twist(rng)
        rep.check(f"uni-u@{k}", lambda: check_u_universality(
            s, twist_structure(s, f, verify=False)), "u changed under a twist")
    return rep


def _dynamical_r_checks(rep: Report, dyn, s, lam, label: str) -> None:
    """E46, E47 and the three opposite QYBEs of one family at one point, tagged ``label``."""
    from .dynamical import check_dynamical_coproduct, check_opposite_qdqybe, check_qdqybe
    rep.extend(check_dynamical_coproduct(dyn, s, lam), prefix=label)
    rep.check(f"E47@{label}", lambda: check_qdqybe(dyn, s, lam), "quasi-dynamical QYBE fails")
    for variant in ("primed", "zero", "transpose"):
        rep.check(f"op-qdqybe.{variant}@{label}",
                  lambda: check_opposite_qdqybe(dyn, s, variant, lam),
                  f"opposite dynamical QYBE ({variant}) fails")


def suite_dynamical(entry: CatalogEntry, draw: Transported, seed, trials) -> Report:
    from .dynamical import (check_classical_dqybe, check_qdqybe,
                            check_shifted_quasi_cocycle, constant_family,
                            dynamical_coassociator, qdqybe_sides, shifted_cocycle_sides)
    from .twists import Twist, quasi_cocycle_sides, twist_structure
    rep = Report("dynamical")
    s = entry.structure
    rng = _rng(seed, "dynamical", entry.name)

    # degeneration: a constant zero-weight family reduces the shifted condition
    # to the plain quasi-cocycle condition, term by term (any twist)
    f = draw.twist(rng)
    const = functools.cache(lambda: constant_family(s, f))
    rep.check("E43-to-E23",
              lambda: shifted_cocycle_sides(const(), s, 0) == quasi_cocycle_sides(f, s),
              "zero-weight shifted condition does not reduce to the plain one")

    if s.r is not None:
        # the semantic reduction to the plain quasi-QYBE of the twisted
        # structure needs a twist that fixes the coassociator; R^T R is
        # always such a twist
        f_qc = functools.cache(lambda: Twist(s.r.transpose() * s.r, s.counit,
                                             s.r_inv * s.r_inv.transpose(), check=False))
        const_qc = functools.cache(lambda: constant_family(s, f_qc()))
        rep.check("E47-to-E42", lambda: qdqybe_sides(const_qc(), s, 0)
                  == qqybe_sides(twist_structure(s, f_qc(), verify=False)),
                  "zero-weight dynamical QYBE does not reduce to the plain one")
        if s.phi == s.algebra.tensor_unit(3):
            rep.check("E47-to-classical",
                      lambda: check_qdqybe(const(), s, 0) == check_classical_dqybe(const(), s, 0),
                      "trivial-coassociator reduction to the classical dynamical QYBE fails")

    dyn = entry.dynamical
    if dyn is not None:
        rep.extend(check_shifted_quasi_cocycle(dyn, s))
        for lam in dyn.checkable():
            rep.check(f"E45@{lam}", lambda: dynamical_coassociator(dyn, s, lam))
            if s.r is not None:
                _dynamical_r_checks(rep, dyn, s, lam, f"{lam}")
    elif s.r is not None:
        # no attached family: exercise the identities on the constant family
        # built on the R^T R twist, which satisfies the zero-shift condition
        _dynamical_r_checks(rep, const_qc(), s, 0, "const")
    return rep


_SUITES = {
    "axioms": suite_axioms,
    "twist": suite_twist,
    "drinfeld": suite_drinfeld,
    "qtriangular": suite_qtriangular,
    "dynamical": suite_dynamical,
}


def run_suites(entry: CatalogEntry, suites, seed=0, trials=DEFAULT_TRIALS):
    """Run the named suites in canonical order; returns a list of Reports.

    Each suite runs once, in the basis ``setting`` picks for ``entry``.
    """
    if suites == "all" or suites == ["all"]:
        names = SUITE_NAMES
    else:
        names = [suites] if isinstance(suites, str) else list(suites)
        for n in names:
            if n not in _SUITES:
                raise ValueError(f"unknown suite {n!r}; choose from {SUITE_NAMES} or 'all'")
    entry, draw = setting(entry)
    return [_SUITES[n](entry, draw, seed=seed, trials=trials) for n in names]


def setting(entry: CatalogEntry):
    """(entry, Transported) in the basis every suite and computation on ``entry`` runs
    in: the block basis of the constructor's carried bundle, if any and if ``entry``
    has no dynamical family (see :mod:`qhakit.blocks`), else the original one."""
    s = entry.structure
    carried = None if entry.dynamical is not None else _block_form(s)
    if carried is None:
        return entry, Transported(s, s, None, None)
    return entry._replace(structure=carried.s), carried._replace(original=s)
