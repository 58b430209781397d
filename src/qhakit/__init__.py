"""Exact-arithmetic kernel for finite-dimensional quasi-Hopf algebras.

Structures are given by sparse structure constants over Q or a cyclotomic
extension; every identity the package verifies (coassociator axioms,
antipode equivalence, twisting, the square-of-the-antipode operators,
quasi-cocycles, and the quasi-dynamical Yang-Baxter equation) is an exact
equality of tensors, never a numerical approximation.

The names below resolve on first use (PEP 562), so importing one module
of the package, such as the command-line driver, loads only what that
module needs.  The suite names and the default trial count live here, and
not in :mod:`qhakit.suites`, because the driver's argument parser needs
them and must load no layer to print its help.
"""

import importlib

SUITE_NAMES = ("axioms", "twist", "drinfeld", "qtriangular", "dynamical")

DEFAULT_TRIALS = 5

_EXPORTS = {
    "scalars": ("Cyclo", "Field", "RATIONAL", "cyclotomic_field"),
    "tensor": ("Algebra", "AlgElement", "LinearMap", "TensorElement", "contract", "tensor_of"),
    "structures": ("QuasiAntipode", "QuasiBialgebra", "check_qqybe", "opposite_structure",
                   "primed_structure", "verify_qba", "verify_quasi_antipode",
                   "verify_rmatrix", "zero_structure"),
    "twists": ("Twist", "central_to_compatible", "compatible_to_central", "compose_twists",
               "is_compatible", "is_quasi_cocycle", "quadratic_invariants",
               "twist_structure"),
    "antipode": ("antipode_from_v", "check_v_universality", "compute_v"),
    "drinfeld": ("DrinfeldData", "compute_drinfeld_data", "compute_drinfeld_twist",
                 "compute_gamma", "compute_gamma_bar", "compute_second_drinfeld",
                 "drinfeld_under_twist", "gamma_bar_under_twist", "opposite_drinfeld"),
    "qtriangular": ("UOperators", "altschuler_coste_operator", "canonical_r_elements",
                    "check_ssr_identity", "check_u_universality", "compute_u",
                    "opposite_by_r_vs_cop"),
    "dynamical": ("DynamicalTwist", "ShiftSystem", "check_dynamical_coproduct",
                  "check_opposite_qdqybe", "check_qdqybe", "check_shifted_quasi_cocycle",
                  "constant_family", "dynamical_coassociator", "shifted_insert"),
    "catalog": ("CatalogEntry", "builtin", "default_entries"),
    "serial": ("parse_structure", "parse_twist", "serialize_structure", "serialize_twist"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
