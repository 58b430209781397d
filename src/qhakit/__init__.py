"""Exact-arithmetic kernel for finite-dimensional quasi-Hopf algebras.

Structures are given by sparse structure constants over Q or a cyclotomic
extension; every identity the package verifies (coassociator axioms,
antipode equivalence, twisting, the square-of-the-antipode operators,
quasi-cocycles, and the quasi-dynamical Yang-Baxter equation) is an exact
equality of tensors, never a numerical approximation.
"""

from .scalars import Cyclo, Field, RATIONAL, cyclotomic_field
from .tensor import (Algebra, AlgElement, LinearMap, TensorElement, contract,
                     contract_element, tensor_of)
from .structures import (QuasiAntipode, QuasiBialgebra, check_qqybe, opposite_structure,
                         primed_structure, verify_qba, verify_quasi_antipode,
                         verify_rmatrix, zero_structure)
from .twists import (Twist, central_to_compatible, compatible_to_central,
                     compose_twists, is_compatible, is_quasi_cocycle,
                     quadratic_invariants, twist_structure)
from .antipode import AntipodePair, antipode_from_v, check_v_universality, compute_v
from .drinfeld import (DrinfeldData, compute_drinfeld_data, compute_drinfeld_twist,
                       compute_gamma, compute_gamma_bar, compute_second_drinfeld,
                       drinfeld_under_twist, gamma_bar_under_twist, opposite_drinfeld)
from .qtriangular import (UOperators, altschuler_coste_operator, canonical_r_elements,
                          check_ssr_identity, check_u_universality, compute_u,
                          opposite_by_r_vs_cop)
from .dynamical import (DynamicalTwist, ShiftSystem, check_dynamical_coproduct,
                        check_opposite_qdqybe, check_qdqybe,
                        check_shifted_quasi_cocycle, constant_family,
                        dynamical_coassociator, shifted_insert)
from .catalog import CatalogEntry, builtin, default_entries
from .serial import parse_structure, parse_twist, serialize_structure, serialize_twist

__version__ = "0.1.0"
