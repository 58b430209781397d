"""Seeded generators for random invertible elements and twists.

Candidates are unit-plus-sparse-perturbation; a candidate twist is then
corrected to exact counitality by the two-sided normalization
F = (b^{-1} (x) a^{-1}) T with a = (eps (x) 1)T, b = (1 (x) eps)T after
scaling T so that (eps (x) eps)T = 1.  Rejection (singularity, zero
counit) just resamples, so every returned object is a valid twist.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SingularError, TwistError
from .tensor import TensorElement
from .twists import Twist

# candidates drawn before a generator gives up
_TRIES = 64

_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
         Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3)]


def _random_scalar(rng: random.Random, field):
    q = rng.choice(_POOL)
    if field.kind == "cyclotomic" and rng.random() < 0.4:
        return field.zeta * q
    return field.coerce(q)


def random_invertible_element(rng: random.Random, algebra):
    """1 + sparse perturbation, resampled until invertible."""
    d = algebra.dim
    for _ in range(_TRIES):
        coeffs = list(algebra.unit)
        for _ in range(rng.randint(1, min(3, d))):
            i = rng.randrange(d)
            coeffs[i] = coeffs[i] + _random_scalar(rng, algebra.field)
        candidate = algebra.element(coeffs)
        if candidate.is_invertible():
            return candidate
    raise SingularError("could not sample an invertible element")


def random_twist(rng: random.Random, q) -> Twist:
    """A valid (invertible, counital) twist on the structure's algebra."""
    alg = q.algebra
    d = alg.dim
    eps = q.counit
    for _ in range(_TRIES):
        entries = dict(alg.tensor_unit(2).entries)
        for _ in range(rng.randint(1, 3)):
            key = (rng.randrange(d), rng.randrange(d))
            entries[key] = entries.get(key, alg.field.zero) + _random_scalar(rng, alg.field)
        t = TensorElement(alg, 2, entries)
        scale = eps.on_leg(eps.on_leg(t, 1), 1).scalar()
        if not scale:
            continue
        t = t.scale(alg.field.inv(scale))
        a = eps.on_leg(t, 1)
        b = eps.on_leg(t, 2)
        try:
            correction = b.inverse() @ a.inverse()
            return Twist(correction * t, eps)
        except (SingularError, TwistError):
            continue
    raise SingularError("could not sample a twist")
