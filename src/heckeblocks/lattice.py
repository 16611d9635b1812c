"""Integer exponent vectors, which identify monomials in the Hecke
parameters.  The lattice morphisms along which cyclotomic specializations
are decomposed live in heckeblocks.morphism, which no command imports.
"""

from __future__ import annotations

from math import gcd
from operator import mul

__all__ = ["IntVector", "dot", "primitive_part"]

IntVector = tuple[int, ...]


def dot(u: IntVector, v: IntVector) -> int:
    """Standard inner product of two exponent vectors."""
    return sum(map(mul, u, v))


def primitive_part(v: IntVector) -> tuple[IntVector, int]:
    """Split v = content * primitive; the zero vector has content 0."""
    content = 0
    for x in v:
        content = gcd(content, x)
    if content == 0:
        return tuple(v), 0
    return tuple(x // content for x in v), content
