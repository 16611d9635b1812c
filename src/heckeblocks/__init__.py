"""Rouquier blocks of cyclotomic Hecke algebras for complex reflection
groups, computed from a database of factorized Schur elements and stored
block tables."""

from .cyclo import (
    CycInt,
    KCyclotomic,
    PrimeIdealHandle,
    RootOfUnity,
    in_prime_ideal,
    is_p_essential_factor,
    prime_handle,
)
from .engine import (
    Hyperplane,
    HyperplaneTable,
    Specialization,
    blocks_no_hyperplane,
    blocks_one_hyperplane,
    join,
    meet,
    rouquier_blocks,
    rouquier_from_tables,
)
from .groupblocks import CharacterTable, Partition, p_blocks
from .schur import (
    CharLabel,
    GroupDatum,
    SchurElement,
    SchurFactorV,
    SchurFactorX,
    a_and_A,
    aa_weight,
    bad_primes,
    essential_hyperplanes,
    essential_monomials,
    normalize_x_to_v,
    specialize,
    validate,
    value_at_one,
)
from .store import load, load_group, verify_db

__version__ = "0.1.0"
