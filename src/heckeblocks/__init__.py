"""Rouquier blocks of cyclotomic Hecke algebras for complex reflection
groups, computed from a database of factorized Schur elements and stored
block tables."""
