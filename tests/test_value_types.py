"""The value types: immutable, without an instance __dict__, with
dataclass-style reprs, hashable where every field is, and character labels
ordered by their fields."""

import pytest

from heckeblocks.cyclo import KCyclotomic, PrimeIdealHandle, RootOfUnity
from heckeblocks.engine import Hyperplane, Specialization
from heckeblocks.groupblocks import Partition
from heckeblocks.morphism import associated_morphism
from heckeblocks.schur import CharLabel, SchurFactorX, specialize
from heckeblocks.store import load_group


def _values():
    """type name -> (a value of that type, its first field), every value
    built afresh."""
    g4, g6, g7 = (load_group(name) for name in ("G4", "G6", "G7"))
    s = g7.schur_elements[g7.characters[0]]
    return {
        "RootOfUnity": (RootOfUnity.of(3, 1), "order"),
        "KCyclotomic": (KCyclotomic.of(3, RootOfUnity.of(4, 1)),
                        "field_conductor"),
        "PrimeIdealHandle": (PrimeIdealHandle(2, 3, (1, 1, 1)),
                             "rational_prime"),
        "LatticeMorphism": (associated_morphism((1, -1, 0)), "matrix"),
        "Partition": (Partition.of([[1, 3], [2]], 3), "parts"),
        "CharacterTable": (g4.character_table, "conductor"),
        "Hyperplane": (Hyperplane.of((2, -2, 0)), "normal"),
        "HyperplaneTable": (g4.hyperplane_tables[1], "hyperplane"),
        "Specialization": (Specialization((0, 1, 2)), "n"),
        "CharLabel": (CharLabel.parse("phi{2,1}'"), "degree"),
        "GroupDatum": (g7, "name"),
        "SchurFactorX": (SchurFactorX(2, (1, -1, 0)), "cyc_index"),
        "SchurFactorV": (s.factors[0], "psi"),
        "SchurElement": (s, "char"),
        "SchurFacts": (g7.schur_facts[s.char], "norm"),
        "SpecializedSchur": (specialize(g7, s, (0,) * 8), "xi"),
        "CliffordLink": (g6.clifford_links[0], "parent"),
    }


_NAMES = ["CharLabel", "CharacterTable", "CliffordLink", "GroupDatum",
          "Hyperplane", "HyperplaneTable", "KCyclotomic", "LatticeMorphism",
          "Partition", "PrimeIdealHandle", "RootOfUnity", "SchurElement",
          "SchurFactorV", "SchurFactorX", "SchurFacts", "SpecializedSchur",
          "Specialization"]
# Types with a field that cannot be hashed: a CycInt or a dict.
_UNHASHABLE = {"CharacterTable", "GroupDatum", "SchurElement",
               "SpecializedSchur"}


@pytest.fixture(scope="module")
def twice():
    return _values(), _values()


@pytest.mark.parametrize("name", _NAMES)
def test_value_types_are_immutable(twice, name):
    value, field = twice[0][name]
    assert type(value).__name__ == name
    assert repr(value).startswith(f"{name}({field}=")
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # fields are read-only descriptors, so only this catches a missing
    # __slots__ = (), which lets any other attribute be set
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(set(_NAMES) - _UNHASHABLE))
def test_equal_values_hash_equal(twice, name):
    (first, _), (second, _) = twice[0][name], twice[1][name]
    assert first is not second
    assert first == second and hash(first) == hash(second)


def test_character_labels_sort_by_degree_b_invariant_and_marks():
    labels = ["phi{2,1}", "phi{1,5}'", "phi{1,5}", "phi{1,0}'''", "phi{3,0}"]
    assert [str(c) for c in sorted(map(CharLabel.parse, labels))] == [
        "phi{1,0}'''", "phi{1,5}", "phi{1,5}'", "phi{2,1}", "phi{3,0}"]
