from orbkit.abelian import AbelianGroup


def test_str_names_each_summand():
    """Kills the mutant of AbelianGroup.__str__ that prints Z^rank only
    above rank 2: rank 2 must print Z^2, where the mutant prints 0."""
    assert str(AbelianGroup(rank=2)) == "Z^2"
    assert str(AbelianGroup(rank=0)) == "0"
    assert str(AbelianGroup(rank=1, invariant_factors=(2, 4))) \
        == "Z + Z_2 + Z_4"
    assert str(AbelianGroup(rank=3, invariant_factors=(6,))) == "Z^3 + Z_6"
