"""Group arithmetic, characters, base-matrix entries, representations."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    Character,
    GenericGroup,
    IncompleteRepresentation,
    MismatchedGroups,
    Representation,
    VoltageGraph,
    VoltliftError,
    check_representation,
    enumerate_characters,
    group_from_json,
    irreps_completeness_defect,
)

from helpers import s3_group_and_irreps

Z5 = AbelianGroup(5)
Z7 = AbelianGroup(7)
Z33 = AbelianGroup(3, 3)


def loops(group, voltages):
    """Base matrix of one vertex with one loop arc per voltage."""
    arcs = [(0, 0, w) for w in voltages]
    return VoltageGraph.directed_from_arcs(group, [0], arcs).base_matrix()


def test_group_op_z5():
    assert Z5.element(3) * Z5.element(4) == Z5.element(2)


def test_group_op_z3z3_inverse_pair():
    assert Z33.element((2, 1)) * Z33.element((1, 2)) == Z33.identity


def test_element_normalization_and_index():
    el = Z33.element((5, -1))
    assert el.key == (2, 2)
    assert el.index == 8
    assert Z33.elements()[8] == el


def test_generic_group_matches_abelian_on_all_pairs():
    generic = GenericGroup.from_group(Z5)
    for a in range(5):
        for b in range(5):
            left = generic.op(generic.element(a), generic.element(b)).key
            right = Z5.op(Z5.element(a), Z5.element(b)).index
            assert left == right
    assert generic.is_abelian


@pytest.mark.parametrize("group", [AbelianGroup(3, 4), AbelianGroup(7),
                                   s3_group_and_irreps()[0]], ids=["Z3xZ4", "Z7", "S3"])
def test_right_columns_are_products(group):
    els = group.elements()
    idx = np.array([[0, 1, 2], [5 % len(els), 2, 2]])
    cols = group.right_columns(idx)
    assert cols.shape == (len(els),) + idx.shape
    for a, x in enumerate(els):
        for pos, b in np.ndenumerate(idx):
            assert cols[(a,) + pos] == group.index_of(x * els[b])


def test_mismatched_groups_raises():
    with pytest.raises(MismatchedGroups):
        Z5.element(1) * Z7.element(1)


def test_generic_group_rejects_non_latin():
    with pytest.raises(VoltliftError):
        GenericGroup([[0, 1], [0, 1]])


def test_generic_group_rejects_no_identity():
    # subtraction mod 3 is a Latin square with only a right identity
    table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(VoltliftError):
        GenericGroup(table)


def test_generic_group_rejects_non_associative_loop():
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(VoltliftError, match="associative"):
        GenericGroup(table)


def test_group_json_round_trip():
    for group in (Z33, GenericGroup.from_group(Z5)):
        again = group_from_json(group.to_json())
        assert again == group


def test_enumerate_characters_counts():
    assert len(enumerate_characters(Z5)) == 5
    assert len(enumerate_characters(Z33)) == 9
    assert len(enumerate_characters(AbelianGroup(2, 4))) == 8


def test_enumerate_characters_order():
    chars = enumerate_characters(Z33)
    assert chars[0].is_trivial
    assert [c.index for c in chars[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_evaluate_trivial_character():
    vg = VoltageGraph.undirected_from_edges(Z5, [0], [(0, 0, 1)])
    m = vg.base_matrix().evaluate(Character(Z5, 0))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(2.0)


def test_evaluate_primitive_character():
    vg = VoltageGraph.undirected_from_edges(Z5, [0], [(0, 0, 2)])
    m = vg.base_matrix().evaluate(Character(Z5, 1))
    assert m[0, 0] == pytest.approx(2 * math.cos(4 * math.pi / 5), abs=1e-12)


def test_evaluate_row_entry_at_trivial():
    vg = VoltageGraph.directed_from_arcs(
        Z5, ["u", "v"], [(0, 1, 0), (0, 1, 1), (0, 1, -1), (0, 1, -2)]
    )
    m = vg.base_matrix().evaluate(Character(Z5, 0))
    assert m[0, 1] == pytest.approx(4.0)
    assert m[0, 0] == m[1, 0] == m[1, 1] == 0


def test_evaluate_is_multiplicative():
    # chi(g h) = chi(g) chi(h) on every pair, for every character
    for group in (Z5, Z33, AbelianGroup(2, 4)):
        els = group.elements()
        for chi in enumerate_characters(group):
            for g in els:
                for h in els:
                    assert chi(g * h) == pytest.approx(chi(g) * chi(h), abs=1e-12)


def test_character_orthogonality():
    for group in (Z5, Z33, AbelianGroup(2, 4)):
        for chi in enumerate_characters(group):
            total = sum(chi(g) for g in group.elements())
            if chi.is_trivial:
                assert total == pytest.approx(group.size)
            else:
                assert abs(total) < 1e-10


def test_monomial_rendering():
    assert str(loops(Z5, [0, 1, -1, -2])) == "1 + 1/z + z + 1/z^2"
    assert str(loops(Z33, [(1, 0), (1, 2)])) == "z1 + z1/z2"
    # parallel arcs with one voltage count as a coefficient
    assert str(loops(Z5, [2, 2, 0, 0, 0])) == "3 + 2*z^2"
    assert str(loops(GenericGroup.from_group(Z5), [3, 1, 3])) == "g1 + 2*g3"
    empty = VoltageGraph.directed_from_arcs(Z5, [0, 1], [(0, 1, 1)]).base_matrix()
    assert str(empty).splitlines() == ["0  z", "0  0"]


def test_trivial_representation_passes():
    rep = Representation.trivial(Z5)
    assert check_representation(Z5, rep).passed


def test_character_as_representation_passes():
    for chi in enumerate_characters(Z5):
        rep = Representation.from_character(chi)
        assert check_representation(Z5, rep).passed


def test_scaling_representation_fails_unitarity():
    rep = Representation(Z5, {g: np.array([[2.0]]) for g in Z5.elements()})
    report = check_representation(Z5, rep)
    assert not report.passed
    assert report.unitarity_error > 1.0


def test_incomplete_representation_raises():
    els = Z5.elements()
    with pytest.raises(IncompleteRepresentation):
        Representation(Z5, {els[0]: np.eye(1)})


def test_s3_irreps_are_valid_and_complete():
    group, _, irreps = s3_group_and_irreps()
    assert not group.is_abelian
    for rep in irreps:
        assert check_representation(group, rep).passed
    assert irreps_completeness_defect(group, irreps) == 0
    assert irreps_completeness_defect(group, irreps[:2]) == -4


# lcm(orders) < |G| in each group, so the integer phase is not the index sum
@pytest.mark.parametrize("orders", [(4, 6), (8, 12), (3, 3, 3), (7, 7), (5, 5)])
def test_character_phase_equals_exact_fraction_reference(orders):
    group = AbelianGroup(*orders)
    elements = group.elements()
    for chi in enumerate_characters(group):
        for el in elements:
            phase = sum(Fraction(j * g, n) for j, g, n in zip(chi.index, el.key, orders)) % 1
            want = complex(1.0) if phase == 0 else cmath.exp(2j * math.pi * float(phase))
            assert chi(el) == want, (chi.index, el.key)
