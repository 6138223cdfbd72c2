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
    representations_from_json,
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


def test_generic_group_hash_and_equality():
    group, _, _ = s3_group_and_irreps()
    copy = GenericGroup.from_group(group)
    assert copy is not group and copy == group and group == copy
    assert hash(copy) == hash(group) == hash(("GenericGroup", copy._table))
    again = GenericGroup([list(row) for row in group._table], name="other")
    assert again == group and hash(again) == hash(group)
    assert group != GenericGroup.from_group(Z5)
    assert group != AbelianGroup(6) and group == group


class _UnreadableTable(tuple):
    """A table stand-in that fails the test if it is ever compared."""

    def __eq__(self, other):
        raise AssertionError("table compared")


def test_generic_group_rejects_a_different_hash_without_reading_tables():
    s3 = s3_group_and_irreps()[0]
    z6 = GenericGroup.from_group(AbelianGroup(6))
    assert s3.size == z6.size and hash(s3) != hash(z6)
    s3._table = _UnreadableTable(s3._table)
    assert s3 != z6 and z6 != s3 and not s3 == z6
    with pytest.raises(MismatchedGroups):
        s3.element(1) * z6.element(1)
    # equal copies still compare their tables
    copy = GenericGroup(list(z6._table))
    assert copy == z6
    copy._table = _UnreadableTable(copy._table)
    with pytest.raises(AssertionError, match="table compared"):
        copy == z6


@pytest.mark.parametrize("group", [AbelianGroup(3, 4), AbelianGroup(2, 2, 2), AbelianGroup(1),
                                   s3_group_and_irreps()[0]], ids=["Z3xZ4", "Z2^3", "Z1", "S3"])
def test_inverse_indices_are_element_inverses(group):
    inv = group.inverse_indices()
    assert inv.dtype == np.intp
    assert inv.tolist() == [el.inverse().index for el in group.elements()]


def test_same_group_object_skips_equality(monkeypatch):
    calls = []
    eq = AbelianGroup.__eq__
    monkeypatch.setattr(AbelianGroup, "__eq__",
                        lambda self, other: calls.append(1) or eq(self, other))
    group = AbelianGroup(3, 4)
    a, b = group.element((1, 2)), group.element((2, 3))
    assert (a * b).index == group.element((0, 1)).index and a.inverse().index == 10
    assert not calls
    assert group.element((1, 2)) * AbelianGroup(3, 4).element((0, 1)) == group.element((1, 3))
    assert calls
    with pytest.raises(MismatchedGroups, match=r"AbelianGroup\(4,\) and AbelianGroup\(3, 4\)"):
        a * AbelianGroup(4).element(1)


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


def test_check_representation_over_an_equal_copy(monkeypatch):
    group, _, irreps = s3_group_and_irreps()
    copy = GenericGroup.from_group(group)
    distinct = 0
    equal = GenericGroup.__eq__

    def counting_eq(self, other):
        nonlocal distinct
        distinct += self is not other
        return equal(self, other)

    for rho in irreps:
        own = check_representation(group, rho)
        monkeypatch.setattr(GenericGroup, "__eq__", counting_eq)
        distinct = 0
        report = check_representation(copy, rho)
        monkeypatch.setattr(GenericGroup, "__eq__", equal)
        # the one comparison of the two groups, whatever |G| is
        assert distinct == 1
        assert (report.homomorphism_error, report.unitarity_error, report.passed) == \
            (own.homomorphism_error, own.unitarity_error, own.passed)


def _trivial_irrep_json(**replace):
    entry = {str(i): [1.0, 0.0] for i in range(6)}
    entry.update(replace)
    return [entry]


@pytest.mark.parametrize("data, message", [
    (_trivial_irrep_json(**{"6": [1, 0]}), "irreps JSON[0] key '6' is not an element index 0..5"),
    ({"0": [1, 0]}, "irreps JSON must be a list, got dict"),
    ([[1, 0]], "irreps JSON[0] must be an object, got list"),
    (_trivial_irrep_json(**{"1": 5}), "irreps JSON[0] field '1' is a int, expected list"),
    (_trivial_irrep_json(**{"2": ["a", 0]}),
     "irreps JSON[0] element 2 must be [re, im] number pairs"),
    (_trivial_irrep_json(**{"2": [True, 0]}),
     "irreps JSON[0] element 2 must be [re, im] number pairs"),
    (_trivial_irrep_json(**{"3": [1, 0, 0]}),
     "irreps JSON[0] element 3 must be [re, im] number pairs"),
    (_trivial_irrep_json(**{"4": [1, 0, 0, 0]}), "irreps JSON[0] element 4 matrix is not square"),
    (_trivial_irrep_json(**{"x": [1, 0]}), "irreps JSON[0] key 'x' is not an element index 0..5"),
], ids=["key-out-of-range", "top-level-object", "entry-is-list", "matrix-not-list",
        "entry-not-number", "entry-bool", "odd-length", "not-square", "key-not-int"])
def test_representations_from_json_rejects_malformed_input(data, message):
    group, _, _ = s3_group_and_irreps()
    with pytest.raises(VoltliftError) as err:
        representations_from_json(group, data)
    assert str(err.value) == message


def test_representations_from_json_rejects_negative_keys():
    group, _, _ = s3_group_and_irreps()
    # all six keys are present once "-1" stands for element 5
    data = _trivial_irrep_json()
    data[0]["-1"] = data[0].pop("5")
    with pytest.raises(VoltliftError, match="key '-1' is not an element index"):
        representations_from_json(group, data)
    (rho,) = representations_from_json(group, _trivial_irrep_json())
    assert check_representation(group, rho).passed


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
            assert chi.values()[el.index] == want, (chi.index, el.key)
