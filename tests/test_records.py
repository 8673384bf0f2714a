"""The frozen-record base: construction, equality, hashing, repr, replace."""

from fractions import Fraction

import pytest

from nkt import LinearSolution, TCoeffs, coeffs_from, curvature, expr, nk_lie_group_3d
from nkt.frame_geometry import AuditCheck, NullityFit
from nkt.scalar_algebra import Record


class Pair(Record):
    left: int
    right: int = 7


def test_positional_keyword_and_default_construction():
    assert Pair(1, 2) == Pair(left=1, right=2) == Pair(1, right=2)
    assert Pair(1).right == 7
    assert LinearSolution("identity") == LinearSolution(kind="identity", root=None)
    assert AuditCheck("phi_square", True).detail == ""
    assert Pair._fields == ("left", "right")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                      # missing field
    ((), {"right": 2}),            # missing field, the other given
    ((1, 2, 3), {}),               # one positional too many
    ((1,), {"left": 1}),           # given twice
    ((1,), {"colour": "red"}),     # unknown field
])
def test_missing_surplus_or_unknown_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    fit = NullityFit(Fraction(1), Fraction(0), True, Fraction(0))
    with pytest.raises(AttributeError):
        fit.kappa = Fraction(2)
    with pytest.raises(AttributeError):
        fit.extra = 1
    with pytest.raises(AttributeError):
        del fit.mu
    assert fit.kappa == 1


def test_equality_is_per_class_and_the_hash_is_the_field_tuple():
    class Other(Record):
        left: int
        right: int = 7

    assert Pair(1, 2) != Other(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert Pair(1, 2) != Pair(1, 3)
    assert hash(Pair(1, 2)) == hash(Pair(1, 2)) == hash((1, 2))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2
    solution = LinearSolution("unique", expr("1/n"), expr("n"))
    assert hash(solution) == hash(LinearSolution("unique", expr("1/n"), expr("n")))


def test_repr_names_every_field_in_order():
    assert repr(Pair(1, "x")) == "Pair(left=1, right='x')"
    assert repr(AuditCheck("phi_square", False, "component (1,2): 0 != 1")) == (
        "AuditCheck(name='phi_square', passed=False, detail='component (1,2): 0 != 1')")
    assert repr(LinearSolution("identity")) == (
        "LinearSolution(kind='identity', root=None, side_condition=None)")


def test_replace_copies_with_changes_and_checks_them():
    pair = Pair(1, 2)
    assert pair.replace(right=5) == Pair(1, 5)
    assert pair.replace() == pair and pair.replace() is not pair
    assert pair == Pair(1, 2)
    with pytest.raises(TypeError):
        pair.replace(colour="red")
    coeffs = coeffs_from([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        coeffs.replace(a=coeffs.a[:7])


def test_t_coeffs_needs_exactly_eight_entries():
    with pytest.raises(ValueError, match="exactly 8 entries"):
        TCoeffs(tuple(expr(0) for _ in range(7)))
    assert TCoeffs(tuple(expr(0) for _ in range(8))).annotations == ()


def test_curvature_contractions_are_built_once_then_cached():
    curv = curvature(nk_lie_group_3d(Fraction(1, 2)))
    assert "ricci" not in vars(curv)
    ricci = curv.ricci
    assert curv.ricci is ricci and vars(curv)["ricci"] is ricci
    assert ricci.get((2, 2), 0) == Fraction(3, 2) == curv.scalar  # S(xi,xi) = 2n kappa
    # a cached contraction is no field: equality and replace ignore it
    assert curv == curv.replace() and "ricci" not in vars(curv.replace())
