from fractions import Fraction

from envshift.params import ParamPolynomial, coeff_to_str
from oracles import partial_derivative, substitute, total_degree


def test_ring_operations():
    a = ParamPolynomial.variable("a1")
    b = ParamPolynomial.variable("a2")
    p = (a + b) * (a - b)
    q = a * a - b * b
    assert p == q
    assert (p - q).is_zero
    assert p + 1
    assert not p - p


def test_scalar_mixing():
    a = ParamPolynomial.variable("a1")
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert (3 - a) + (a - 3) == ParamPolynomial.const(0)
    assert ParamPolynomial.const(Fraction(5, 3)) == Fraction(5, 3)


def test_substitution():
    a = ParamPolynomial.variable("a1")
    b = ParamPolynomial.variable("a2")
    p = a * a * 3 + b * -2 + 7
    assert substitute(p, {"a1": 2, "a2": Fraction(1, 2)}) == 12 - 1 + 7


def test_str_forms():
    a = ParamPolynomial.variable("a1")
    assert str(ParamPolynomial.const(0)) == "0"
    assert str(a) == "a1"
    assert str(a * a) == "a1^2"
    assert coeff_to_str(a + 1) == "(1 + a1)"
    assert coeff_to_str(Fraction(-3, 2)) == "-3/2"


def test_degree_and_partial():
    a = ParamPolynomial.variable("a1")
    b = ParamPolynomial.variable("a2")
    p = a * a * b * 3 + b * Fraction(1, 2) + 7
    assert total_degree(p) == 3 and total_degree(ParamPolynomial.const(4)) == 0
    assert total_degree(ParamPolynomial()) == -1
    assert partial_derivative(p, "a1") == a * b * 6
    assert partial_derivative(p, "a2") == a * a * 3 + Fraction(1, 2)
    assert partial_derivative(p, "a3").is_zero


def test_addition_that_cancels_leaves_no_zero_term():
    a = ParamPolynomial.variable("a1")
    p = a * 2 + Fraction(1, 3)
    zero = p + (a * -2 + Fraction(-1, 3))
    assert zero.is_zero and zero.terms == {} and zero == 0
    assert (p + Fraction(-1, 3)).terms == {(("a1", 1),): 2}
    assert (ParamPolynomial.const(3) + -3).terms == {}
    assert (p + 0).terms == p.terms
