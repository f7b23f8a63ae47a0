"""Scalar layer: polynomials and rational functions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from agverify.docparse import poly_coeffs
from agverify.polyalg import NEG_INF, ONE, S, ZERO, Poly, RatFunc, poly_gcd, poly_lcm
from support import gcd_reference, poly_text_reference

coeffs = st.lists(st.integers(min_value=-6, max_value=6), max_size=5)
polys = coeffs.map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=9)
rational_lists = st.lists(rationals, max_size=5)
# Coefficients that reduce against a shared denominator, that are ±1, and
# that run far above a machine word.
text_coeffs = st.one_of(
    st.sampled_from((0, 1, -1, Fraction(1, 2), Fraction(-2, 3))),
    rationals,
    st.builds(Fraction, st.integers(min_value=-2**70, max_value=2**70),
              st.integers(min_value=1, max_value=10**9 + 7)),
)
text_polys = st.lists(text_coeffs, max_size=6).map(Poly)


# Reference arithmetic on plain Fraction lists (ascending powers).


def ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    """Long division of a by b (b without trailing zeros, not empty)."""
    rem, q = ref_trim(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        shift, f = len(rem) - len(b), rem[-1] / b[-1]
        q[shift] = f
        rem = ref_add(rem, [Fraction(0)] * shift + [f * y for y in b], -1)
    return ref_trim(q), rem


class TestPolyBasics:
    def test_canonical_zero(self):
        assert Poly([0, 0]) == Poly([]) == ZERO
        assert Poly([0, 0]).degree == NEG_INF
        assert not Poly([0])

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_degree_and_lc(self):
        p = Poly([1, 0, Fraction(3, 2)])
        assert p.degree == 2
        assert p.lc == Fraction(3, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])

    def test_add(self):
        assert (S + 1) + (S - 1) == 2 * S

    def test_mul(self):
        assert S * S == Poly([0, 0, 1])

    def test_str_forms(self):
        assert str(Poly([1, -1, Fraction(3, 2)])) == "3/2*s^2 - s + 1"
        assert str(ZERO) == "0"
        assert str(-S) == "-s"
        assert str(Poly([0, 0, -1])) == "-s^2"

    @given(text_polys)
    def test_str_matches_fraction_text(self, p):
        assert str(p) == poly_text_reference(p)
        assert poly_coeffs(p) == [str(c) for c in p.coeffs]

    def test_value_semantics(self):
        assert Poly([3]) == 3 and Poly([Fraction(1, 2)]) == Fraction(1, 2)
        assert Poly([1, 1]) == S + 1 and hash(Poly([1, 1])) == hash(S + 1)
        # A constant polynomial hashes like the scalar it equals.
        for scalar in (0, 3, -2, Fraction(1, 2)):
            assert hash(Poly([scalar])) == hash(scalar)
        assert len({Poly([3]), 3}) == 1 and {3: "x"}[Poly([3])] == "x"
        assert {Fraction(1, 2): "h"}[Poly([Fraction(1, 2)])] == "h" and ZERO in {0}
        assert repr(S + 1) == "Poly(s + 1)"
        with pytest.raises(AttributeError):
            S.num = (1,)


class TestDivmod:
    def test_basic(self):
        q, r = divmod(S**2 + 1, S)
        assert (q, r) == (S, ONE)

    def test_factorization(self):
        q, r = divmod(S**2 - 1, S - 1)
        assert (q, r) == (S + 1, ZERO)

    def test_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(S, ZERO)

    @given(a=polys, b=nonzero_polys)
    def test_reconstruction(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(p=nonzero_polys)
    def test_self_division(self, p):
        assert divmod(p, p) == (ONE, ZERO)


@st.composite
def gcd_pairs(draw):
    """Pairs with a common factor, with one zero argument, equal, coprime
    (a and a * h + 1) or drawn apart, over integer and rational
    coefficients, never both zero."""
    poly = draw(st.sampled_from((polys, rational_lists.map(Poly))))
    kind = draw(st.sampled_from(("common", "zero", "equal", "coprime", "any")))
    a, b = draw(poly.filter(bool)), draw(poly)
    if kind == "common":
        f = draw(poly.filter(bool))
        a, b = f * a, f * b
    elif kind == "zero":
        b = ZERO
    elif kind == "equal":
        b = a
    elif kind == "coprime":
        b = a * b + 1
    return (a, b) if draw(st.booleans()) else (b, a)


class TestGcd:
    @given(gcd_pairs())
    def test_matches_euclid_over_fractions(self, pair):
        a, b = pair
        assert poly_gcd(a, b) == gcd_reference(a, b)

    def test_common_factor(self):
        assert poly_gcd(S**2 - 1, S - 1) == S - 1

    def test_coprime(self):
        assert poly_gcd(S, S + 1) == ONE

    def test_gcd_zero_zero(self):
        with pytest.raises(ValueError):
            poly_gcd(ZERO, ZERO)

    @given(a=polys, b=polys)
    def test_monic_and_divides(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        assert g.lc == 1
        assert (a % g).is_zero and (b % g).is_zero

    @given(a=polys, b=polys)
    def test_divides_leaves_no_remainder(self, a, b):
        assert a.divides(b) == (b.is_zero if a.is_zero else (b % a).is_zero)

    @given(p=nonzero_polys, q=nonzero_polys, r=nonzero_polys)
    def test_multiplicativity(self, p, q, r):
        # gcd(p*q, p*r) = p * gcd(q, r) up to monic normalization.
        left = poly_gcd(p * q, p * r)
        right = (p * poly_gcd(q, r)).monic()
        assert left == right


class TestRingLaws:
    @given(a=polys, b=polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(a=polys, b=polys, c=polys)
    def test_associativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(p=polys)
    def test_annihilator(self, p):
        assert p * ZERO == ZERO


class TestEval:
    def test_direct(self):
        assert (S**2 + 1)(2) == 5

    def test_zero_poly(self):
        assert ZERO(Fraction(7, 3)) == 0

    def test_root(self):
        assert (S - 3)(3) == 0

    @given(p=polys, x=st.fractions(max_denominator=7))
    def test_matches_sum(self, p, x):
        assert p(x) == sum(c * x**k for k, c in enumerate(p.coeffs))


class TestRationalOracle:
    """Rational coefficients against the Fraction-list reference above."""

    @given(a=rational_lists, b=rational_lists)
    def test_ring_operations(self, a, b):
        p, q = Poly(a), Poly(b)
        assert (p + q).coeffs == tuple(ref_add(ref_trim(a), ref_trim(b)))
        assert (p - q).coeffs == tuple(ref_add(ref_trim(a), ref_trim(b), -1))
        assert (p * q).coeffs == tuple(ref_mul(ref_trim(a), ref_trim(b)))
        assert (-p).coeffs == tuple(-x for x in ref_trim(a))

    @given(a=rational_lists, b=rational_lists.filter(lambda b: any(b)))
    def test_divmod_is_long_division(self, a, b):
        q, r = divmod(Poly(a), Poly(b))
        rq, rr = ref_divmod(a, ref_trim(b))
        assert q.coeffs == tuple(rq)
        assert r.coeffs == tuple(rr)

    @given(a=rational_lists, x=rationals)
    def test_scalar_division(self, a, x):
        if x == 0:
            with pytest.raises(ZeroDivisionError):
                Poly(a) / x
        else:
            assert (Poly(a) / x).coeffs == tuple(c / x for c in ref_trim(a))

    @given(a=rational_lists)
    def test_monic(self, a):
        t = ref_trim(a)
        assert Poly(a).monic().coeffs == (tuple(c / t[-1] for c in t) if t else ())

    @given(a=rational_lists, k=rationals.filter(bool))
    def test_canonical_form(self, a, k):
        p = Poly(a)
        routes = (Poly([c * k for c in a]) / k, p * k / k, (p * k) * (1 / k), p + p - p)
        for other in routes:
            assert other == p and hash(other) == hash(p)
        for r in (p, *routes):
            assert r.den > 0 and gcd(r.den, *r.num) == 1
            assert r.num[-1] != 0 if r.num else r.den == 1

    def test_equal_by_different_routes(self):
        assert Poly([Fraction(1, 2)]) * 2 == ONE
        assert hash(Poly([Fraction(1, 2)]) * 2) == hash(ONE)
        assert Poly([Fraction(2, 4)]) == Poly([Fraction(1, 2)])
        assert Poly([Fraction(1, 3), 1]) * 3 - S * 3 == ONE
        assert divmod(S / 2 + Fraction(1, 2), S + 1) == (Poly([Fraction(1, 2)]), ZERO)

    @given(a=rational_lists, k=st.integers(min_value=-1, max_value=6))
    def test_derived_values_are_fractions(self, a, k):
        p = Poly(a)
        assert all(type(c) is Fraction for c in p.coeffs)
        assert p.coeffs == tuple(ref_trim(a))
        assert type(p.lc) is Fraction and p.lc == (ref_trim(a) or [0])[-1]
        assert type(p.coeff(k)) is Fraction
        assert p.coeff(k) == (ref_trim(a)[k] if 0 <= k < len(ref_trim(a)) else 0)
        assert all(type(c) is Fraction for c in Poly([1, 2]).coeffs)

    @given(a=rational_lists, x=st.fractions(max_denominator=7))
    def test_evaluation(self, a, x):
        assert Poly(a)(x) == sum(c * x**k for k, c in enumerate(a))

    def test_division_by_poly_is_type_error(self):
        # A quotient of polynomials is a rational function; the package forms none.
        with pytest.raises(TypeError):
            Poly([1]) / Poly([0, 1])
        with pytest.raises(TypeError):
            ONE / S

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly([Fraction(1, 2), 0.5])
        with pytest.raises(TypeError):
            Poly([1]) / 0.5
        with pytest.raises(TypeError):
            Poly([Fraction(1, 3)]) / 2.0


class TestRatFunc:
    def test_strictly_proper(self):
        assert RatFunc(ONE, S).is_proper

    def test_polynomial_improper(self):
        assert not RatFunc(S, ONE).is_proper

    def test_equal_degrees_proper(self):
        assert RatFunc(S + 1, S + 2).is_proper

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, ZERO)

    def test_reduction_and_monic_denominator(self):
        f = RatFunc(2 * S**2 - 2, 4 * S - 4)  # (2s^2-2)/(4s-4) = (s+1)/2
        assert f.num == Poly([Fraction(1, 2), Fraction(1, 2)])
        assert f.den == ONE

    def test_zero_canonical(self):
        f = RatFunc(ZERO, 5 * S)
        assert f.num == ZERO and f.den == ONE

    @given(n=polys, d=nonzero_polys)
    def test_reduction_idempotent(self, n, d):
        f = RatFunc(n, d)
        again = RatFunc(f.num, f.den)
        assert (again.num, again.den) == (f.num, f.den)

    @given(n=polys, d=nonzero_polys)
    def test_canonical_invariants(self, n, d):
        f = RatFunc(n, d)
        assert f.den.lc == 1
        if not f.num.is_zero:
            assert poly_gcd(f.num, f.den) == ONE

    def test_value_semantics(self):
        f = RatFunc(2 * S + 2, 2 * S)
        g = RatFunc(S + 1, S)
        assert f == g and hash(f) == hash(g)
        assert f != RatFunc(S + 2, S)
        with pytest.raises(AttributeError):
            f.num = ONE


def test_lcm():
    assert poly_lcm(S, S - 1) == S * (S - 1)
    assert poly_lcm(S, ZERO) == ZERO
