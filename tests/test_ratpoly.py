from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import discriminant, gcd_mod_p_oracle, resultant, schoolbook_product, sylvester_resultant
from quadorbit.algebra import ratpoly
from quadorbit.algebra import (
    IntPolynomial,
    gcd_primitive,
    is_probable_prime,
    is_square,
    is_squarefree,
    parse_poly,
    square_in_quadratic_extension,
    squarefree_decomposition,
)


small_int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(IntPolynomial).filter(
    lambda p: not p.is_zero()
)


class TestSquarefreeDecomposition:
    def test_already_squarefree(self):
        unit, parts = squarefree_decomposition(parse_poly("t^2+t"))
        assert unit == 1
        assert parts == [(parse_poly("t^2+t"), 1)]

    def test_with_square_factor(self):
        unit, parts = squarefree_decomposition(parse_poly("t^3+t^2"))
        assert unit == 1
        assert parts == [(parse_poly("t+1"), 1), (parse_poly("t"), 2)]

    def test_constant(self):
        unit, parts = squarefree_decomposition(IntPolynomial((5,)))
        assert unit == 5
        assert parts == []

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decomposition(IntPolynomial((0,)))

    def test_multiplicities_strictly_increase(self):
        t, t1, tm1 = parse_poly("t"), parse_poly("t+1"), parse_poly("t-1")
        f = t * t * t1 * tm1 * tm1 * tm1
        _, parts = squarefree_decomposition(f)
        mults = [m for _, m in parts]
        assert mults == sorted(mults)
        assert len(set(mults)) == len(mults)

    @settings(deadline=None, max_examples=60)
    @given(small_int_polys, small_int_polys, st.integers(1, 3), st.integers(1, 2))
    def test_remultiplication_identity(self, f, g, e1, e2):
        poly = f**e1 * g**e2
        unit, parts = squarefree_decomposition(poly)
        acc = IntPolynomial((unit,))
        for factor, mult in parts:
            for _ in range(mult):
                acc = acc * factor
        assert acc == poly


class TestIsSquare:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(4, 9), True),
            (Fraction(-4, 9), False),
            ("t^2+t", False),
            ("t^2+2t+1", True),
            ("4t^2", True),
            ("2t^2", False),
            ("-t^2", False),
        ],
    )
    def test_examples(self, value, expected):
        arg = parse_poly(value) if isinstance(value, str) else value
        assert is_square(arg) is expected

    @settings(deadline=None, max_examples=40)
    @given(small_int_polys)
    def test_square_of_anything_is_square(self, f):
        assert is_square(f * f)

    @settings(deadline=None, max_examples=40)
    @given(small_int_polys)
    def test_square_times_squarefree_nonsquare(self, f):
        g = parse_poly("t^2+t")  # square-free, nonconstant
        if gcd_primitive(f, g)[0].is_constant():
            assert not is_square(f * f * g)


class TestQuadraticExtension:
    def test_examples(self):
        assert square_in_quadratic_extension(Fraction(2), Fraction(-1)) is False
        assert square_in_quadratic_extension(Fraction(-4), Fraction(-1)) is True
        assert square_in_quadratic_extension(Fraction(9), Fraction(-1)) is True

    def test_rejects_square_modulus(self):
        with pytest.raises(ValueError):
            square_in_quadratic_extension(Fraction(2), Fraction(4))
        with pytest.raises(ValueError):
            square_in_quadratic_extension(Fraction(2), Fraction(0))

    def test_polynomial_side(self):
        # a = t^2 (square): True regardless of m
        assert square_in_quadratic_extension(parse_poly("t^2"), parse_poly("t+1")) is True
        # a = t+1, m = t: neither t+1 nor t(t+1) are squares
        assert square_in_quadratic_extension(parse_poly("t+1"), parse_poly("t")) is False
        # a = t, m = t: t*t = t^2 is a square
        assert square_in_quadratic_extension(parse_poly("t"), parse_poly("t")) is True


class TestResultantDiscriminant:
    def test_examples(self):
        assert resultant(parse_poly("t^2+1"), parse_poly("2t")) == 4
        assert discriminant(parse_poly("t^2+1")) == -4
        assert discriminant(parse_poly("t^4+2t^2+2")) == 512

    def test_quartic_formula_oracle(self):
        # disc(x^4+px^2+q) = 16p^4q - 128p^2q^2 + 256q^3
        for p, q in [(2, 2), (1, 3), (-3, 5), (0, 7)]:
            f = IntPolynomial((q, 0, p, 0, 1))
            expected = 16 * p**4 * q - 128 * p**2 * q**2 + 256 * q**3
            assert discriminant(f) == expected

    @settings(deadline=None, max_examples=50)
    @given(small_int_polys, small_int_polys)
    def test_sylvester_oracle(self, f, g):
        ours = resultant(f, g)
        assert ours == sylvester_resultant(f.coeffs, g.coeffs)

    @settings(deadline=None, max_examples=50)
    @given(small_int_polys, small_int_polys)
    def test_zero_iff_common_factor(self, f, g):
        r = resultant(f, g)
        common = gcd_primitive(f, g)[0]
        if f.is_constant() or g.is_constant():
            return
        assert (r == 0) == (common.degree > 0)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            resultant(parse_poly("0"), parse_poly("t"))
        with pytest.raises(ValueError):
            discriminant(parse_poly("5"))


class TestGcd:
    def test_basic(self):
        f = parse_poly("t^3+t^2")
        g = parse_poly("t^2+2t+1")
        assert gcd_primitive(f, g)[0] == parse_poly("t+1")

    def test_coprime_certificate(self):
        assert gcd_primitive(parse_poly("t^2+1"), parse_poly("t"))[0].is_constant()

    def test_large_degree_squarefree_certificate(self):
        # gamma_9(0) for the map x^2+t has degree 256; square-freeness via
        # one homomorphic image must stay fast.
        v = parse_poly("t")
        for _ in range(8):
            v = v * v + parse_poly("t")
        assert v.degree == 256
        assert is_squarefree(v)

    @settings(deadline=None, max_examples=40)
    @given(small_int_polys, small_int_polys, small_int_polys)
    def test_gcd_divides_both(self, f, g, h):
        a, b = f * h, g * h
        d, cf, cg = gcd_primitive(a, b)
        assert a.divmod_exact_or_none(d) is not None
        assert b.divmod_exact_or_none(d) is not None
        # the cofactors are those of the arguments as given
        assert d * cf == a
        assert d * cg == b
        # h divides the gcd
        assert d.divmod_exact_or_none(h.primitive_part()) is not None
        # a non-primitive argument keeps its content in its cofactor
        d6, cf6, cg6 = gcd_primitive(6 * a, b)
        assert d6 == d
        assert d6 * cf6 == 6 * a
        assert d6 * cg6 == b

    def test_huge_coefficient_gcd_needs_crt(self):
        # common factor with ~200-bit coefficients forces the multi-prime lift
        h = IntPolynomial((3**130 + 1, 5**87, 1))
        f = h * IntPolynomial((1, 0, 2))
        g = h * IntPolynomial((-4, 1))
        assert gcd_primitive(f, g)[0] == h.primitive_part()


# Primes just above 2^25 and just below 2^26: the ends of the image-prime range.
IMAGE_PRIMES = [n for n in range(2**25 + 1, 2**25 + 400, 2) if is_probable_prime(n)] + [
    n for n in range(2**26 - 1, 2**26 - 400, -2) if is_probable_prime(n)
]


@st.composite
def image_gcd_inputs(draw):
    """(f, g, p): coefficient lists whose leading coefficients p does not
    divide, half of them sharing a random factor."""
    p = draw(st.sampled_from(IMAGE_PRIMES))

    def coeffs(lo, hi):
        return st.lists(st.integers(-(2**40), 2**40), min_size=lo, max_size=hi).filter(lambda cs: cs[-1] % p != 0)

    f = draw(coeffs(1, 60))
    g = draw(coeffs(1, 60))
    if draw(st.booleans()):
        h = draw(coeffs(2, 12))
        f = [c % p for c in schoolbook_product(f, h)]
        g = [c % p for c in schoolbook_product(g, h)]
    return f, g, p


class TestPackedImageGcd:
    @settings(deadline=None, max_examples=300)
    @given(image_gcd_inputs())
    def test_matches_list_euclid(self, inputs):
        f, g, p = inputs
        assert ratpoly._gcd_image(tuple(f), tuple(g), p) == gcd_mod_p_oracle(f, g, p)

    @pytest.mark.parametrize(
        "steps,divisor_terms",
        [(2**11, 4), (2**13 + 2**11, 4), (2**13 + 17, 2**13 + 17)],
        ids=["at_bound", "above_bound", "slots_past_2_65_unless_reduced"],
    )
    def test_longest_divisions_keep_every_slot_in_range(self, steps, divisor_terms):
        # f = (1 + ... + x^(steps-1)) * b with every coefficient of b equal to
        # p-1: the first division runs `steps` elimination steps, each adding
        # the largest multiplier p-1 times the largest slot p-1 to
        # `divisor_terms` slots.  In the last case the middle slots take
        # 2^13 + 17 such additions, past 2^65 unless the division reduces
        # every 2^11 steps.
        p = max(IMAGE_PRIMES)
        b = [p - 1] * divisor_terms
        n = steps + divisor_terms - 1
        f = [(p - 1) * min(k + 1, steps, divisor_terms, n - k) % p for k in range(n)]
        got = ratpoly._gcd_image(tuple(f), tuple(b), p)
        assert got == [1] * divisor_terms
        if divisor_terms < 2**11:
            assert got == gcd_mod_p_oracle(f, b, p)


def test_gcd_refuses_to_answer_when_images_never_lift(monkeypatch):
    # Images that are wrong at every prime never pass the trial division;
    # after the Landau-Mignotte budget the gcd raises instead of guessing.
    f = parse_poly("t^2+1") * parse_poly("t+3")
    g = parse_poly("t^2+1") * parse_poly("t-5")
    primes_seen = []

    def wrong_image(a, b, p):
        primes_seen.append(p)
        return [7, 1]

    monkeypatch.setattr(ratpoly, "_gcd_image", wrong_image)
    with pytest.raises(RuntimeError):
        gcd_primitive(f, g)
    assert len(primes_seen) == ratpoly._prime_budget(f, g, 1)
