"""Property tests of RationalPoly arithmetic and of fit_and_verify."""

from hypothesis import given, settings, strategies as st

from casson3.polynomial import RationalPoly, fit_and_verify

# derandomized: the same examples on every run, nothing stored between runs
deterministic = settings(derandomize=True, database=None, max_examples=30, deadline=None)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero = rationals.filter(bool)
polys = st.builds(RationalPoly, st.lists(rationals, max_size=6).map(tuple),
                  st.integers(-4, 4))


@deterministic
@given(polys, polys, nonzero, st.integers(-4, 4))
def test_evaluation_is_a_ring_map(a, b, x, k):
    assert (a + b)(x) == a(x) + b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert a.shift(k)(x) == a(x) * x ** k


@deterministic
@given(polys, st.integers(0, 3), st.integers(0, 3))
def test_zero_padding_is_invisible(a, before, after):
    padded = RationalPoly((0,) * before + a.coeffs + (0,) * after, a.low - before)
    assert padded == a and hash(padded) == hash(a)
    assert a - a == RationalPoly.zero()


@deterministic
@given(st.data(), st.integers(0, 4))
def test_fit_recovers_polynomial(data, d):
    coeffs = data.draw(st.lists(rationals, min_size=d, max_size=d)) + [data.draw(nonzero)]
    p = RationalPoly(tuple(coeffs))
    xs = data.draw(st.lists(st.integers(-20, 20), min_size=d + 3, max_size=d + 3, unique=True))
    assert fit_and_verify({x: p(x) for x in xs}, d, extra_check_points=2) == p
