import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meridian.curves import (
    MultiPoly,
    curve_presets,
    degtyarev_discriminant,
    plucker_dual_degree,
    quintic_fiber_polynomial,
    verify_parametrization,
    verify_pencil_identity,
)
from meridian.exactalg import UniPoly


def coefficient_types(p: MultiPoly) -> set:
    return {type(c) for c in p.terms.values()}


VARIABLES = ("x", "y", "z", "w")
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polynomial_pairs(draw):
    """Two MultiPolys in 2-4 variables, with only int coefficients or with
    ints and Fractions mixed, and a rational point."""
    variables = VARIABLES[:draw(st.integers(2, 4))]
    integral = draw(st.booleans())
    coefficient = st.integers(-5, 5) if integral else \
        st.one_of(st.integers(-5, 5), rationals)
    exponents = st.tuples(*(st.integers(0, 2) for _ in variables))

    def poly():
        return MultiPoly(variables, draw(
            st.dictionaries(exponents, coefficient, max_size=5)))

    point = {v: draw(rationals) for v in variables}
    return poly(), poly(), point, integral


def horner(p: UniPoly, x):
    """p(x) by Horner's rule."""
    y = 0
    for c in reversed(p.coeffs):
        y = y * x + c
    return y


# canonical string forms, frozen to pin the transcription of the presets
TANGENT = "x*a^3 - y*a^3 - 3*x*a^2 + 3*x*a - x + z"
CONIC = "x*y*a^2 - x*y*a - x*z*a + y*z*a + x*z"
QUARTIC = ("x^2*y^2 - 2*x^2*y*z + x^2*z^2 - 2*x*y^2*z - 2*x*y*z^2"
           " + y^2*z^2")


class TestPresets:
    def test_tangent_line_text(self):
        assert str(curve_presets()["tangent_line"]) == TANGENT

    def test_conic_text(self):
        assert str(curve_presets()["conic"]) == CONIC

    def test_quartic_text(self):
        assert str(curve_presets()["quartic"]) == QUARTIC

    def test_cubic_spot_values(self):
        cubic = curve_presets()["cubic"]
        # at a = 1 the cubic degenerates to 2xyz - xy^2 - xz^2 + yz^2 + y^2z
        at_one = cubic.evaluate({"x": 1, "y": 2, "z": 3, "a": 1})
        assert at_one == 2 * 6 - 4 - 9 + 18 + 12
        assert max(sum(e) for e in cubic.terms) == 6  # including the parameter a

    def test_quintic_term_count_and_degree(self):
        quintic = curve_presets()["quintic"]
        assert max(sum(e) for e in quintic.terms) == 5
        # (18, 0, 1) lies on the curve: the x - 18z factor kills the
        # constant-in-y part and y divides the rest
        assert quintic.evaluate({"x": 18, "y": 0, "z": 1}) == 0


class TestMultiPolyRing:
    def test_ring_axioms_sampled(self):
        rng = random.Random(50)
        vars3 = ("x", "y", "z")

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exps = tuple(rng.randint(0, 2) for _ in vars3)
                terms[exps] = Fraction(rng.randint(-4, 4))
            return MultiPoly(vars3, terms)

        for _ in range(60):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + b == b + a

    @settings(max_examples=200)
    @given(polynomial_pairs())
    def test_arithmetic_agrees_with_evaluation(self, pair):
        a, b, point, integral = pair
        va, vb = a.evaluate(point), b.evaluate(point)
        results = [(a + b, va + vb), (a - b, va - vb), (a * b, va * vb)]
        results += [(a ** n, va ** n) for n in range(4)]
        for p, value in results:
            assert p.evaluate(point) == value
            assert coefficient_types(p) <= ({int} if integral
                                            else {int, Fraction})

    def test_fraction_coefficient_stays_exact(self):
        xy = ("x", "y")
        third = MultiPoly(xy, {(1, 0): Fraction(1, 3), (0, 1): 2})
        assert third.terms == {(1, 0): Fraction(1, 3), (0, 1): 2}
        assert coefficient_types(third) == {Fraction, int}
        square = third ** 2
        assert square.terms == {(2, 0): Fraction(1, 9),
                                (1, 1): Fraction(4, 3), (0, 2): 4}
        assert (third * 3).terms == {(1, 0): 1, (0, 1): 6}
        assert (third - third).is_zero()

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            MultiPoly.var("x", ("x", "y")) ** -1

    def test_expansion_matches_evaluation(self):
        rng = random.Random(51)
        p = curve_presets()
        identity = (p["quartic"] * p["tangent_line"] ** 2
                    - (p["cubic"] ** 2 - 4 * p["conic"] ** 3))
        for _ in range(25):
            point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for v in ("x", "y", "z", "a")}
            assert identity.evaluate(point) == 0

    def test_substitute_requires_all_used_variables(self):
        p = MultiPoly.var("x", ("x", "y"))
        with pytest.raises(ValueError):
            p.substitute({"y": MultiPoly.var("t", ("t",))})


class TestPencilIdentity:
    def test_holds_identically(self):
        ok, residual = verify_pencil_identity(curve_presets())
        assert ok and residual.is_zero()

    def test_perturbation_detected(self):
        p = curve_presets()
        x = MultiPoly.var("x", ("x", "y", "z", "a"))
        bad = (p["quartic"] * p["tangent_line"] ** 2
               - ((p["cubic"] + x ** 3) ** 2 - 4 * p["conic"] ** 3))
        assert not bad.is_zero()

    def test_specialized_at_a_two(self):
        p = curve_presets()
        identity = (p["quartic"] * p["tangent_line"] ** 2
                    - (p["cubic"] ** 2 - 4 * p["conic"] ** 3))
        for point in ((1, 2, 3), (0, 1, 1), (5, -7, 2)):
            vals = dict(zip(("x", "y", "z"), point))
            vals["a"] = 2
            assert identity.evaluate(vals) == 0


class TestParametrization:
    def test_lies_on_quartic(self):
        assert verify_parametrization(curve_presets())

    def test_perturbed_quartic_fails(self):
        p = curve_presets()
        x4 = MultiPoly.var("x", ("x", "y", "z", "a")) ** 4
        perturbed = p["quartic"] + x4
        assignment = dict(p["parametrization"])
        assignment["a"] = MultiPoly.const(0, ("t", "s"))
        assert not perturbed.substitute(assignment).is_zero()

    def test_pointwise_samples(self):
        p = curve_presets()
        quartic = p["quartic"]
        for t, s in ((1, 1), (2, 1), (1, 0)):
            point = {name: poly.evaluate({"t": t, "s": s})
                     for name, poly in p["parametrization"].items()}
            point["a"] = 0
            assert quartic.evaluate(point) == 0


class TestDiscriminant:
    def test_shape(self):
        report = degtyarev_discriminant(curve_presets())
        assert report.proportional
        assert report.constant not in (None, 0)
        assert report.discriminant.degree == 11

    def test_explicit_factorization(self):
        report = degtyarev_discriminant(curve_presets())
        expected = (UniPoly([0, 1]) * UniPoly([-1, -11, 1]) ** 5
                    * report.constant)
        assert report.discriminant == expected

    def test_computed_in_z(self):
        presets = curve_presets()
        for name, poly in presets.items():
            polys = poly.values() if name == "parametrization" else [poly]
            for p in polys:
                assert coefficient_types(p) == {int}, name
        fiber = quintic_fiber_polynomial(presets)
        for c in fiber.coeffs:
            assert c.coeffs and all(type(k) is int for k in c.coeffs)
        report = degtyarev_discriminant(presets)
        assert all(type(k) is int for k in report.discriminant.coeffs)
        assert report.constant == -256 and type(report.constant) is int

    def test_fiber_polynomial_is_cubic(self):
        f = quintic_fiber_polynomial(curve_presets())
        assert f.degree_y == 3
        assert f.coeffs[3] == UniPoly([1])

    def test_quadratic_roots_bracketed(self):
        # the two singular fiber abscissas are the roots of x^2 - 11x - 1
        f = UniPoly([-1, -11, 1])
        assert horner(f, 11) < 0 < horner(f, 12)
        assert horner(f, -1) > 0 > horner(f, 0)


class TestPlucker:
    def test_degtyarev_quintic_is_autodual_in_degree(self):
        assert plucker_dual_degree(5, [(4, 2)] * 3) == 5

    def test_tricuspidal_quartic_dual_degree(self):
        assert plucker_dual_degree(4, [(2, 2)] * 3) == 3

    def test_smooth_conic(self):
        assert plucker_dual_degree(2, []) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            plucker_dual_degree(2, [(5, 5)])

    def test_bad_singularity_data(self):
        with pytest.raises(ValueError):
            plucker_dual_degree(3, [(0, 1)])
