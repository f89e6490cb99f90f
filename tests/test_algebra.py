"""CCR algebra: deformed product, star, commutators, functorial lifts."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from lcqft import algebra as alg
from lcqft import dynamics as dyn
from lcqft import exact_algebra as exact
from lcqft import gauge as gg
from lcqft.errors import NotReal, NotSymplectic, SpaceMismatch
from lcqft.spacetime import LatticeSpacetime, MassSpectrum
from lcqft.suites import RunConfig, ccr_suite

import oracles
from oracles import random_data, sigma


class TestProduct:
    def test_field_product_unit_part(self, massive_spacetime, rng):
        # Phi(a) Phi(b) = a . b + (i sigma(a,b)/2) 1
        a, b = random_data(rng, massive_spacetime, 2)
        fa, fb = alg.fields(massive_spacetime, [a, b]).elements()
        prod = fa * fb
        expected_unit = 0.5j * sigma(a, b)
        assert abs(prod.coefficient(()) - expected_unit) < 1e-12 * max(
            1.0, abs(expected_unit))
        # the degree-2 part is symmetric: coefficients agree with b*a's
        prod_ba = fb * fa
        assert alg.max_coeff_diff(prod.select(prod.term_degrees() == 2),
                                  prod_ba.select(prod_ba.term_degrees() == 2)
                                  ) < 1e-13

    def test_unit_law(self, massive_spacetime, rng):
        for _ in range(10):
            x = alg.random_element(rng, massive_spacetime, 4, 6)
            assert alg.max_coeff_diff(alg.one(massive_spacetime) * x, x) == 0.0
            assert alg.max_coeff_diff(x * alg.one(massive_spacetime), x) == 0.0

    def test_associativity_against_exact_oracle(self, massive_spacetime, rng):
        half = massive_spacetime.data_dim // 2
        worst = 0.0
        for _ in range(50):
            triple = [alg.random_element(rng, massive_spacetime, 3, 4,
                                         integer=True) for _ in range(3)]
            f_left = (triple[0] * triple[1]) * triple[2]
            f_right = triple[0] * (triple[1] * triple[2])
            ex = [exact.exact_from_complex_terms(t.terms) for t in triple]
            e_left = exact.exact_product(
                exact.exact_product(ex[0], ex[1], half), ex[2], half)
            e_right = exact.exact_product(
                ex[0], exact.exact_product(ex[1], ex[2], half), half)
            assert e_left == e_right  # oracle associativity is exact
            worst = max(worst,
                        exact.max_diff_vs_float(e_left, f_left.terms),
                        exact.max_diff_vs_float(e_right, f_right.terms))
        assert worst < 1e-10

    def test_integer_products_are_exact(self, massive_spacetime, rng):
        # Gaussian-integer coefficients: every contraction weight is a
        # dyadic rational, so the product equals the exact oracle's
        half = massive_spacetime.data_dim // 2
        st_ = massive_spacetime
        for _ in range(20):
            a, b = (alg.random_element(rng, st_, 4, 6, integer=True)
                    for _ in range(2))
            # repeated partners force contraction levels 2 and up
            a = a * alg.monomial(st_, (0, 1, 2))
            b = b * alg.monomial(st_, (half, half + 1, half + 2))
            exact_ab = exact.exact_product(
                exact.exact_from_complex_terms(a.terms),
                exact.exact_from_complex_terms(b.terms), half)
            assert exact.max_diff_vs_float(exact_ab, (a * b).terms) == 0.0

    def test_power_formula_matches_closed_form(self, massive_spacetime, rng):
        # u^m . v^n with sigma(u, v) = 1: coefficients of the closed sum
        st_ = massive_spacetime
        half = st_.data_dim // 2
        u = alg.monomial(st_, (0, 0))         # u = e_0, m = 2
        v = alg.monomial(st_, (half, half, half))  # v = partner, n = 3
        prod = u * v
        import math
        for r in (0, 1, 2):
            idx = tuple(sorted([0] * (2 - r) + [half] * (3 - r)))
            expect = (0.5j) ** r * (math.comb(2, r) * math.comb(3, r)
                                    * math.factorial(r))
            assert abs(prod.coefficient(idx) - expect) < 1e-14

    def test_space_mismatch(self, massive_spacetime, mixed_spacetime):
        with pytest.raises(SpaceMismatch):
            alg.one(massive_spacetime) * alg.one(mixed_spacetime)

    def test_sparse_product_no_blowup(self, massive_spacetime, rng):
        # sigma-disjoint supports: term count is exactly multiplicative
        st_ = massive_spacetime
        a = alg.AlgebraElement(st_, {(0, 1): 1.0, (2, 3): 2.0, (4,): 1.0})
        b = alg.AlgebraElement(st_, {(5, 6): 1.0, (7,): 1.0})
        prod = a * b
        assert len(prod.terms) == len(a.terms) * len(b.terms)
        # paired supports stay within the contraction bound
        import math
        d, e = 3, 3
        bound = sum(math.comb(d, r) * math.comb(e, r) * math.factorial(r)
                    for r in range(4))
        half = st_.data_dim // 2
        c1 = alg.monomial(st_, (0, 1, 2))
        c2 = alg.monomial(st_, (half, half + 1, half + 2))
        assert len((c1 * c2).terms) <= bound


class TestExactOracle:
    # the dyadic oracle on its own: hand values, non-integer dyadic data,
    # canonical equality and its use as a detector of float errors
    def test_partner_pair_hand_values(self, massive_spacetime):
        half = massive_spacetime.data_dim // 2
        q, p = (exact.exact_from_complex_terms({(i,): 1.0}) for i in (0, half))
        # e_q e_p = e_(q,p) + i/2 and e_p e_q = e_(q,p) - i/2
        assert exact.exact_product(q, p, half) \
            == exact.ExactElement({(0, half): (2, 0), (): (0, 1)}, 1)
        assert exact.exact_product(p, q, half) \
            == exact.ExactElement({(0, half): (2, 0), (): (0, -1)}, 1)

    def test_non_integer_dyadic_products_equal_float_kernel(
            self, massive_spacetime):
        st_ = massive_spacetime
        half = st_.data_dim // 2
        # each product coefficient spans fewer than 53 bits, so the float
        # kernel rounds nothing
        tiny = 2.0 ** -30
        a = alg.AlgebraElement(st_, {(0, 1): 0.375, (half,): tiny * 1j,
                                     (): 0.375 - tiny * 1j})
        b = alg.AlgebraElement(st_, {(half, half + 1): 1.5 - 0.375j,
                                     (0, half): 0.375j, (1,): 0.125})
        ea, eb = (exact.exact_from_complex_terms(x.terms) for x in (a, b))
        assert ea.exp == 30 and eb.exp == 3
        for x, y, ex, ey in ((a, b, ea, eb), (b, a, eb, ea)):
            exact_xy = exact.exact_product(ex, ey, half)
            assert exact_xy.exp > 30
            assert exact.max_diff_vs_float(exact_xy, (x * y).terms) == 0.0

    def test_equal_values_at_different_exponents_compare_equal(
            self, massive_spacetime):
        half = massive_spacetime.data_dim // 2
        two_q = exact.exact_from_complex_terms({(0,): 2.0})
        p = exact.exact_from_complex_terms({(half,): 1.0})
        # 2 e_q e_p = 2 e_(q,p) + i: summed at exponent 1, kept at 0
        prod = exact.exact_product(two_q, p, half)
        direct = exact.exact_from_complex_terms({(0, half): 2.0, (): 1j})
        assert prod == direct and prod.exp == 0
        half_q = exact.exact_from_complex_terms({(0,): 0.5})
        four = exact.exact_from_complex_terms({(): 4.0})
        assert exact.exact_product(half_q, four, half) \
            == exact.exact_from_complex_terms({(0,): 2.0})

    def test_matches_dict_reference_on_gaussian_integers(
            self, massive_spacetime, rng):
        half = massive_spacetime.data_dim // 2
        for _ in range(20):
            a, b = (alg.random_element(rng, massive_spacetime, 4, 6,
                                       integer=True) for _ in range(2))
            a = a * alg.monomial(massive_spacetime, (0, 1))
            b = b * alg.monomial(massive_spacetime, (half, half + 1))
            ta, tb = dict(a.terms), dict(b.terms)
            exact_ab = exact.exact_product(exact.exact_from_complex_terms(ta),
                                           exact.exact_from_complex_terms(tb),
                                           half)
            assert exact.max_diff_vs_float(
                exact_ab, oracles.dict_product(ta, tb, half)) == 0.0

    def test_detects_one_moved_coefficient(self, massive_spacetime, rng):
        half = massive_spacetime.data_dim // 2
        a, b = (alg.random_element(rng, massive_spacetime, 3, 4, integer=True)
                for _ in range(2))
        exact_ab = exact.exact_product(exact.exact_from_complex_terms(a.terms),
                                       exact.exact_from_complex_terms(b.terms),
                                       half)
        product = dict((a * b).terms)
        assert exact.max_diff_vs_float(exact_ab, product) == 0.0
        key = max(product, key=len)
        product[key] += 2.0 ** -40
        assert exact.max_diff_vs_float(exact_ab, product) > 0.0


class TestStar:
    def test_unit(self, massive_spacetime):
        assert alg.max_coeff_diff(alg.one(massive_spacetime).star(),
                                  alg.one(massive_spacetime)) == 0.0

    def test_field_conjugation(self, massive_spacetime, rng):
        phi = random_data(rng, massive_spacetime)
        assert alg.max_coeff_diff(alg.fields(massive_spacetime, phi).star(),
                                  alg.fields(massive_spacetime, phi.conj())) \
            == 0.0

    def test_involution(self, massive_spacetime, rng):
        x = alg.random_element(rng, massive_spacetime, 4, 8)
        assert alg.max_coeff_diff(x.star().star(), x) == 0.0

    def test_antimultiplicative(self, massive_spacetime, rng):
        for _ in range(10):
            a = alg.random_element(rng, massive_spacetime, 3, 5)
            b = alg.random_element(rng, massive_spacetime, 3, 5)
            assert alg.max_coeff_diff((a * b).star(),
                                      b.star() * a.star()) < 1e-12


class TestCommutator:
    def test_ccr_on_random_pairs(self, mixed_spacetime, rng):
        for _ in range(100):
            a, b = random_data(rng, mixed_spacetime, 2)
            lhs = alg.commutator(*alg.fields(mixed_spacetime, [a, b]).elements())
            rhs = (1j * sigma(a, b)) * alg.one(mixed_spacetime)
            assert alg.max_coeff_diff(lhs, rhs) < 1e-12 * max(
                1.0, np.linalg.norm(a) * np.linalg.norm(b))

    def test_ccr_on_all_basis_pairs_exact(self, massive_spacetime):
        # exhaustive: every canonical pair gives exactly i, everything else 0
        st_ = massive_spacetime
        half = st_.data_dim // 2
        for i in range(st_.data_dim):
            for j in range(st_.data_dim):
                comm = alg.commutator(alg.monomial(st_, (i,)),
                                      alg.monomial(st_, (j,)))
                if j == i + half:
                    assert comm.terms == {(): 1j}
                elif i == j + half:
                    assert comm.terms == {(): -1j}
                else:
                    assert comm.terms == {}

    def test_self_commutator_zero(self, massive_spacetime, rng):
        x = alg.random_element(rng, massive_spacetime, 3, 6)
        assert alg.commutator(x, x).max_abs() == 0.0

    def test_derivation_property(self, massive_spacetime, rng):
        # [Phi(u), v . w] = i sigma(u,v) w + i sigma(u,w) v, cross-checked
        # against the brute-force product expansion
        st_ = massive_spacetime
        u, v, w = random_data(rng, st_, 3)
        fu, fv, fw = alg.fields(st_, [u, v, w]).elements()
        vw = fv * fw - (0.5j * sigma(v, w)) * alg.one(st_)  # v . w
        lhs = alg.commutator(fu, vw)
        rhs = (1j * sigma(u, v)) * fw + (1j * sigma(u, w)) * fv
        assert alg.max_coeff_diff(lhs, rhs) < 1e-11


class TestDegreeAndField:
    def test_degree_conventions(self, massive_spacetime):
        assert alg.zero(massive_spacetime).degree == -1
        assert alg.one(massive_spacetime).degree == 0
        assert alg.monomial(massive_spacetime, (1, 2, 2)).degree == 3

    def test_field_zero_and_linearity(self, massive_spacetime, rng):
        st_ = massive_spacetime
        assert alg.fields(st_, np.zeros(st_.data_dim)).degree == -1
        phi, psi = random_data(rng, st_, 2)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert alg.max_coeff_diff(
            alg.fields(st_, phi + lam * psi),
            alg.fields(st_, phi) + lam * alg.fields(st_, psi)) < 1e-13

    def test_spacetime_smearing_composition(self, mixed_spacetime):
        # Phi(f) := Phi(E f) is literally field of the propagated data
        f = dyn.delta_test_function(mixed_spacetime, 1, 6, 3)
        smeared = alg.fields(mixed_spacetime, np.concatenate(
            dyn.propagate_sources(mixed_spacetime, f.values)).ravel())
        assert smeared.degree == 1

    def test_pruning_threshold(self, massive_spacetime):
        el = alg.AlgebraElement(massive_spacetime, {(0,): 1e-16})
        assert el.degree == -1


class TestLift:
    def test_identity(self, massive_spacetime, rng):
        lifted = alg.lift(massive_spacetime, np.eye(massive_spacetime.data_dim))
        x = alg.random_element(rng, massive_spacetime, 3, 6)
        assert alg.max_coeff_diff(lifted(x), x) < 1e-14

    def test_rce_lift_on_fields(self, mixed_spacetime, rng):
        v = np.zeros((mixed_spacetime.n_slices, mixed_spacetime.n_sites))
        v[5:8, 1:4] = rng.standard_normal((3, 3))
        pert = dyn.Perturbation(mixed_spacetime, v)
        lifted = alg.lift(mixed_spacetime, dyn.rce_matrix(pert))
        phi = random_data(rng, mixed_spacetime)
        lhs = lifted(alg.fields(mixed_spacetime, phi))
        rhs = alg.fields(mixed_spacetime, oracles.on_vectors(
            mixed_spacetime, lambda q, p: dyn.rce_data(q, p, pert), phi))
        assert alg.max_coeff_diff(lhs, rhs) < 1e-11

    def test_homomorphism_property(self, rng):
        # degree <= 3 pairs on the smallest solution space, where the lift of
        # a degree-6 product (a dense symmetric tensor) stays tractable
        st_ = LatticeSpacetime(4, 12, 0.5, MassSpectrum.parse("1:1"))
        v = np.zeros((st_.n_slices, st_.n_sites))
        v[4:7, 1:3] = rng.standard_normal((3, 2))
        lifted = alg.lift(st_, dyn.rce_matrix(dyn.Perturbation(st_, v)))
        worst = 0.0
        for _ in range(50):
            a = alg.random_element(rng, st_, 3, 3)
            b = alg.random_element(rng, st_, 3, 3)
            worst = max(worst, alg.max_coeff_diff(lifted(a * b),
                                                  lifted(a) * lifted(b)))
        assert worst < 1e-10

    def test_homomorphism_property_full_size(self, massive_spacetime, rng):
        # on the standard space: bilinear products of fields carry the full
        # sigma-correction content of the deformed product
        v = np.zeros((massive_spacetime.n_slices, massive_spacetime.n_sites))
        v[5:8, 1:4] = rng.standard_normal((3, 3))
        lifted = alg.lift(massive_spacetime,
                          dyn.rce_matrix(dyn.Perturbation(massive_spacetime, v)))
        for _ in range(5):
            a, b = alg.fields(massive_spacetime,
                              random_data(rng, massive_spacetime, 2)).elements()
            assert alg.max_coeff_diff(lifted(a * b),
                                      lifted(a) * lifted(b)) < 1e-10

    def test_functoriality(self, massive_spacetime, rng):
        st_ = massive_spacetime
        U = dyn.one_step_matrix(st_)
        lift_u = alg.lift(st_, U)
        lift_uu = alg.lift(st_, U @ U)
        x = alg.random_element(rng, st_, 2, 4)
        assert alg.max_coeff_diff(lift_u(lift_u(x)), lift_uu(x)) < 1e-11

    def test_star_commutes(self, massive_spacetime, rng):
        U = dyn.one_step_matrix(massive_spacetime)
        lifted = alg.lift(massive_spacetime, U)
        x = alg.random_element(rng, massive_spacetime, 2, 5)
        assert alg.max_coeff_diff(lifted(x.star()), lifted(x).star()) < 1e-12

    def test_rejects_non_symplectic(self, massive_spacetime):
        with pytest.raises(NotSymplectic):
            alg.lift(massive_spacetime,
                     2.0 * np.eye(massive_spacetime.data_dim))

    def test_rejects_complex(self, massive_spacetime):
        M = np.eye(massive_spacetime.data_dim, dtype=complex)
        M[0, 0] = 1j
        with pytest.raises((NotReal, NotSymplectic)):
            alg.lift(massive_spacetime, M)


class TestDerivation:
    def test_rotation_generator_is_tangent_of_gauge_action(
            self, massive_spacetime, rng):
        # the derivation by the so(2) generator of "1:2" against the central
        # difference of zeta on explicit rotation blocks exp(+-t A)
        st_ = massive_spacetime
        gen, = oracles.species_on_data(
            st_, gg.rotation_generators(st_.spectrum))
        a = alg.random_element(rng, st_, 3, 8)
        deriv = alg.derivation(a, alg.slot_map(gen))

        def rotated(t):
            R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            g = gg.GaugeElement(st_.spectrum, (R,), np.zeros(0))
            return gg.QuantumAction(g, st_)(a)

        t = 1e-4
        central = (1.0 / (2 * t)) * (rotated(t) - rotated(-t))
        scale = deriv.max_abs()
        assert scale > 0.1
        assert alg.max_coeff_diff(deriv, central) < 1e-7 * scale

    @pytest.mark.parametrize("spec, shift", [("1:2", False), ("0:1,1:2", True)])
    def test_leibniz_rule(self, spec, shift, rng):
        # a symplectic generator (plus, with nu(0) > 0, the shift functional)
        # acts as a derivation of the CCR product
        st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse(spec))
        # the one rotation generator of the mass-1 pair
        gen, = oracles.species_on_data(
            st_, gg.rotation_generators(st_.spectrum))
        consts = gg.ell_basis_values(np.array([1.5]), st_) if shift else None
        slots = alg.slot_map(gen, consts)
        worst = 0.0
        for _ in range(10):
            a = alg.random_element(rng, st_, 2, 4)
            b = alg.random_element(rng, st_, 2, 4)
            lhs = alg.derivation(a * b, slots)
            rhs = alg.derivation(a, slots) * b + a * alg.derivation(b, slots)
            worst = max(worst, alg.max_coeff_diff(lhs, rhs))
        assert worst < 1e-12

    def test_constants_contract_one_slot(self, mixed_spacetime):
        # e_i e_i e_j -> 2 c_i e_i e_j + c_j e_i e_i
        st_ = mixed_spacetime
        consts = np.zeros(st_.data_dim)
        consts[0], consts[3] = 2.0, -1.0
        a = alg.monomial(st_, (0, 0, 3), 1.0)
        deriv = alg.derivation(
            a, alg.slot_map(np.zeros((st_.data_dim, st_.data_dim)), consts))
        assert deriv.terms == {(0, 3): 4.0 + 0j, (0, 0): -1.0 + 0j}


class TestCentreAtLowDegree:
    def test_nondegenerate_space_has_trivial_centre(self, massive_spacetime,
                                                    rng):
        # an element commuting with all Phi(e_i) has no degree-1 part when
        # sigma is nondegenerate on the represented subspace
        st_ = massive_spacetime
        x = alg.random_element(rng, st_, 1, 3)
        if np.abs(alg.degree1_vector(x)).max() < 0.1:
            x = x + alg.monomial(st_, (0,), 1.0)
        failures = 0
        for i in range(st_.data_dim):
            if alg.commutator(x, alg.monomial(st_, (i,))).max_abs() > 1e-10:
                failures += 1
        assert failures > 0

    def test_radical_element_is_central(self, mixed_spacetime):
        # the constant massless solution spans the radical of sigma on the
        # charge-zero subspace; its field commutes with all charge-zero fields
        st_ = mixed_spacetime
        N, half = st_.n_sites, st_.data_dim // 2
        chi = np.zeros(st_.data_dim)
        chi[:N] = 1.0                # q = 1 in the massless species 0
        f_chi = alg.fields(st_, chi)
        sq = f_chi * f_chi
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_data(rng, st_)
            # project to charge zero: remove mean momentum in massless species
            v[half:half + N] -= np.mean(v[half:half + N])
            assert alg.commutator(f_chi, alg.fields(st_, v)).max_abs() < 1e-13
            assert alg.commutator(sq, alg.fields(st_, v)).max_abs() < 1e-12


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_product_degree_additivity(i, j, k):
    spacetime = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
    a = alg.monomial(spacetime, (i, j))
    b = alg.monomial(spacetime, (k,))
    prod = a * b
    assert prod.degree <= 3
    assert prod.coefficient(tuple(sorted((i, j, k)))) != 0


@given(st.lists(st.integers(0, 31), min_size=0, max_size=3),
       st.lists(st.integers(0, 31), min_size=0, max_size=3))
def test_commutator_antisymmetry(idx_a, idx_b):
    spacetime = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
    a = alg.monomial(spacetime, tuple(idx_a))
    b = alg.monomial(spacetime, tuple(idx_b))
    assert alg.max_coeff_diff(alg.commutator(a, b),
                              (-1.0) * alg.commutator(b, a)) < 1e-12


class TestCanonicalKeys:
    def test_constructor_sorts_and_merges(self, massive_spacetime):
        st_ = massive_spacetime
        el = alg.AlgebraElement(st_, {(3, 1): 1.0})
        assert el.coefficient((1, 3)) == 1.0
        assert el.terms == {(1, 3): 1.0}
        assert alg.max_coeff_diff(el, alg.monomial(st_, (1, 3))) == 0.0
        merged = alg.AlgebraElement(st_, {(3, 1): 1.0, (1, 3): 2.0})
        assert merged.terms == {(1, 3): 3.0}

    def test_constructor_merges_permuted_degree3(self, massive_spacetime):
        st_ = massive_spacetime
        el = alg.AlgebraElement(st_, {(5, 2, 2): 1.0, (2, 5, 2): 0.5 - 1.0j})
        assert el.terms == {(2, 2, 5): 1.5 - 1.0j}
        assert alg.max_coeff_diff(
            el, alg.monomial(st_, (2, 2, 5), 1.5 - 1.0j)) == 0.0

    def test_index_outside_the_basis(self, massive_spacetime):
        with pytest.raises(SpaceMismatch):
            alg.AlgebraElement(massive_spacetime,
                               {(0, massive_spacetime.data_dim): 1.0})
        with pytest.raises(SpaceMismatch):
            alg.monomial(massive_spacetime, (-1,))

    def test_compare_over_different_spacetimes(self, massive_spacetime):
        other = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:3"))
        with pytest.raises(SpaceMismatch):
            alg.max_coeff_diff(alg.one(massive_spacetime), alg.one(other))


# -- the array kernel against the dict reference in tests/oracles.py -----------

SMALL = LatticeSpacetime(4, 12, 0.5, MassSpectrum.parse("1:1"))  # dim 8

_indices = st.lists(st.integers(0, SMALL.data_dim - 1), max_size=4).map(
    lambda idx: tuple(sorted(idx)))
_coeffs = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)) \
    .filter(lambda c: c != 0) | st.complex_numbers(
        min_magnitude=0.1, max_magnitude=4.0, allow_nan=False,
        allow_infinity=False)
# elements of degree 0-4, the zero element and the unit among them
_terms = st.dictionaries(_indices, _coeffs, max_size=6) | st.just({}) \
    | st.just({(): 1.0})


def _close(element, reference: dict, tol: float = 1e-12):
    scale = max([1.0] + [abs(c) for c in reference.values()])
    assert oracles.dict_max_coeff_diff(dict(element.terms), reference) \
        <= tol * scale


def _random_map(seed: int, dim: int, density: float = 0.3) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal((dim, dim)) * (gen.random((dim, dim)) < density)


@given(_terms, _terms)
def test_product_matches_dict_reference(ta, tb):
    a, b = alg.AlgebraElement(SMALL, ta), alg.AlgebraElement(SMALL, tb)
    _close(a * b, oracles.dict_product(ta, tb, SMALL.data_dim // 2))


@given(_terms, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_substitution_matches_dict_reference(ta, seed, with_consts):
    dim = SMALL.data_dim
    M = _random_map(seed, dim)
    consts = np.random.default_rng(seed + 1).standard_normal(dim) \
        * (np.arange(dim) % 3 == 0) if with_consts else None
    a = alg.AlgebraElement(SMALL, ta)
    _close(alg.substitute_affine(a, alg.slot_map(M, consts)),
           oracles.dict_substitute(ta, M, consts), 1e-11)


@given(_terms, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_derivation_matches_dict_reference(ta, seed, with_consts):
    dim = SMALL.data_dim
    M = _random_map(seed, dim)
    consts = np.random.default_rng(seed + 1).standard_normal(dim) \
        if with_consts else None
    a = alg.AlgebraElement(SMALL, ta)
    _close(alg.derivation(a, alg.slot_map(M, consts)),
           oracles.dict_derivation(ta, M, consts))


@given(_terms, _terms)
def test_star_and_compare_match_dict_reference(ta, tb):
    a, b = alg.AlgebraElement(SMALL, ta), alg.AlgebraElement(SMALL, tb)
    assert a.star().terms == {k: complex(c).conjugate() for k, c in ta.items()}
    # np.abs and abs() may round |z| differently in the last bit
    assert alg.max_coeff_diff(a, b) == pytest.approx(
        oracles.dict_max_coeff_diff({k: complex(c) for k, c in ta.items()},
                                    {k: complex(c) for k, c in tb.items()}),
        rel=4 * np.finfo(float).eps, abs=0.0)


def test_signed_permutation_only_relabels(massive_spacetime, rng):
    # width-1 slot maps: a relabelling of the digits and a sign per slot
    st_ = massive_spacetime
    dim = st_.data_dim
    perm = rng.permutation(dim)
    M = np.zeros((dim, dim))
    M[perm, np.arange(dim)] = rng.choice([-1.0, 1.0], size=dim)
    slots = alg.slot_map(M)
    assert slots.width == 1
    a = alg.random_element(rng, st_, 4, 8)
    image = alg.substitute_affine(a, slots)
    assert len(image.terms) == len(a.terms)
    assert oracles.dict_max_coeff_diff(
        dict(image.terms), oracles.dict_substitute(dict(a.terms), M)) == 0.0


def test_degree_nine_product_needs_two_key_words(rng):
    # dim = 320 and degree 9: 321^9 > 2^63, so the keys that the merges
    # form take two int64 words; an element stores only its digits
    big = LatticeSpacetime(32, 16, 0.5, MassSpectrum.parse("1:5"))
    dim, half = big.data_dim, big.data_dim // 2
    assert dim == 320 and 321 ** 9 > 2 ** 63
    ta, tb = {}, {}
    for _ in range(4):
        base = [int(i) for i in rng.integers(0, half, size=3)]
        far = [int(i) for i in rng.integers(0, dim, size=3)]
        ta[tuple(sorted(base + far))] = complex(*rng.standard_normal(2))
        # partners of two of base's entries, so products contract
        tb[tuple(sorted([base[0] + half, base[1] + half,
                         int(rng.integers(dim - 3, dim))]))] = 1.5 - 0.5j
    ta[(dim - 1,) * 6] = 2.0
    a, b = alg.AlgebraElement(big, ta), alg.AlgebraElement(big, tb)
    prod = a * b
    assert prod.degree == 9 and len(alg._pack(prod.digits, dim)) == 2
    assert not hasattr(prod, "keys")
    reference = oracles.dict_product(ta, tb, half)
    assert any(len(k) < 9 for k in reference)  # some terms contracted
    _close(prod, reference)
    # the largest index at degree 9 passes the one-word range
    top = alg.monomial(big, (dim - 1,) * 9)
    assert len(alg._pack(top.digits, dim)) == 2
    assert alg.max_coeff_diff(top * alg.one(big), top) == 0.0
    assert alg.max_coeff_diff(top, alg.monomial(big, (dim - 2,) * 9)) == 1.0


# -- batches: each batched op against the same op on each element alone -------

SPECTRA = ["1:2", "0:1,1:2", "1:2,2:3"]


def _equal_bitwise(batch, singles):
    got = list(batch.elements())
    assert len(got) == len(singles) == batch.size
    for el, one in zip(got, singles):
        for name in ("tags", "coeffs", "digits"):
            a, b = getattr(el, name), getattr(one, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def _pairs(st_, rng):
    """Operand pairs of mixed degree and the edge cases: the zero element, a
    scalar-only element, fields, and a pair whose product prunes to zero."""
    dim = st_.data_dim
    phi, psi = alg.fields(st_, random_data(rng, st_, 2)).elements()
    tiny = [alg.monomial(st_, (i,), 1e-8) for i in (0, 1)]  # product 1e-16
    return [
        (alg.random_element(rng, st_, 3, 5), alg.random_element(rng, st_, 2, 4)),
        (alg.zero(st_), alg.random_element(rng, st_, 2, 3)),
        (alg.scalar(st_, 2.5 - 1j), alg.random_element(rng, st_, 3, 4)),
        (phi, psi),
        tuple(tiny),
        (alg.random_element(rng, st_, 4, 6, integer=True),
         alg.monomial(st_, (dim // 2, dim // 2 + 1), 1.5)),
        (alg.random_element(rng, st_, 1, 3), alg.zero(st_)),
    ]


@pytest.fixture(params=[False, True], ids=["one-pass", "chunked"])
def chunking(request, monkeypatch):
    # small chunks split each element into pieces and a batch into passes
    if request.param:
        monkeypatch.setattr(alg, "CHUNK_TERMS", 64)
    return request.param


@pytest.mark.parametrize("spec", SPECTRA)
class TestBatchedOps:
    @staticmethod
    def _setup(spec):
        st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse(spec))
        pairs = _pairs(st_, np.random.default_rng(7))
        return st_, [a for a, _ in pairs], [b for _, b in pairs]

    def test_product_sum_scale_and_compare(self, spec, chunking):
        st_, left, right = self._setup(spec)
        a, b = alg.stack(left), alg.stack(right)
        _equal_bitwise(a * b, [x * y for x, y in zip(left, right)])
        _equal_bitwise(b * a, [y * x for x, y in zip(left, right)])
        _equal_bitwise(a + b, [x + y for x, y in zip(left, right)])
        _equal_bitwise(a - b, [x - y for x, y in zip(left, right)])
        values = np.arange(1, len(left) + 1) * (0.5 - 0.25j)
        _equal_bitwise(a.scale(values), [v * x for v, x in zip(values, left)])
        _equal_bitwise(a.star(), [x.star() for x in left])
        assert alg.max_coeff_diff(a * b, b * a) == max(
            alg.max_coeff_diff(x * y, y * x) for x, y in zip(left, right))
        assert (left[4] * right[4]).terms == {}  # pruned to zero

    def test_batch_of_one_and_round_trip(self, spec, chunking):
        st_, left, right = self._setup(spec)
        for x, y in zip(left, right):
            _equal_bitwise(alg.stack([x]) * alg.stack([y]), [x * y])
        _equal_bitwise(alg.stack(left), left)

    def test_fields(self, spec, chunking):
        st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse(spec))
        vecs = np.concatenate([random_data(np.random.default_rng(3), st_, 4),
                               np.zeros((1, st_.data_dim))])
        _equal_bitwise(alg.fields(st_, vecs),
                       [alg.fields(st_, v) for v in vecs])
        # the `Solution` entry point of the benchmark's CCR check
        _equal_bitwise(alg.fields(st_, vecs[:1]),
                       [alg.field(dyn.solution_from_vec(st_, vecs[0]))])

    def test_substitution_one_map_per_element(self, spec, chunking):
        st_, left, _ = self._setup(spec)
        dim, rng = st_.data_dim, np.random.default_rng(11)
        perm = np.zeros((dim, dim))
        perm[rng.permutation(dim), np.arange(dim)] = rng.choice([-1.0, 1.0], dim)
        # maps of different widths, one of them width 1, and constants
        mats = [_random_map(s, dim, density) for s, density in
                zip(range(len(left)), (0.05, 0.1, 0.2, 0.05, 0.1, 0.05, 0.2))]
        mats[3] = perm
        consts = rng.standard_normal((len(left), dim)) * (rng.random(
            (len(left), dim)) < 0.2)
        stack_map = alg.slot_map(np.array(mats), consts)
        _equal_bitwise(alg.substitute_affine(alg.stack(left), stack_map),
                       [alg.substitute_affine(x, alg.slot_map(m, c))
                        for x, m, c in zip(left, mats, consts)])
        # one map for every element, and width-1 maps only
        one = alg.slot_map(mats[0], consts[0])
        _equal_bitwise(alg.substitute_affine(alg.stack(left), one),
                       [alg.substitute_affine(x, one) for x in left])
        perms = alg.slot_map(np.array([perm] * len(left)))
        _equal_bitwise(alg.substitute_affine(alg.stack(left), perms),
                       [alg.substitute_affine(x, alg.slot_map(perm))
                        for x in left])


def test_substitution_sizes_each_element_by_its_degree(monkeypatch):
    # an element's fan is its map's width to the power of its degree, the
    # largest term degree over its run of the sorted tags: 0 for an empty
    # element, also at the end of a batch; a batch of one has the count of
    # its trimmed digit rows
    st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
    elements = [alg.AlgebraElement(st_, {(1, 2, 3): 1.0, (4,): 2.0}),
                alg.zero(st_), alg.AlgebraElement(st_, {(): 0.5, (5, 6): 1j}),
                alg.one(st_), alg.zero(st_)]
    slots = alg.slot_map(_random_map(3, st_.data_dim, 0.1))
    fans, chunked = [], alg._chunked

    def spy(spacetime, size, tags, fan, expand):
        fans.append(fan)
        return chunked(spacetime, size, tags, fan, expand)

    monkeypatch.setattr(alg, "_chunked", spy)
    _equal_bitwise(alg.substitute_affine(alg.stack(elements), slots),
                   [alg.substitute_affine(x, slots) for x in elements])
    alg.substitute_affine(alg.stack([alg.zero(st_)] * 2), slots)
    width = float(slots.widths)
    assert width > 1
    want = np.minimum(width ** np.array([3, 0, 2, 0, 0]),
                      alg.CHUNK_TERMS).astype(int)
    assert np.array_equal(fans[0], want) and fans[0].dtype == want.dtype
    assert [fan.tolist() for fan in fans[1:]] == [[w] for w in want] + [[1, 1]]


def test_batches_reject_mismatched_sizes_and_maps(massive_spacetime, rng):
    a = alg.stack([alg.random_element(rng, massive_spacetime, 2, 3)
                   for _ in range(3)])
    with pytest.raises(SpaceMismatch):
        a * alg.stack([alg.one(massive_spacetime)] * 2)
    with pytest.raises(SpaceMismatch):
        alg.max_coeff_diff(a, alg.one(massive_spacetime))
    with pytest.raises(SpaceMismatch):
        alg.stack([a, a])
    dim = massive_spacetime.data_dim
    with pytest.raises(SpaceMismatch):
        alg.substitute_affine(a, alg.slot_map(np.array([np.eye(dim)] * 2)))
    # lookups, the degree and hence state evaluation read one element
    for per_element in (lambda: a.terms[()], lambda: a.coefficient(()),
                        lambda: a.degree, lambda: alg.check_degree_cap(a, 4)):
        with pytest.raises(SpaceMismatch):
            per_element()
    assert len(a.terms) == len(a.coeffs)


def test_width1_weights_multiply_before_the_coefficient(massive_spacetime, rng):
    # a diagonal map keeps every term; each coefficient is c * (w_1 * ... *
    # w_D), the slot weights multiplied first, also for non-dyadic weights
    st_ = massive_spacetime
    w = 1.0 + rng.random(st_.data_dim) / 3.0
    x = alg.random_element(rng, st_, 4, 20)
    out = alg.substitute_affine(x, alg.slot_map(np.diag(w)))
    assert np.array_equal(out.digits, x.digits)
    weights = np.concatenate([[1.0], w])[x.digits]
    assert np.array_equal(out.coeffs, x.coeffs * np.multiply.reduce(weights))


def test_stacked_lift_checks_every_matrix(massive_spacetime, rng):
    st_ = massive_spacetime
    U = dyn.one_step_matrix(st_)
    with pytest.raises(NotSymplectic):
        alg.lift(st_, np.array([U, 2.0 * U, U]))
    lifted = alg.lift(st_, np.array([U, U @ U]))
    xs = [alg.random_element(rng, st_, 2, 4) for _ in range(2)]
    _equal_bitwise(lifted(alg.stack(xs)),
                   [alg.lift(st_, M)(x) for M, x in zip((U, U @ U), xs)])


# -- key-range merges: the arrays of one merge of every term -------------------

def _one_merge(size, dim, runs, signs=None):
    """`alg._merge_runs` as one range: the runs concatenated, run i times
    signs[i], and merged at once; every key-range merge must equal it."""
    signs = signs or [1] * len(runs)
    tags, coeffs, digits = (np.concatenate(x, axis=-1) for x in zip(*(
        (t, c if s == 1 else c * s, d) for (t, c, d), s in zip(runs, signs))))
    yield alg._merge_tagged(size, tags, alg._pack(digits, dim), coeffs, digits)


def _counting(log: list, real=alg._merge_runs):
    """`alg._merge_runs` that logs how many key ranges each call merged."""
    def merge_runs(*args, **kwargs):
        ranges = list(real(*args, **kwargs))
        log.append(len(ranges))
        return iter(ranges)
    return merge_runs


def _same_bits(got, want):
    for name in ("tags", "coeffs", "digits"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _sums(a, b):
    return [a + b, a - b, b - a] + ([a - 0.5] if a.size == 1 else [])


def _sums_in_one_merge(a, b):
    # a difference formulated as the sum of (-1.0) * b
    return [a + b, a + (-1.0) * b, b + (-1.0) * a] \
        + ([a + (-0.5)] if a.size == 1 else [])


def _two_word_elements(rng):
    # dim = 320: keys of degree 9 take two int64 words
    big = LatticeSpacetime(32, 16, 0.5, MassSpectrum.parse("1:5"))
    terms = [{tuple(sorted(rng.integers(0, 320, size=int(rng.integers(5, 10))))):
              complex(*rng.standard_normal(2)) for _ in range(40)}
             for _ in range(2)]
    shared = dict(list(terms[0].items())[::2])  # keys the two share
    return [alg.AlgebraElement(big, terms[0]),
            alg.AlgebraElement(big, {**terms[1], **shared})]


@pytest.fixture
def small_ranges(monkeypatch):
    # pieces and key ranges of a few terms, so every merge below is split
    monkeypatch.setattr(alg, "CHUNK_TERMS", 16)
    return monkeypatch


class TestKeyRangeMerges:
    """Each merge by key range gives, array for array and bit for bit, what
    one merge of all the terms gives."""

    @staticmethod
    def _operands(rng):
        st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("0:1,1:2"))
        left = [alg.random_element(rng, st_, d, 30) for d in (4, 3, 1, 4)]
        # partly shared keys, so equal keys across the operands sum
        right = [alg.random_element(rng, st_, d, 25) + 0.5 * x
                 for d, x in zip((2, 4, 4, 0), left)]
        phi = alg.fields(st_, random_data(rng, st_))
        zero = alg.zero(st_)
        return [
            (alg.stack(left), alg.stack(right)),       # batches
            (left[0], phi),                              # heights 4 and 1
            (left[2], left[0]),                          # heights 1 and 4
            (left[0], zero), (zero, left[1]), (zero, zero),
            tuple(_two_word_elements(rng)),
        ]

    def test_sums_differences_and_comparisons(self, small_ranges, rng):
        cases, log = self._operands(rng), []
        small_ranges.setattr(alg, "_merge_runs", _counting(log))
        got = [(_sums(a, b), alg.max_coeff_diff(a, b),
                alg.max_coeff_diff(b, a)) for a, b in cases]
        # the sums of the non-zero operands went by several key ranges
        assert sorted(log)[-len(cases):][0] > 1 and max(log) > 3
        small_ranges.setattr(alg, "_merge_runs", _one_merge)
        for (a, b), (sums, ab, ba) in zip(cases, got):
            for el, want in zip(sums, _sums_in_one_merge(a, b)):
                _same_bits(el, want)
            assert ab == alg.max_coeff_diff(a, b)
            assert ba == alg.max_coeff_diff(b, a)
        assert alg.max_coeff_diff(*cases[-2]) == 0.0

    def test_split_products_substitutions_and_derivations(self, small_ranges,
                                                          rng):
        (a, b), (x, _), *_, (p, q) = self._operands(rng)
        st_, dim = a.spacetime, a.dim
        pres = gg.presentation(st_)
        perm = np.zeros((dim, dim))
        perm[rng.permutation(dim), np.arange(dim)] = rng.choice([-1.0, 1.0],
                                                                dim)
        ops = [lambda: a * b, lambda: x * x, lambda: p * q,
               lambda: alg.derivation(a, pres.rotations[0]),
               lambda: alg.derivation(x, pres.rotations[0]),
               lambda: alg.derivation(a, pres.shifts[0]),
               lambda: alg.substitute_affine(a, alg.slot_map(
                   _random_map(5, dim, 0.05))),
               lambda: alg.substitute_affine(a, alg.slot_map(perm))]
        for op in ops:
            log = []
            small_ranges.setattr(alg, "_merge_runs", _counting(log))
            got = op()
            assert log and max(log) > 1  # several pieces, several ranges
            small_ranges.setattr(alg, "_merge_runs", _one_merge)
            _same_bits(got, op())


def test_chunked_passes_follow_the_pass_rule(monkeypatch):
    # `_chunked` alone cuts elements into pieces and gathers the pieces into
    # passes; with an expand that returns its own input, the ranges it asks
    # for must tile the batch by the pass rule and give the batch back
    chunk = 16
    monkeypatch.setattr(alg, "CHUNK_TERMS", chunk)
    st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("0:1,1:2"))
    rng = np.random.default_rng(5)
    # (terms, fan): fan 0 with three pieces, fan above CHUNK_TERMS (one term
    # a piece), an empty element, and elements of several pieces that start
    # in the middle of a pass
    shape = [(1, 1), (12, 3), (40, 0), (0, 2), (3, 20), (25, 1), (2, 5),
             (9, 4), (1, 1), (7, 2), (30, 3)]
    elements = [alg.zero(st_) if not n else alg.AlgebraElement(
        st_, {(i, (7 * i + 3) % 48): complex(*rng.standard_normal(2))
              for i in range(n)}) for n, _ in shape]
    batch, fan = alg.stack(elements), np.array([f for _, f in shape])
    ranges = []

    def expand(lo, hi):
        ranges.append((lo, hi))
        return batch.tags[lo:hi], batch.digits[:, lo:hi], batch.coeffs[lo:hi]

    _same_bits(alg._chunked(st_, batch.size, batch.tags, fan, expand), batch)
    n = len(batch.coeffs)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == n and all(lo < hi for lo, hi in ranges)
    bounds = np.searchsorted(batch.tags, np.arange(batch.size + 1))
    step = np.maximum(1, chunk // np.maximum(1, fan))
    work = []
    for lo, hi in ranges:
        pieces = []
        for t, (first, last) in enumerate(zip(bounds[:-1], bounds[1:])):
            a, b = max(lo, first), min(hi, last)
            if a >= b:
                continue
            # cut only at multiples of its step from the element's first term
            assert (a - first) % step[t] == 0 or a == first
            assert (b - first) % step[t] == 0 or b == last
            # one piece of the element at most
            assert (a - first) // step[t] == (b - 1 - first) // step[t]
            pieces.append((b - a) * fan[t])
        assert len(pieces) == 1 or sum(pieces) <= chunk
        work.append(sum(pieces))
    # a pass ends only before a later piece of an element or a piece that
    # does not fit
    for (_, hi), before in zip(ranges[:-1], work[:-1]):
        t = int(batch.tags[hi])
        piece = min(hi + step[t], bounds[t + 1]) - hi
        assert hi > bounds[t] or before + piece * fan[t] > chunk
    assert len(ranges) < n  # pieces of several terms, passes of several


class TestCcrSuiteMutants:
    # each mutant of the batched kernel must fail the ccr suite
    def test_tag_dropping_merge(self, monkeypatch):
        real = alg._merge_tagged

        def dropping(size, tags, *rest, need=None):
            if size > 1:  # pairs 0 and 1 of a batch are summed together
                tags = np.where(tags == 1, 0, tags).astype(tags.dtype)
            return real(size, tags, *rest, need=need)

        monkeypatch.setattr(alg, "_merge_tagged", dropping)
        result = ccr_suite(RunConfig(spectrum="1:2", seed=62))
        # the commutators of pairs 0 and 1 are summed into element 0: its
        # unit coefficient misses its own sigma, element 1 has none; the
        # float triples disagree with the exact oracle
        assert result["status"] == "fail"
        assert result["residuals"]["ccr_relations"] > 1.0
        assert result["residuals"]["associativity_vs_exact_oracle"] > 1.0

    def test_flipped_contraction_sign(self, monkeypatch):
        # the product with sigma negated is the product in opposite order
        real = alg.AlgebraElement.__mul__
        monkeypatch.setattr(
            alg.AlgebraElement, "__mul__",
            lambda a, b: real(b, a) if isinstance(b, alg.AlgebraElement)
            else real(a, b))
        result = ccr_suite(RunConfig(spectrum="1:2", seed=62))
        assert result["status"] == "fail"
        assert result["residuals"]["ccr_relations"] > 1.0
