"""Kinematic subalgebras and the functorial action of morphisms."""
import numpy as np

from lcqft import algebra as alg
from lcqft import dynamics as dyn
from lcqft.kinematics import (
    membership_residual,
    region_solution_basis,
    solution_map,
)
from lcqft.spacetime import (
    LatticeSpacetime,
    MassSpectrum,
    cauchy_extension,
    compose,
    domain_of_dependence,
    translation,
)


class TestRegionSolutionBasis:
    def test_diamond_subspace_is_proper(self, mixed_spacetime):
        region = domain_of_dependence(6, 1, 4, mixed_spacetime)
        basis = region_solution_basis(region)
        assert 0 < basis.shape[1] < mixed_spacetime.data_dim

    def test_wide_diamond_spans_more(self, mixed_spacetime):
        small = region_solution_basis(
            domain_of_dependence(6, 1, 3, mixed_spacetime))
        large = region_solution_basis(
            domain_of_dependence(6, 1, 6, mixed_spacetime))
        assert large.shape[1] > small.shape[1]

    def test_membership_of_inside_elements(self, mixed_spacetime, rng):
        region = domain_of_dependence(6, 1, 5, mixed_spacetime)
        basis = region_solution_basis(region)
        coeff = rng.standard_normal(basis.shape[1])
        v = dyn.solution_from_vec(mixed_spacetime, basis @ coeff)
        el = alg.field(v) * alg.field(v) + 2.0 * alg.field(v) \
            + alg.one(mixed_spacetime)
        assert membership_residual(el, basis) < 1e-12
        projected = basis @ (basis.conj().T @ v.vec())
        assert np.linalg.norm(v.vec() - projected) < 1e-12

    def test_outside_elements_detected(self, mixed_spacetime, rng):
        region = domain_of_dependence(6, 1, 3, mixed_spacetime)
        basis = region_solution_basis(region)
        v = dyn.random_solution(rng, mixed_spacetime)
        el = alg.field(v)
        assert membership_residual(el, basis) > 1e-3


class TestSolutionMap:
    def test_translation_matrices_compose(self, mixed_spacetime):
        st = mixed_spacetime
        f = translation(st, 1, 2)
        g = translation(st, 2, 3)
        Mf, Mg = solution_map(f), solution_map(g)
        Mfg = solution_map(compose(f, g))
        assert np.max(np.abs(Mf @ Mg - Mfg)) < 1e-11

    def test_identity_morphism(self, mixed_spacetime):
        M = solution_map(translation(mixed_spacetime, 0, 0))
        assert np.array_equal(M, np.eye(mixed_spacetime.data_dim))

    def test_lifted_functor_law(self, mixed_spacetime, rng):
        # Q(f . g) = Q(f) . Q(g) on the algebra
        st = mixed_spacetime
        f, g = translation(st, 1, 2), translation(st, 0, 3)
        lf = alg.lift(st, solution_map(f))
        lg = alg.lift(st, solution_map(g))
        lfg = alg.lift(st, solution_map(compose(f, g)))
        x = alg.random_element(rng, st, 2, 4)
        assert alg.max_coeff_diff(lf(lg(x)), lfg(x)) < 1e-11

    def test_cauchy_extension_identity_on_data(self):
        small = LatticeSpacetime(8, 6, 0.5, MassSpectrum.parse("1:2"))
        big = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
        M = solution_map(cauchy_extension(small, big))
        assert np.array_equal(M, np.eye(small.data_dim))

    def test_region_inclusion_embeds(self, mixed_spacetime):
        from lcqft.spacetime import region_inclusion
        region = domain_of_dependence(6, 1, 4, mixed_spacetime)
        M = solution_map(region_inclusion(region))
        assert np.array_equal(M, np.eye(mixed_spacetime.data_dim))


class TestAlgebraNaturality:
    def test_lifted_endomorphism_preserves_local_algebras(self, mixed_spacetime,
                                                          rng):
        # a lifted translation-commuting endomorphism maps each kinematic
        # subalgebra into itself and commutes with the inclusion
        st = mixed_spacetime
        region = domain_of_dependence(6, 1, 5, st)
        basis = region_solution_basis(region)
        from lcqft.gauge import QuantumAction, random_gauge
        for _ in range(3):
            g = random_gauge(rng, st.spectrum)
            act = QuantumAction(g, st)
            coeff = basis @ (rng.standard_normal(basis.shape[1])
                             + 1j * rng.standard_normal(basis.shape[1]))
            el = alg.field(dyn.solution_from_vec(st, coeff))
            image = act(el)
            assert membership_residual(image, basis) < 1e-10
