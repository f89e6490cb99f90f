"""Kinematic subalgebras and the functorial action of morphisms."""
import numpy as np
import pytest

from lcqft import algebra as alg
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
    multi_diamond,
    translation,
)

from oracles import (per_point_region_basis, projector_membership_residual,
                     random_data)


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
        v = basis @ rng.standard_normal(basis.shape[1])
        field = alg.fields(mixed_spacetime, v)
        el = field * field + 2.0 * field + alg.one(mixed_spacetime)
        assert membership_residual([el], basis) < 1e-12
        projected = basis @ (basis.conj().T @ v)
        assert np.linalg.norm(v - projected) < 1e-12

    def test_outside_elements_detected(self, mixed_spacetime, rng):
        region = domain_of_dependence(6, 1, 3, mixed_spacetime)
        basis = region_solution_basis(region)
        el = alg.fields(mixed_spacetime, random_data(rng, mixed_spacetime))
        assert membership_residual([el], basis) > 1e-3


class TestBatchedBasis:
    # one batched propagation per region against one propagation per point
    @pytest.mark.parametrize("spec, n, steps, bases", [
        ("1:2", 8, 16, [(6, 1, 5)]),
        ("0:1,1:2", 8, 16, [(6, 1, 5)]),
        ("1:2", 9, 16, [(7, 2, 6)]),                # odd N
        ("0:1,1:2", 8, 7, [(3, 0, 5)]),             # slices 1 to T - 2
        ("0:1,1:2", 8, 8, [(4, 6, 7)]),             # reaches past T - 2
        ("0:1,1:2", 8, 16, [(6, 0, 3), (6, 4, 3)]),  # two diamonds
    ])
    def test_matches_per_point_propagation(self, spec, n, steps, bases):
        st = LatticeSpacetime(n, steps, 0.5, MassSpectrum.parse(spec))
        region = multi_diamond(st, bases)
        batched = region_solution_basis(region)
        oracle = per_point_region_basis(region)
        assert batched.shape == oracle.shape
        assert np.max(np.abs(batched @ batched.conj().T
                             - oracle @ oracle.conj().T)) < 1e-12


class TestMembershipResidual:
    # the derivation by 1 - P against the projector substitution (oracle) on
    # degree-3 elements; the two agree wherever every term has at most one
    # slot outside the span
    @staticmethod
    def _space(rng):
        st = LatticeSpacetime(4, 10, 0.5, MassSpectrum.parse("1:2"))
        basis = region_solution_basis(domain_of_dependence(5, 0, 3, st))
        assert 0 < basis.shape[1] < st.data_dim

        def inside():
            coeff = rng.standard_normal(basis.shape[1]) \
                + 1j * rng.standard_normal(basis.shape[1])
            return alg.fields(st, basis @ coeff)

        return st, basis, inside

    def test_inside_elements(self, rng):
        st, basis, inside = self._space(rng)
        for _ in range(2):
            w1, w2, w3 = inside(), inside(), inside()
            a = w1 * w2 * w3 + 0.5 * w1 * w2 + w3 + alg.one(st)
            assert a.degree == 3
            scale = a.max_abs()
            assert membership_residual([a], basis) < 1e-12 * scale
            assert projector_membership_residual(a, basis) < 1e-12 * scale

    def test_one_slot_outside_agrees_with_oracle(self, rng):
        st, basis, inside = self._space(rng)
        for _ in range(2):
            r = random_data(rng, st)
            u = r - basis @ (basis.conj().T @ r)
            a = inside() * inside() * alg.fields(st, u)
            assert a.degree == 3
            oracle = projector_membership_residual(a, basis)
            assert oracle > 1e-3 * a.max_abs()
            assert abs(membership_residual([a], basis) - oracle) < 1e-12 * oracle

    def test_outside_elements(self, rng):
        st, basis, _ = self._space(rng)
        for _ in range(3):
            a = alg.random_element(rng, st, 3, 6)
            assert membership_residual([a], basis) > 1e-3
            assert projector_membership_residual(a, basis) > 1e-3


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
            el = alg.fields(st, coeff)
            image = act(el)
            assert membership_residual([image], basis) < 1e-10
