"""Gauge group: semidirect law, classical and quantum actions, the shift
functional, naturality, and multiplets."""
import dataclasses
import json

import numpy as np
import pytest

from lcqft import algebra as alg
from lcqft import dynamics as dyn
from lcqft import gauge as gg
from lcqft import suites
from lcqft.cli import main
from lcqft.errors import NotOrthogonal, SpectrumMismatch
from lcqft.kinematics import region_solution_basis, solution_map
from lcqft.spacetime import (
    LatticeSpacetime,
    MassSpectrum,
    domain_of_dependence,
    translation,
)
from lcqft.suites import (RunConfig, gauge_suite, observables_suite,
                          rce_suite, state_suite)

from oracles import (algebra_multiplet_dimensions, degree1_vector,
                     delta_test_function, lift, projector_membership_residual,
                     random_data, sigma, slot_map, species_on_data, step,
                     translation_word_defects)


def _translate(st_, vec, dt_, dx):
    """(T phi)(t, x) = phi(t - dt_, x - dx), through the solution map of the
    translation morphism."""
    return solution_map(translation(st_, dt_, dx)) @ vec


def _identity(spec):
    return gg.GaugeElement(spec, tuple(np.eye(k) for _, k in spec.entries),
                           np.zeros(spec.massless_count))


def _signed_permutation_gauge(rng, spectrum):
    """A random signed permutation in each block and no shift."""
    blocks = []
    for _, k in spectrum.entries:
        R = np.zeros((k, k))
        R[rng.permutation(k), np.arange(k)] = rng.integers(0, 2, size=k) * 2 - 1
        blocks.append(R)
    return gg.GaugeElement(spectrum, tuple(blocks),
                           np.zeros(spectrum.massless_count))


class TestGroupLaw:
    def test_identity_law(self, mixed_spacetime, rng):
        spec = mixed_spacetime.spectrum
        g = gg.random_gauge(rng, spec)
        e = _identity(spec)
        ge = gg.group_compose(g, e)
        assert all(np.array_equal(a, b) for a, b in zip(ge.blocks, g.blocks))
        assert np.array_equal(ge.ell, g.ell)

    def test_worked_semidirect_example(self):
        # nu(0) = 2, both blocks rotate by pi/2, shifts (1,0) and (0,1):
        # composite block rotates by pi, composite shift (1,0)R'_0+(0,1)=(0,0)
        spec = MassSpectrum.parse("0:2")
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        g = gg.GaugeElement(spec, (rot,), np.array([1.0, 0.0]))
        h = gg.GaugeElement(spec, (rot,), np.array([0.0, 1.0]))
        gh = gg.group_compose(g, h)
        assert np.max(np.abs(gh.blocks[0] + np.eye(2))) < 1e-15
        assert np.max(np.abs(gh.ell)) < 1e-15

    def test_inverse(self, mixed_spacetime, rng):
        # (R, l)^-1 = (R^T, -l R_0^T) on both sides
        spec = mixed_spacetime.spectrum
        for _ in range(20):
            g = gg.random_gauge(rng, spec)
            inverse = gg.GaugeElement(spec, tuple(R.T for R in g.blocks),
                                      -(g.ell @ g.massless_block.T))
            for e in (gg.group_compose(g, inverse),
                      gg.group_compose(inverse, g)):
                assert max(np.max(np.abs(R - np.eye(R.shape[0])))
                           for R in e.blocks) < 1e-13
                assert np.max(np.abs(e.ell), initial=0.0) < 1e-13

    def test_associativity(self, mixed_spacetime, rng):
        spec = mixed_spacetime.spectrum
        g, h, k = (gg.random_gauge(rng, spec) for _ in range(3))
        lhs = gg.group_compose(gg.group_compose(g, h), k)
        rhs = gg.group_compose(g, gg.group_compose(h, k))
        assert max(np.max(np.abs(a - b))
                   for a, b in zip(lhs.blocks, rhs.blocks)) < 1e-13
        assert np.max(np.abs(lhs.ell - rhs.ell), initial=0.0) < 1e-13

    def test_orthogonality_enforced(self):
        spec = MassSpectrum.parse("1:2")
        with pytest.raises(NotOrthogonal):
            gg.GaugeElement(spec, (np.array([[1.0, 0.1], [0.0, 1.0]]),),
                            np.zeros(0))

    def test_shift_shape_enforced(self):
        spec = MassSpectrum.parse("1:2")
        with pytest.raises(SpectrumMismatch):
            gg.GaugeElement(spec, (np.eye(2),), np.array([1.0]))

    def test_spectrum_mismatch(self, rng):
        g = gg.random_gauge(rng, MassSpectrum.parse("1:2"))
        h = gg.random_gauge(rng, MassSpectrum.parse("1:3"))
        with pytest.raises(SpectrumMismatch):
            gg.group_compose(g, h)

    @pytest.mark.parametrize("spec", ["1:1", "1:3", "0:1,1:2", "1:2,2:3,3:1"])
    def test_block_reflections(self, spec):
        # one element per mass block, det = -1 in exactly that block and the
        # identity in the others, with no shift
        spectrum = MassSpectrum.parse(spec)
        reflections = gg.block_reflections(spectrum)
        assert len(reflections) == len(spectrum.entries)
        for b, g in enumerate(reflections):
            dets = [round(float(np.linalg.det(R))) for R in g.blocks]
            assert dets == [-1 if i == b else 1 for i in range(len(dets))]
            for i, (R, (_, k)) in enumerate(zip(g.blocks, spectrum.entries)):
                if i != b:
                    assert np.array_equal(R, np.eye(k))
            assert not np.any(g.ell)

    def test_determinant_components_sampled(self, rng):
        spec = MassSpectrum.parse("1:3")
        dets = {round(float(np.linalg.det(gg.random_gauge(rng, spec).blocks[0])))
                for _ in range(40)}
        assert dets == {-1, 1}


class TestClassicalAction:
    def test_identity(self, mixed_spacetime, rng):
        x = random_data(rng, mixed_spacetime, 3)
        out = gg.classical_action(_identity(mixed_spacetime.spectrum),
                                  mixed_spacetime, x)
        assert np.array_equal(out, x)

    def test_symplectic(self, mixed_spacetime, rng):
        for _ in range(20):
            g = gg.random_gauge(rng, mixed_spacetime.spectrum)
            a, b = random_data(rng, mixed_spacetime, 2)
            drift = sigma(gg.classical_action(g, mixed_spacetime, a),
                          gg.classical_action(g, mixed_spacetime, b)) \
                - sigma(a, b)
            assert abs(drift) < 1e-12 * max(
                1.0, np.linalg.norm(a) * np.linalg.norm(b))

    def test_equals_the_dense_species_map(self, two_block_spacetime, rng):
        # one vector or a batch, against kron(1_2, R (x) 1_N) of the oracle
        st_ = two_block_spacetime
        g = gg.random_gauge(rng, st_.spectrum)
        x = random_data(rng, st_, 4, 3)
        want = x @ species_on_data(st_, g.species_matrix()).T
        assert np.max(np.abs(gg.classical_action(g, st_, x) - want)) < 1e-15
        assert np.array_equal(gg.classical_action(g, st_, x[0, 0]),
                              gg.classical_action(g, st_, x)[0, 0])

    def test_spectrum_mismatch_is_refused(self, mixed_spacetime):
        # a 1:2 reflection on a 48-entry 0:1,1:2 data vector, over either
        # spacetime
        g = gg.block_reflections(MassSpectrum.parse("1:2"))[0]
        massive = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
        x = np.ones(mixed_spacetime.data_dim)
        assert x.shape == (48,)
        for st_ in (mixed_spacetime, massive):
            with pytest.raises(SpectrumMismatch):
                gg.classical_action(g, st_, x)

    def test_composition_on_basis_exact(self, two_block_spacetime, rng):
        st_ = two_block_spacetime
        g = gg.random_gauge(rng, st_.spectrum)
        h = gg.random_gauge(rng, st_.spectrum)
        Mg, Mh, Mgh = (species_on_data(st_, x.species_matrix())
                       for x in (g, h, gg.group_compose(g, h)))
        assert np.array_equal(Mg @ Mh, Mgh)

    def test_commutes_with_dynamics(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        g = gg.random_gauge(rng, st_.spectrum)
        phi = random_data(rng, st_)

        def act(x):
            return gg.classical_action(g, st_, x)

        # step
        assert np.max(np.abs(
            act(step(st_, phi)) - step(st_, act(phi)))) < 1e-13
        # conjugation
        assert np.max(np.abs(act(phi.conj()) - act(phi).conj())) < 1e-14
        # translations
        assert np.max(np.abs(act(_translate(st_, phi, 2, 3))
                             - _translate(st_, act(phi), 2, 3))) < 1e-13
        # relative Cauchy evolution
        v = np.zeros((st_.n_slices, st_.n_sites))
        v[5:8, 2:5] = rng.standard_normal((3, 3))
        M = dyn.rce_matrix(dyn.Perturbation(st_, v))
        assert np.max(np.abs(act(M @ phi) - M @ act(phi))) < 1e-12


class TestSpeciesForm:
    def test_so_basis(self):
        for n in range(5):
            so = gg.so_basis(n)
            assert so.shape == (n * (n - 1) // 2, n, n)
            assert np.array_equal(so, -so.transpose(0, 2, 1))
            if len(so):
                assert np.linalg.matrix_rank(so.reshape(len(so), -1)) == len(so)

    @pytest.mark.parametrize("spec", ["1:1", "1:2", "0:1,1:2", "1:2,2:3"])
    def test_rotation_generators_stay_in_their_blocks(self, spec):
        spectrum = MassSpectrum.parse(spec)
        gens = gg.rotation_generators(spectrum)
        assert len(gens) == sum(k * (k - 1) // 2 for _, k in spectrum.entries)
        inside = np.zeros((spectrum.total_species,) * 2, bool)
        for _, block in spectrum.block_slices():
            inside[block, block] = True
        assert not np.any(gens[:, ~inside])
        # exp(tX) = 1 + sin(t) X + (1 - cos(t)) X^2 is a rotation of the group
        for X in gens:
            R = np.eye(len(X)) + np.sin(0.3) * X + (1 - np.cos(0.3)) * X @ X
            g = gg.GaugeElement(spectrum, tuple(
                R[b, b] for _, b in spectrum.block_slices()),
                np.zeros(spectrum.massless_count))
            assert np.array_equal(g.species_matrix(), R)
            assert np.linalg.det(R) == pytest.approx(1.0)

    def test_slot_maps_equal_the_dense_maps(self, two_block_spacetime, rng):
        # the builder reads the species matrices; the dense kron(1_2, R (x)
        # 1_N) of the oracle gives the same digits and weights, bit for bit
        st_ = two_block_spacetime
        S = st_.n_species
        R = np.array([gg.random_gauge(rng, st_.spectrum).species_matrix()
                      for _ in range(3)] + [np.zeros((S, S))])
        consts = rng.standard_normal((4, st_.data_dim))
        got = gg.species_slot_maps(st_, R, consts)
        want = slot_map(species_on_data(st_, R), consts)
        for name in ("digits", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        # the presentation's algebra moves, derived from its matrices: the
        # rotation generators and shift directions, then the reflections
        pres = gg.presentation(st_)
        derivations, reflections = pres.algebra_slots
        zero = np.zeros((st_.data_dim, st_.data_dim))
        wants = [slot_map(X) for X in species_on_data(st_, pres.generators)] \
            + [slot_map(zero, ell) for ell in pres.shifts] \
            + [slot_map(X) for X in species_on_data(st_, pres.reflections)]
        assert len(wants) == len(derivations) + len(reflections) \
            == len(pres.generators) + len(pres.shifts) + len(pres.reflections)
        for slots, want in zip(derivations + reflections, wants):
            assert np.array_equal(slots.digits, want.digits)
            assert np.array_equal(slots.weights, want.weights)


class TestEllFunctional:
    """<l, phi> as the row l @ `shift_functionals` against phi's data
    vector."""

    def test_momentum_free_solutions_vanish(self, mixed_spacetime, rng):
        phi = np.concatenate([rng.standard_normal(24), np.zeros(24)])
        assert np.array([1.0]) @ gg.shift_functionals(mixed_spacetime) @ phi \
            == 0.0

    def test_frozen_sign_convention(self, mixed_spacetime):
        # single massless species, p_0 = delta_x0: sigma(l phi_0, 1) = -1
        phi = np.zeros((2, 3, 8), complex)   # (channel, species, site)
        phi[1, 0, 0] = 1.0
        assert np.array([1.0]) @ gg.shift_functionals(mixed_spacetime) \
            @ phi.ravel() == -1.0

    def test_translation_invariance_exact(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        row = rng.standard_normal(1) @ gg.shift_functionals(st_)
        phi = random_data(rng, st_)
        base = row @ phi
        for (dt_, dx) in [(0, 3), (1, 0), (4, 5), (-2, 1)]:
            moved = row @ _translate(st_, phi, dt_, dx)
            assert abs(moved - base) < 1e-12 * max(1.0, abs(base))

    def test_linear(self, mixed_spacetime, rng):
        row = rng.standard_normal(1) @ gg.shift_functionals(mixed_spacetime)
        a, b = random_data(rng, mixed_spacetime, 2)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(row @ (a + lam * b) - row @ a - lam * (row @ b)) < 1e-12

    def test_zero_without_massless_species(self, massive_spacetime):
        # no massless species, no shift: the row vanishes and there are no
        # shift functionals
        rows = gg.shift_functionals(massive_spacetime)
        assert rows.shape == (0, massive_spacetime.data_dim)
        assert not (np.zeros(0) @ rows).any()

    def test_spacetime_integral_form(self, mixed_spacetime):
        # the solution-intrinsic form equals the frozen spacetime-smearing
        # pairing: <l, E f> = -dt sum_{t,x} l . f_0(t, x)
        st_ = mixed_spacetime
        f = delta_test_function(st_, 0, 6, 2)
        ef = np.concatenate(dyn.propagate_sources(st_, f.values)).ravel()
        val = np.array([1.7]) @ gg.shift_functionals(st_) @ ef
        assert abs(val - (-st_.dt * 1.7)) < 1e-12


class TestQuantumAction:
    def test_identity(self, mixed_spacetime, rng):
        act = gg.QuantumAction(_identity(mixed_spacetime.spectrum),
                               mixed_spacetime)
        x = alg.random_element(rng, mixed_spacetime, 3, 5)
        assert alg.max_coeff_diff(act(x), x) == 0.0

    def test_field_action_formula(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        g = gg.random_gauge(rng, st_.spectrum)
        phi = random_data(rng, st_)
        lhs = gg.QuantumAction(g, st_)(alg.fields(st_, phi))
        rhs = alg.fields(st_, gg.classical_action(g, st_, phi)) \
            + (g.ell @ gg.shift_functionals(st_) @ phi) * alg.one(st_)
        assert alg.max_coeff_diff(lhs, rhs) < 1e-13

    def test_homomorphism_law(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        worst = 0.0
        for _ in range(100):
            g = gg.random_gauge(rng, st_.spectrum)
            h = gg.random_gauge(rng, st_.spectrum)
            phi = alg.fields(st_, random_data(rng, st_))
            lhs = gg.QuantumAction(g, st_)(gg.QuantumAction(h, st_)(phi))
            rhs = gg.QuantumAction(gg.group_compose(g, h), st_)(phi)
            worst = max(worst, alg.max_coeff_diff(lhs, rhs))
        assert worst < 1e-11

    def test_fixes_central_elements(self, mixed_spacetime, rng):
        g = gg.random_gauge(rng, mixed_spacetime.spectrum)
        a, b = alg.fields(mixed_spacetime,
                          random_data(rng, mixed_spacetime, 2)).elements()
        cc = alg.commutator(a, b)
        assert alg.max_coeff_diff(gg.QuantumAction(g, mixed_spacetime)(cc),
                                  cc) < 1e-12

    def test_multiplicative(self, mixed_spacetime, rng):
        for _ in range(10):
            act = gg.QuantumAction(
                gg.random_gauge(rng, mixed_spacetime.spectrum), mixed_spacetime)
            a = alg.random_element(rng, mixed_spacetime, 2, 4)
            b = alg.random_element(rng, mixed_spacetime, 2, 4)
            assert alg.max_coeff_diff(act(a * b), act(a) * act(b)) < 1e-11

    def test_star_equivariance(self, mixed_spacetime, rng):
        act = gg.QuantumAction(gg.random_gauge(rng, mixed_spacetime.spectrum),
                               mixed_spacetime)
        x = alg.random_element(rng, mixed_spacetime, 3, 5)
        assert alg.max_coeff_diff(act(x.star()), act(x).star()) < 1e-12

    def test_monomorphism(self, mixed_spacetime, rng):
        # the action on degree-1 fields determines (R, l): recovering the
        # gauge element from the action and checking injectivity
        st_ = mixed_spacetime
        for _ in range(10):
            g = gg.random_gauge(rng, st_.spectrum)
            act = gg.QuantumAction(g, st_)
            R_rec = np.zeros((st_.n_species, st_.n_species))
            S, N = st_.n_species, st_.n_sites
            for s in range(S):
                image = act(alg.monomial(st_, (s * N,)))
                vec = degree1_vector(image)
                R_rec[:, s] = vec[:S * N].reshape(S, N)[:, 0].real
            assert np.max(np.abs(R_rec - g.species_matrix())) < 1e-13
            ell_rec = np.zeros(st_.spectrum.massless_count)
            block = st_.spectrum.block_slice(0.0)
            for j, s in enumerate(range(block.start, block.stop)):
                image = act(alg.monomial(st_, (S * N + s * N,)))
                ell_rec[j] = -image.coefficient(()).real
            assert np.max(np.abs(ell_rec - g.ell)) < 1e-13

    def test_identity_action_forces_identity_element(self, mixed_spacetime):
        # zeta(g) = id on all basis fields implies g = (I, 0): exhaustive
        # over a finite generating set (identity, signed permutations, shift
        # generators, small rotations) plus random elements
        st_ = mixed_spacetime
        spec = st_.spectrum
        rng = np.random.default_rng(11)
        c, s = np.cos(0.3), np.sin(0.3)
        generating_set = [
            _identity(spec),
            gg.GaugeElement(spec, (np.eye(1), np.array([[c, -s], [s, c]])),
                            np.zeros(1)),
            gg.GaugeElement(spec, (-np.eye(1), np.eye(2)), np.zeros(1)),
            gg.GaugeElement(spec, (np.eye(1), np.eye(2)), np.array([1.0])),
        ] + [_signed_permutation_gauge(rng, spec) for _ in range(6)]
        candidates = generating_set + [gg.random_gauge(rng, spec)
                                       for _ in range(30)]
        for g in candidates:
            act = gg.QuantumAction(g, st_)
            fixes_all = all(
                alg.max_coeff_diff(act(alg.monomial(st_, (i,))),
                                   alg.monomial(st_, (i,))) < 1e-12
                for i in range(0, st_.data_dim, st_.n_sites))
            is_identity = (max(np.max(np.abs(R - np.eye(R.shape[0])))
                               for R in g.blocks) < 1e-12
                           and np.max(np.abs(g.ell), initial=0) < 1e-12)
            assert fixes_all == is_identity


class TestNaturality:
    def test_exact_on_dyadic_data(self, mixed_spacetime, rng):
        # signed-permutation blocks with no shift and integer data make
        # both composition orders bit-identical
        st_ = mixed_spacetime
        g = _signed_permutation_gauge(rng, st_.spectrum)
        act = gg.QuantumAction(g, st_)
        for dx in range(st_.n_sites):
            for dt_ in (0, 1, -1, 2):
                lifted = lift(st_, solution_map(translation(st_, dt_, dx)))
                phi = alg.fields(st_, rng.integers(-3, 4, st_.data_dim)
                                 + 1j * rng.integers(-3, 4, st_.data_dim))
                assert alg.max_coeff_diff(act(lifted(phi)),
                                          lifted(act(phi))) == 0.0

    def test_float_translations(self, mixed_spacetime, rng):
        worst = 0.0
        for _ in range(20):
            g = gg.random_gauge(rng, mixed_spacetime.spectrum)
            act = gg.QuantumAction(g, mixed_spacetime)
            dt_, dx = int(rng.integers(-2, 3)), int(rng.integers(0, 8))
            lifted = lift(
                mixed_spacetime,
                solution_map(translation(mixed_spacetime, dt_, dx)))
            phi = alg.fields(mixed_spacetime, random_data(rng, mixed_spacetime))
            worst = max(worst, alg.max_coeff_diff(act(lifted(phi)),
                                                  lifted(act(phi))))
        assert worst < 1e-13

    def test_kinematic_subalgebras_preserved(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        region = domain_of_dependence(6, 1, 5, st_)
        basis = region_solution_basis(region)
        assert basis.shape[1] > 0
        for _ in range(5):
            g = gg.random_gauge(rng, st_.spectrum)
            c1 = basis @ (rng.standard_normal(basis.shape[1])
                          + 1j * rng.standard_normal(basis.shape[1]))
            c2 = basis @ rng.standard_normal(basis.shape[1])
            el = alg.fields(st_, c1) * alg.fields(st_, c2)
            image = gg.QuantumAction(g, st_)(el)
            assert projector_membership_residual(image, basis) < 1e-10

    def test_rce_intertwining(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        v = np.zeros((st_.n_slices, st_.n_sites))
        v[5:8, 2:5] = rng.standard_normal((3, 3))
        # the mass kind intertwines with the orthogonal factor only, so its
        # gauge elements have no shift
        for kind, shifted, tol in [("mass", False, 1e-9),
                                   ("gradient", True, 1e-9)]:
            pert = dyn.Perturbation(st_, v, kind=kind)
            lifted = lift(st_, dyn.rce_matrix(pert))
            for _ in range(10):
                g = gg.random_gauge(rng, st_.spectrum)
                if not shifted:
                    g = gg.GaugeElement(st_.spectrum, g.blocks,
                                        np.zeros_like(g.ell))
                act = gg.QuantumAction(g, st_)
                x = alg.random_element(rng, st_, 2, 3)
                assert alg.max_coeff_diff(act(lifted(x)),
                                          lifted(act(x))) < tol

    def test_ell_rce_identity_gradient_only(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        v = np.zeros((st_.n_slices, st_.n_sites))
        v[5:8, 2:5] = rng.standard_normal((3, 3))
        row = rng.standard_normal(1) @ gg.shift_functionals(st_)
        M_g = dyn.rce_matrix(dyn.Perturbation(st_, v, kind="gradient"))
        M_m = dyn.rce_matrix(dyn.Perturbation(st_, v, kind="mass"))
        phi = random_data(rng, st_)
        assert abs(row @ (M_g @ phi) - row @ phi) < 1e-9
        # the mass-kind coupling genuinely moves the charge functional
        chi = np.zeros(st_.data_dim)
        chi[:st_.n_sites] = 1.0    # the unit constant solution of species 0
        assert abs(row @ (M_m @ chi) - row @ chi) > 1e-4


class TestMultiplets:
    # the span of one species field per mass block, closed under the exact
    # presentation: nu(m) for a massive block, nu(0) + 1 for the massless one
    @staticmethod
    def _dimensions(spec):
        return gg.multiplet_dimensions(
            LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse(spec)))

    def test_single_block_defining(self):
        assert self._dimensions("1:2") == [2]
        assert self._dimensions("1:3") == [3]

    def test_two_blocks_no_mixing(self):
        assert self._dimensions("1:2,2:3") == [2, 3]
        assert self._dimensions("1:1,2:1") == [1, 1]

    def test_massless_block_gains_the_unit(self):
        assert self._dimensions("0:2") == [3]
        assert self._dimensions("0:1,1:2") == [2, 2]

    @pytest.mark.parametrize("n_sites", [8, 16])
    @pytest.mark.parametrize(
        "spec", ["1:2", "0:1,1:2", "1:2,2:3", "0:2", "1:3", "1:5"])
    def test_vectors_match_the_algebra_closure(self, spec, n_sites):
        st_ = LatticeSpacetime(n_sites, 16, 0.5, MassSpectrum.parse(spec))
        assert gg.multiplet_dimensions(st_) \
            == algebra_multiplet_dimensions(st_)

    def test_tiny_time_step_keeps_the_seed(self, tmp_path, capsys):
        # at dt = 1e-100 every entry of the propagated seed lies below the
        # kernel's PRUNE_TOL, so the algebra closure starts from zero; the
        # vectors keep the seed
        st_ = LatticeSpacetime(8, 16, 1e-100, MassSpectrum.parse("0:1,1:2"))
        assert algebra_multiplet_dimensions(st_) == [0, 0]
        assert gg.multiplet_dimensions(st_) == [2, 2]
        out = tmp_path / "report.json"
        assert main(["verify", "gauge", "--spectrum", "0:1,1:2", "--sites",
                     "8", "--dt", "1e-100", "--out", str(out)]) == 0
        dims = json.loads(out.read_text())["suites"][0]["dimensions"]
        assert dims == {"multiplet_mass_0": 2, "multiplet_mass_1": 2}

    def test_unit_family_is_singlet(self, mixed_spacetime):
        unit = alg.one(mixed_spacetime)
        assert all(moved.max_abs() == 0.0 for moved in
                   gg.presentation(mixed_spacetime).moves(unit))

    def test_dropping_shifts_fails_gauge_suite(self, mixed_spacetime,
                                               monkeypatch):
        full = gg.presentation
        monkeypatch.setattr(gg, "presentation", lambda st_: dataclasses.replace(
            full(st_), shifts=np.zeros((0, st_.data_dim))))
        assert gg.multiplet_dimensions(mixed_spacetime) == [1, 2]
        result = gauge_suite(RunConfig(spectrum="0:1,1:2", seed=11))
        assert result["status"] == "fail"
        assert "multiplet_mass_0: 1 != expected 2" in result["findings"]


def test_swapped_slot_maps_fail_the_homomorphism_law(monkeypatch):
    # the law's 300 actions are one stack of slot maps: swapping two pairs'
    # maps in it must fail the suite
    real = gg.action_slot_maps

    def swapped(spacetime, gauges):
        order = np.arange(len(gauges))
        if len(gauges) == 300:
            order[[0, 1]] = [1, 0]
        return real(spacetime, gauges)[order]

    monkeypatch.setattr(gg, "action_slot_maps", swapped)
    result = gauge_suite(RunConfig(spectrum="1:2", seed=62))
    assert result["status"] == "fail"
    assert result["residuals"]["homomorphism_law"] > 1e-3


def _symmetric_rotations(real):
    """|X| for each rotation generator X: symmetric, so its derivation is
    not one of the CCR product."""
    return lambda spectrum: np.abs(real(spectrum))


def _q_only_reflections(real):
    """Each block reflection applied to the q-channel alone: a substitution
    by a non-symplectic map, so not multiplicative."""
    def slots(self):
        derivations, _ = real.func(self)
        half = self.spacetime.data_dim // 2
        maps = []
        for R in self.reflections:
            M = species_on_data(self.spacetime, R)
            M[half:, half:] = np.eye(half)
            maps.append(slot_map(M))
        return derivations, tuple(maps)
    return property(slots)


@pytest.mark.parametrize("owner, name, mutant", [
    (gg, "rotation_generators", _symmetric_rotations),
    (gg.Presentation, "algebra_slots", _q_only_reflections)],
    ids=["symmetric-rotation", "q-only-reflection"])
def test_leibniz_law_catches_a_faulty_move(owner, name, mutant, monkeypatch):
    # a move that does not act on the algebra as a derivation, resp. a
    # homomorphism, of the CCR product must fail the law
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    gg.presentation.cache_clear()
    try:
        result = gauge_suite(RunConfig(spectrum="1:2", seed=62))
    finally:
        gg.presentation.cache_clear()
    assert result["status"] == "fail"
    assert result["residuals"]["leibniz_law"] > 0.1


def test_leibniz_law_keeps_its_power_on_large_lattices(monkeypatch):
    # each pair is drawn on a few sites it shares, so its products contract
    # as often at 64 sites as at 8, and the symmetric-rotation mutant reads
    # as much on both (in the suite, draws spread over all of `dim` read
    # medians of 3.39 at 8 sites and 0.96 at 64, seeds 0-9)
    monkeypatch.setattr(gg, "rotation_generators", _symmetric_rotations(
        gg.rotation_generators))
    gg.presentation.cache_clear()
    try:
        medians = {n: np.median([
            suites._leibniz_defect(np.random.default_rng(seed), RunConfig(
                spectrum="1:2", n_sites=n).spacetime()) for seed in range(10)])
            for n in (8, 64)}
    finally:
        gg.presentation.cache_clear()
    assert medians[8] > 1.0 and medians[64] >= 0.5 * medians[8]


def _with_cross_block_generator(real):
    """The rotation generators and one more, coupling species 0 to the last
    species, which lie in different mass blocks: the free dynamics does not
    commute with it."""
    def generators(spectrum):
        S = spectrum.total_species
        X = np.zeros((1, S, S))
        X[0, S - 1, 0], X[0, 0, S - 1] = 1.0, -1.0
        return np.concatenate([real(spectrum), X])
    return generators


@pytest.mark.parametrize("spectrum", ["1:2,2:3", "0:1,1:2"])
def test_a_planted_generator_fails_every_linear_check(spectrum, monkeypatch):
    # every linear check reads the one presentation, so a wrong move there
    # reaches all of them
    monkeypatch.setattr(gg, "rotation_generators", _with_cross_block_generator(
        gg.rotation_generators))
    gg.presentation.cache_clear()
    config = RunConfig(spectrum=spectrum)
    try:
        results = {key: suite(config) for suite, key in [
            (gauge_suite, "naturality_translations_exact"),
            (rce_suite, "intertwining"),
            (state_suite, "vacuum_gauge_invariance"),
            (observables_suite, "bilinear_invariance")]}
    finally:
        gg.presentation.cache_clear()
    for key, result in results.items():
        assert result["residuals"][key] > 1e-3, key
        assert any(line.startswith(f"{key}: ") for line in result["findings"])


def _scaled(T, st_):
    """1.5 T: commutes with every species map but is not symplectic."""
    return 1.5 * T


def _roll_species_0(T, st_):
    """T, then a one-site roll of species 0 alone: symplectic and keeps the
    charges, but no longer commutes with rotations into species 0."""
    N = st_.n_sites
    roll = np.eye(st_.data_dim)
    for c in range(2):
        cols = c * st_.n_species * N + np.arange(N)
        roll[cols] = roll[np.roll(cols, 1)]
    return roll @ T


def _shear_massless(T, st_):
    """T, then p += q at site 0 of the first species, massless and alone in
    its block on 0:1,1:2: symplectic and commutes with every species map,
    but moves the charge <e_0, .>."""
    shear = np.eye(st_.data_dim)
    shear[st_.n_species * st_.n_sites, 0] = 1.0
    return shear @ T


@pytest.mark.parametrize("mutant, name, other, spec", [
    (_scaled, "naturality_translations_float",
     "naturality_translations_exact", "1:2"),
    (_shear_massless, "naturality_translations_float",
     "naturality_translations_exact", "0:1,1:2"),
    (_roll_species_0, "naturality_translations_exact",
     "naturality_translations_float", "1:2"),
    (_roll_species_0, "naturality_translations_exact",
     "naturality_translations_float", "0:2")],
    ids=["scaled", "charge-moving", "rolled", "rolled-massless"])
def test_naturality_catches_a_faulty_translation(mutant, name, other, spec,
                                                  monkeypatch):
    # each translation's map must commute with the species maps, keep the
    # shift functionals and stay symplectic; each mutant breaks one of the
    # two checks and keeps the other
    import lcqft.kinematics as kin
    real = kin.solution_map
    monkeypatch.setattr(
        kin, "solution_map",
        lambda m: mutant(real(m), m.target.spacetime))
    result = gauge_suite(RunConfig(spectrum=spec, seed=62))
    assert result["status"] == "fail"
    assert result["residuals"][name] > 0.1
    assert result["residuals"][other] <= result["thresholds"][other]
    assert [line for line in result["findings"] if "residual" in line] \
        == [f"{name}: residual {result['residuals'][name]:.3e} exceeds "
            f"{result['thresholds'][name]:.1e}"]


@pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
def test_translation_words_hold_as_the_generators_do(spec):
    # the suite checks the two generators; every one of the 4N words it
    # once checked, each map built alone, reads the same exact zero and a
    # float defect at roundoff
    st_ = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse(spec))
    exact, flt = translation_word_defects(st_)
    assert exact == 0.0
    assert flt <= 1e-13


def test_naturality_builds_the_two_generators(monkeypatch):
    import lcqft.kinematics as kin
    real, calls = kin.solution_map, []
    monkeypatch.setattr(kin, "solution_map",
                        lambda m: calls.append(m) or real(m))
    assert gauge_suite(RunConfig(spectrum="1:2", seed=62))["status"] == "pass"
    assert [(m.dt_steps, m.dx_sites) for m in calls] == [(1, 0), (0, 1)]


@pytest.mark.parametrize("spec, dt, seed", [
    ("0:1,1:2", 0.45, 9), ("0:2", 0.9, 7), ("0:1", 0.37, 0),
    ("0:1,1:2", 0.3, 0), ("0:2", 0.3, 3), ("1000000:1", 1.99e-6, 0),
    ("0:1,1:2", 1e-6, 0), ("0:1,1:2", 1e-10, 0)])
def test_exact_naturality_holds_at_non_dyadic_dt(spec, dt, seed):
    # the rotation generators and reflections only permute and negate
    # entries, so they commute with every translation bit for bit, whatever
    # the translation's entries; at mass 1e6 near the dt limit those
    # entries reach 1e6 and |T^T J T - J| reads 3e-12 from rounding alone,
    # about 2e-21 relative to max|T|^2, so the float check passes too. At
    # dt 1e-6 and 1e-10 the diamond bases, taken in balanced coordinates,
    # keep their rank and membership passes
    result = gauge_suite(RunConfig(spectrum=spec, dt=dt, seed=seed))
    assert result["residuals"]["naturality_translations_exact"] == 0.0
    assert result["status"] == "pass"


def test_half_a_diamond_basis_fails_membership(monkeypatch):
    # every second basis column spans a subspace that the rotations do not
    # preserve; the linear criterion must see it
    import lcqft.kinematics as kin
    real = kin.region_solution_basis
    monkeypatch.setattr(kin, "region_solution_basis",
                        lambda region: real(region)[:, ::2])
    result = gauge_suite(RunConfig(spectrum="1:2", seed=7))
    assert result["status"] == "fail"
    assert result["residuals"]["kinematic_membership"] > 1e-3
