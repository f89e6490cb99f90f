"""Fixed-point algebra: charge-zero sector, bilinears, central elements."""
import tracemalloc

import numpy as np
import pytest

from lcqft import algebra as alg
from lcqft import gauge as gg
from lcqft import observables as obs
from lcqft.errors import MassNotInSpectrum, NoMasslessSpecies, NotChargeZero
from lcqft.spacetime import multi_diamond

from oracles import (dict_derivation, dict_max_coeff_diff, sigma,
                     species_on_data)


def _charge_zero_scalar(rng, st, massless):
    """Single-species data (2, N), rows q and p."""
    N = st.n_sites
    q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    p = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if massless:
        p = p - np.mean(p)
    return np.array([q, p])


def _theta(st):
    """Massless scalar data with sigma(theta, 1) = 1: not charge zero."""
    N = st.n_sites
    return np.array([np.zeros(N), -np.ones(N) / N])


def _field(st, data, species):
    return alg.fields(st, obs.in_species(st, data, species))


class TestChargeZeroSubspace:
    # theta spans the complement of the charge-zero sector
    def test_theta_normalization(self, mixed_spacetime):
        st = mixed_spacetime
        theta = obs.in_species(st, _theta(st), 0)
        unit = obs.in_species(st, [np.ones(st.n_sites), np.zeros(st.n_sites)], 0)
        assert abs(sigma(theta, unit) - 1.0) < 1e-14

    def test_in_species_layout(self, mixed_spacetime, rng):
        # q and p of the data land in one species slot of each channel
        st = mixed_spacetime
        data = _charge_zero_scalar(rng, st, False)
        vec = obs.in_species(st, data, 2).reshape(2, st.n_species, st.n_sites)
        assert np.array_equal(vec[:, 2], data)
        assert not vec[:, :2].any()


class TestBilinearGenerator:
    def test_zero_inputs(self, mixed_spacetime):
        z = np.zeros((2, 8))
        gen = obs.bilinear_generator(mixed_spacetime, 1.0, z, z)
        assert gen.degree == -1

    def test_unknown_mass(self, mixed_spacetime, rng):
        phi = _charge_zero_scalar(rng, mixed_spacetime, False)
        with pytest.raises(MassNotInSpectrum):
            obs.bilinear_generator(mixed_spacetime, 7.0, phi, phi)

    def test_charge_zero_required_for_massless(self, mixed_spacetime, rng):
        phi = np.array([np.zeros(8), np.ones(8)])
        with pytest.raises(NotChargeZero):
            obs.bilinear_generator(mixed_spacetime, 0.0, phi, phi)

    def test_degree_parts(self, mixed_spacetime, rng):
        # degree-0 part is (i/2) sum_i sigma(phi x e_i, psi x e_i)
        #               = (i/2) nu(m) sigma_scalar(phi, psi)
        st = mixed_spacetime
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        gen = obs.bilinear_generator(st, 1.0, phi, psi)
        sigma_scalar = sigma(phi.ravel(), psi.ravel())
        expected = 0.5j * 2 * sigma_scalar
        assert abs(gen.coefficient(()) - expected) < 1e-12
        assert gen.degree == 2

    def test_invariance_under_gauge(self, mixed_spacetime, rng):
        # one generator per mass against 50 random gauge elements, then a
        # fresh generator batch against a smaller sample
        worst = 0.0
        for mass in (0.0, 1.0):
            phi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
            psi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
            gen = obs.bilinear_generator(mixed_spacetime, mass, phi, psi)
            for _ in range(50):
                g = gg.random_gauge(rng, mixed_spacetime.spectrum)
                worst = max(worst, alg.max_coeff_diff(
                    gg.quantum_action(g, gen), gen))
            for _ in range(4):
                phi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                psi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                gen = obs.bilinear_generator(mixed_spacetime, mass, phi, psi)
                for _ in range(8):
                    g = gg.random_gauge(rng, mixed_spacetime.spectrum)
                    worst = max(worst, alg.max_coeff_diff(
                        gg.quantum_action(g, gen), gen))
        assert worst < 1e-10

    def test_degree_two_part_is_species_paired_tensor(self, mixed_spacetime,
                                                      rng):
        # the degree-2 component equals the symmetrized sum over the block of
        # (phi x e_i) tensor (psi x e_i), assembled independently of the
        # product code
        st = mixed_spacetime
        mass = 1.0
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        gen = obs.bilinear_generator(st, mass, phi, psi)
        block = st.spectrum.block_slice(mass)
        expected = {}
        for s in range(block.start, block.stop):
            u = obs.in_species(st, phi, s)
            v = obs.in_species(st, psi, s)
            for i in np.nonzero(u)[0]:
                for j in np.nonzero(v)[0]:
                    key = tuple(sorted((int(i), int(j))))
                    expected[key] = expected.get(key, 0.0) + u[i] * v[j]
        deg2 = gen.select(gen.term_degrees() == 2)
        worst = 0.0
        for key, val in expected.items():
            worst = max(worst, abs(deg2.coefficient(key) - val))
        assert worst < 1e-12
        assert len(deg2.terms) == len([k for k, v in expected.items()
                                       if abs(v) > 1e-15])

    def test_products_stay_invariant(self, mixed_spacetime, rng):
        phi = _charge_zero_scalar(rng, mixed_spacetime, False)
        psi = _charge_zero_scalar(rng, mixed_spacetime, False)
        chi = _charge_zero_scalar(rng, mixed_spacetime, True)
        g1 = obs.bilinear_generator(mixed_spacetime, 1.0, phi, psi)
        g2 = obs.bilinear_generator(mixed_spacetime, 0.0, chi, chi)
        ok, residual = obs.invariant_projection_check(g1 * g2)
        assert ok, residual
        ok, residual = obs.invariant_projection_check((g1 * g1).star())
        assert ok, residual


class TestInvariantProjectionCheck:
    def test_unit_invariant(self, mixed_spacetime):
        ok, residual = obs.invariant_projection_check(alg.one(mixed_spacetime))
        assert ok and residual == 0.0

    def test_theta_field_fails_affine(self, mixed_spacetime):
        # Phi(theta x e_1): massless, not charge zero: the affine derivative
        # is nonzero (the lambda-linear coefficient survives)
        el = _field(mixed_spacetime, _theta(mixed_spacetime), 0)
        ok, residual = obs.invariant_projection_check(el)
        assert not ok
        deriv = obs.affine_derivative(el, 0)
        assert deriv.max_abs() > 0.5  # = sigma(theta, 1) = 1 up to sign
        # its square is even under every reflection and the massless block
        # has no rotations: only the shift derivative rejects it
        ok, residual = obs.invariant_projection_check(el * el)
        assert not ok and residual > 0.1

    def test_single_species_bilinear_fails_rotation(self, massive_spacetime,
                                                    rng):
        # Phi(phi e_0) Phi(psi e_0) is even under every reflection; only the
        # so(2) generator sees that it is not summed over the block
        phi = _charge_zero_scalar(rng, massive_spacetime, False)
        psi = _charge_zero_scalar(rng, massive_spacetime, False)
        el = _field(massive_spacetime, phi, 0) \
            * _field(massive_spacetime, psi, 0)
        ok, residual = obs.invariant_projection_check(el)
        assert not ok and residual > 1e-3

    def test_mass_mixing_fails(self, mixed_spacetime, rng):
        phi = _charge_zero_scalar(rng, mixed_spacetime, True)
        psi = _charge_zero_scalar(rng, mixed_spacetime, False)
        mixed = _field(mixed_spacetime, phi, 0) * _field(mixed_spacetime, psi, 1)
        ok, residual = obs.invariant_projection_check(mixed)
        assert not ok
        assert residual > 1e-3

    def test_species_antisymmetric_bilinear_needs_the_reflection(
            self, massive_spacetime, rng):
        # Phi(phi e_0) Phi(psi e_1) - Phi(phi e_1) Phi(psi e_0) is the
        # determinant of the species pair: SO(2) fixes it exactly, the
        # reflection flips its sign
        st = massive_spacetime
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)

        def f(h, s):
            return _field(st, h, s)

        det = f(phi, 0) * f(psi, 1) - f(phi, 1) * f(psi, 0)
        gen, = species_on_data(st, gg.rotation_generators(st.spectrum))
        assert alg.derivation(det, alg.slot_map(gen)).terms == {}
        ok, residual = obs.invariant_projection_check(det)
        assert not ok
        assert residual == pytest.approx(2 * det.max_abs())

    def test_each_mass_block_reflected_on_its_own(self, rng):
        # on "1:1,2:1" the group is {+-1} x {+-1} with no rotations: the
        # mixed bilinear is fixed by (-1, -1) but not by (-1, 1)
        from lcqft.spacetime import LatticeSpacetime, MassSpectrum
        st = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:1,2:1"))
        phi = _charge_zero_scalar(rng, st, False)
        psi = _charge_zero_scalar(rng, st, False)
        mixed = _field(st, phi, 0) * _field(st, psi, 1)
        both = gg.GaugeElement(st.spectrum, (-np.eye(1), -np.eye(1)),
                               np.zeros(0))
        assert alg.max_coeff_diff(gg.quantum_action(both, mixed), mixed) == 0.0
        ok, residual = obs.invariant_projection_check(mixed)
        assert not ok
        assert residual == pytest.approx(2 * mixed.max_abs())


class TestCentralElements:
    def test_requires_massless(self, massive_spacetime):
        with pytest.raises(NoMasslessSpecies):
            obs.central_elements(massive_spacetime)

    def test_commute_with_generators(self, mixed_spacetime, rng):
        central = obs.central_elements(mixed_spacetime)
        worst = 0.0
        for entry in central:
            for mass in (0.0, 1.0):
                for _ in range(5):
                    phi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                    psi = _charge_zero_scalar(rng, mixed_spacetime, mass == 0.0)
                    gen = obs.bilinear_generator(mixed_spacetime, mass, phi, psi)
                    worst = max(worst, alg.commutator(
                        entry["element"], gen).max_abs())
        assert worst < 1e-12

    def test_charge_zero_and_shift_fixed(self, mixed_spacetime):
        # chi has zero momentum, so sigma(chi, 1) = 0 and <l, chi> = 0:
        # central elements are fixed by every affine shift
        st = mixed_spacetime
        central = obs.central_elements(st)
        unit = obs.in_species(st, [np.ones(st.n_sites), np.zeros(st.n_sites)], 0)
        for entry in central:
            chi = obs.in_species(st, entry["chi"], entry["species"])
            assert sigma(chi, unit) == 0.0
            assert gg.ell_basis_values(np.array([2.5]), st) @ chi == 0.0
            g = gg.GaugeElement(
                mixed_spacetime.spectrum,
                tuple(np.eye(k) for _, k in mixed_spacetime.spectrum.entries),
                np.array([2.5]))
            assert alg.max_coeff_diff(
                gg.quantum_action(g, entry["element"]), entry["element"]) \
                < 1e-14

    def test_moved_by_orthogonal_factor(self, mixed_spacetime):
        # the obstruction: Phi(chi) is central in the charge-zero algebra but
        # the orthogonal factor moves it (R_0 = -1 flips the sign), so it is
        # not in the full fixed-point algebra
        central = obs.central_elements(mixed_spacetime)
        spectrum = mixed_spacetime.spectrum
        g = gg.GaugeElement(
            spectrum,
            tuple(-np.eye(k) if mass == 0.0 else np.eye(k)
                  for mass, k in spectrum.entries),
            np.zeros(spectrum.massless_count))
        for entry in central:
            moved = gg.quantum_action(g, entry["element"])
            assert alg.max_coeff_diff(moved, (-1.0) * entry["element"]) < 1e-14
            assert alg.max_coeff_diff(moved, entry["element"]) > 0.5
            assert "central" in entry["flag"]

    def test_nonzero(self, mixed_spacetime):
        for entry in obs.central_elements(mixed_spacetime):
            assert entry["element"].max_abs() > 0.5


class TestMultiComponentRegions:
    def test_disjoint_diamond_bilinear_invariant_but_flagged(self, rng):
        # a bilinear from solutions supported in causally disjoint diamonds
        # passes gauge invariance yet is excluded from the per-component
        # algebra of observables (cross-component support)
        from lcqft.spacetime import LatticeSpacetime, MassSpectrum
        st = LatticeSpacetime(11, 12, 0.5, MassSpectrum.parse("1:2"))
        region = multi_diamond(st, [(6, 0, 3), (6, 5, 3)])
        comp1, comp2 = region.components
        N = st.n_sites

        def scalar_in(comp):
            q = np.zeros(N, dtype=complex)
            p = np.zeros(N, dtype=complex)
            sites = sorted(comp.sites(N))
            q[sites] = rng.standard_normal(len(sites))
            p[sites] = rng.standard_normal(len(sites))
            return np.array([q, p])

        phi, psi = scalar_in(comp1), scalar_in(comp2)
        gen = obs.bilinear_generator(st, 1.0, phi, psi)
        ok, residual = obs.invariant_projection_check(gen)
        assert ok, residual
        supports = [comp1.sites(N), comp2.sites(N)]
        cross = not any(
            set(np.nonzero(np.abs(phi).sum(0))[0]) <= s
            and set(np.nonzero(np.abs(psi).sum(0))[0]) <= s
            for s in supports)
        assert cross  # flagged: not generated within one component


class TestDegreeCap:
    def test_invariance_check_degree_cap(self, mixed_spacetime):
        from lcqft.errors import DegreeCapExceeded
        big = alg.monomial(mixed_spacetime, (0, 1, 2, 3, 4))
        with pytest.raises(DegreeCapExceeded):
            obs.invariant_projection_check(big)


class TestWorkingMemory:
    def test_invariance_check_of_a_generator_product(self, massive_spacetime,
                                                     rng):
        # the largest check of `verify all`: two bilinear generators of 273
        # terms multiply into 26.5k, and each move expands those by 4
        st_ = massive_spacetime
        a, b = (obs.bilinear_generator(st_, 1.0,
                                       _charge_zero_scalar(rng, st_, False),
                                       _charge_zero_scalar(rng, st_, False))
                for _ in range(2))
        prod = a * b
        assert len(a.coeffs) == 273 and len(prod.coeffs) == 26521
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            ok, residual = obs.invariant_projection_check(prod)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert ok, residual
        # a merge of all the terms of a move at once peaks at 7.3 MiB
        assert peak < 4.5 * 2 ** 20
        pres = gg.presentation(st_)
        moved = alg.derivation(prod, pres.rotations[0])
        assert dict_max_coeff_diff(dict(moved.terms), dict_derivation(
            dict(prod.terms), species_on_data(st_, pres.generators[0]))) < 1e-13
