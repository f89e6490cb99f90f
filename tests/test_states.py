"""Quasifree states: kernel invariants, Wick evaluation, pullbacks."""
import numpy as np
import pytest

from lcqft import algebra as alg
from lcqft import dynamics as dyn
from lcqft import gauge as gg
from lcqft import states as stt
from lcqft import suites
from lcqft.errors import DegreeCapExceeded
from lcqft.kinematics import solution_map
from lcqft.spacetime import translation

from oracles import (circulant_vacuum_mu, degree1_vector, dict_substitute,
                     hafnian, lift, random_data, reduction_evaluate, sigma,
                     species_on_data)


class TestKernel:
    def test_imaginary_part_is_half_sigma(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        W = vac.two_point
        for _ in range(20):
            a, b = rng.standard_normal((2, mixed_spacetime.data_dim))
            w_ab = a @ W @ b
            assert abs(w_ab.imag - 0.5 * sigma(a, b)) < 1e-11

    def test_positive_semidefinite(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        W = vac.two_point
        for _ in range(50):
            phi = random_data(rng, mixed_spacetime)
            val = phi.conj() @ W @ phi
            assert val.real >= -1e-10
            assert abs(val.imag) < 1e-10

    def test_spatial_translation_invariance_exact(self, mixed_spacetime):
        vac = stt.vacuum_state(mixed_spacetime)
        W = vac.two_point
        for dx in (1, 3, 5):
            T = solution_map(translation(mixed_spacetime, 0, dx))
            assert np.max(np.abs(T.T @ W @ T - W)) == 0.0

    def test_time_translation_invariance_off_zero_mode(self, mixed_spacetime):
        # deviation of the kernel under time translation is confined to the
        # massless zero-mode coordinates (the free particle has no invariant
        # Gaussian); everything else is exactly invariant
        st_ = mixed_spacetime
        S, N = st_.n_species, st_.n_sites
        vac = stt.vacuum_state(st_)
        W = vac.two_point
        P = np.zeros((st_.data_dim, st_.data_dim))
        for base in (0, S * N):   # species 0 is the massless one, q and p
            P[base:base + N, base:base + N] = 1.0 / N
        Q = np.eye(st_.data_dim) - P
        for dt_ in (1, 3):
            T = solution_map(translation(mixed_spacetime, dt_, 0))
            dev = T.T @ W @ T - W
            assert np.max(np.abs(Q @ dev @ Q)) < 1e-11
            assert np.max(np.abs(dev)) > 1e-3  # zero mode genuinely drifts

    def test_evolution_invariance_massive(self, massive_spacetime):
        # frequencies from the exact one-step diagonalization: invariance at
        # machine precision
        vac = stt.vacuum_state(massive_spacetime)
        U = dyn.one_step_matrix(massive_spacetime)
        W = vac.two_point
        assert np.max(np.abs(U.T @ W @ U - W)) < 1e-13

    @pytest.mark.parametrize("spec, n", [("0:1", 7), ("1:2", 8),
                                         ("0:1,1:2", 8), ("1:2,2:3", 16),
                                         ("0:2,1:1", 9), ("1:5", 32)])
    def test_mode_blocks_give_the_circulant_mu_bitwise(self, spec, n):
        # the mode-block builder shared with the classifier against the
        # species-by-species circulants
        from lcqft.spacetime import LatticeSpacetime, MassSpectrum
        st_ = LatticeSpacetime(n, 8, 0.5, MassSpectrum.parse(spec))
        mu = stt.vacuum_state(st_).mu
        want = circulant_vacuum_mu(st_)
        assert mu.shape == want.shape
        assert np.array_equal(mu.view(np.int64), want.view(np.int64))

    def test_massless_flagged(self, mixed_spacetime, massive_spacetime):
        assert "massless-reference" in stt.vacuum_state(mixed_spacetime).flags
        assert stt.vacuum_state(massive_spacetime).flags == ()

    def test_unstable_mode_rejected(self):
        from lcqft.spacetime import LatticeSpacetime, MassSpectrum
        from lcqft.errors import LcqftError
        with pytest.raises(LcqftError):
            stt.vacuum_state(
                LatticeSpacetime(8, 8, 0.9, MassSpectrum.parse("4.5:1")))


class TestKernelAgainstEvaluator:
    # the state suite reads positivity and invariance off the kernel W; these
    # tie W to what the Wick evaluator computes
    def test_square_of_degree_one_element(self, mixed_spacetime, rng):
        # omega(a* a) = v^H W v for a = sum_i v_i e_i
        vac = stt.vacuum_state(mixed_spacetime)
        W = vac.two_point
        for _ in range(30):
            a = alg.fields(mixed_spacetime, random_data(rng, mixed_spacetime))
            v = degree1_vector(a)
            expect = v.conj() @ W @ v
            assert abs(vac.evaluate(a.star() * a) - expect) \
                <= 1e-12 * abs(expect)

    def test_product_of_two_fields(self, mixed_spacetime, rng):
        # omega(Phi(phi) Phi(psi)) = phi^T W psi
        vac = stt.vacuum_state(mixed_spacetime)
        W = vac.two_point
        for _ in range(30):
            phi, psi = random_data(rng, mixed_spacetime, 2)
            expect = phi @ W @ psi
            value = vac.evaluate(alg.fields(mixed_spacetime, phi)
                                 * alg.fields(mixed_spacetime, psi))
            assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect))


class TestStateSuiteMutants:
    @staticmethod
    def _run(monkeypatch, scale):
        # the state suite on `1:2` with the vacuum's mu rescaled by `scale`
        vacuum = stt.vacuum_state

        def mutant(st_):
            vac = vacuum(st_)
            return stt.QuasifreeState(st_, scale(vac.mu, st_), vac.flags)

        monkeypatch.setattr(suites.stt, "vacuum_state", mutant)
        return suites.state_suite(suites.RunConfig(spectrum="1:2", seed=7))

    def test_uncertainty_violation_fails_positivity(self, monkeypatch):
        result = self._run(monkeypatch, lambda mu, st_: 0.4 * mu)
        assert result["status"] == "fail"
        assert result["residuals"]["positivity_defect"] > 1e-9

    def test_unequal_species_fails_invariance(self, monkeypatch):
        # scaling one species of the two-species block keeps W >= 0
        def scale(mu, st_):
            S, N = st_.n_species, st_.n_sites
            idx = np.r_[0:N, S * N:S * N + N]
            mu = mu.copy()
            mu[np.ix_(idx, idx)] *= 1.1
            return mu

        result = self._run(monkeypatch, scale)
        assert result["status"] == "fail"
        assert result["residuals"]["positivity_defect"] <= 1e-9
        assert result["residuals"]["vacuum_gauge_invariance"] > 1e-10


class TestEvaluate:
    def test_normalization(self, mixed_spacetime):
        vac = stt.vacuum_state(mixed_spacetime)
        assert vac.evaluate(alg.one(mixed_spacetime)) == 1.0

    def test_ccr_through_state(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        for _ in range(20):
            a, b = random_data(rng, mixed_spacetime, 2)
            fa, fb = alg.fields(mixed_spacetime, [a, b]).elements()
            diff = vac.evaluate(fa * fb) - vac.evaluate(fb * fa)
            assert abs(diff - 1j * sigma(a, b)) < 1e-11 * max(
                1.0, np.linalg.norm(a) * np.linalg.norm(b))

    def test_one_point_vanishes(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        phi = random_data(rng, mixed_spacetime)
        assert abs(vac.evaluate(alg.fields(mixed_spacetime, phi))) == 0.0

    def test_odd_monomials_vanish(self, massive_spacetime, rng):
        vac = stt.vacuum_state(massive_spacetime)
        idx = tuple(sorted(rng.integers(0, massive_spacetime.data_dim, 3)))
        assert vac.evaluate(alg.monomial(massive_spacetime, idx)) == 0.0

    def test_quartic_power_rule(self, massive_spacetime, rng):
        # omega(Phi(phi)^4) = 3 W(phi, phi)^2 for real phi (3 pairings)
        vac = stt.vacuum_state(massive_spacetime)
        phi = rng.standard_normal(massive_spacetime.data_dim)
        f = alg.fields(massive_spacetime, phi)
        quartic = f * f * f * f
        W = phi @ vac.two_point @ phi
        val = vac.evaluate(quartic)
        assert abs(val - 3 * W ** 2) < 1e-10 * max(1.0, abs(W) ** 2)

    def test_agrees_with_reduction_oracle(self, mixed_spacetime, rng):
        # hafnian evaluation vs commutator-reduction to ordered products
        vac = stt.vacuum_state(mixed_spacetime)
        W = vac.two_point
        for _ in range(20):
            a = alg.random_element(rng, mixed_spacetime, 4, 5)
            lhs = vac.evaluate(a)
            rhs = reduction_evaluate(a, W)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_agrees_with_per_monomial_hafnian(self, mixed_spacetime, rng):
        # the array pass over all pairings vs the recursive hafnian of each
        # monomial, for the vacuum and for a shifted (pulled-back) vacuum
        st_ = mixed_spacetime
        vac = stt.vacuum_state(st_)
        g = gg.random_gauge(rng, st_.spectrum)  # with a shift
        act = gg.QuantumAction(g, st_)
        for degree in range(7):
            for _ in range(5):
                a = alg.random_element(rng, st_, degree, 8)
                terms = dict(a.terms)
                expect = sum((c * hafnian(vac.mu, idx)
                              for idx, c in terms.items()), 0j)
                assert abs(vac.evaluate(a) - expect) \
                    <= 1e-12 * max(1.0, abs(expect))
                moved = dict_substitute(
                    terms, species_on_data(st_, g.R),
                    g.ell @ gg.shift_functionals(st_))
                expect = sum((c * hafnian(vac.mu, idx)
                              for idx, c in moved.items()), 0j)
                assert abs(vac.evaluate(act(a)) - expect) \
                    <= 1e-12 * max(1.0, abs(expect))

    def test_degree_cap(self, massive_spacetime):
        vac = stt.vacuum_state(massive_spacetime)
        big = alg.monomial(massive_spacetime, tuple([0] * 9))
        with pytest.raises(DegreeCapExceeded):
            vac.evaluate(big)

    def test_pairing_tables_are_shared_and_read_only(self, mixed_spacetime,
                                                     massive_spacetime, rng):
        # one table per slot count for every state, and no caller can
        # write into it
        for D in range(9):
            pairs, table = stt._pairing_table(D)
            assert stt._pairing_table(D)[0] is pairs
            assert not pairs.flags.writeable and not table.flags.writeable
        for st_ in (mixed_spacetime, massive_spacetime):
            vac = stt.vacuum_state(st_)
            assert not hasattr(vac, "_pairing_tables")
            a = alg.random_element(rng, st_, 4, 3)
            assert vac.evaluate(a) == vac.evaluate(a)

    def test_positivity(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        for _ in range(500):
            a = alg.random_element(rng, mixed_spacetime, 2, 3)
            val = vac.evaluate(a.star() * a)
            assert val.real >= -1e-9
            assert abs(val.imag) < 1e-9


class TestPullBack:
    def test_identity(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        spectrum = mixed_spacetime.spectrum
        g = gg.GaugeElement(spectrum, np.eye(spectrum.total_species),
                            np.zeros(1))
        act = gg.QuantumAction(g, mixed_spacetime)
        for _ in range(20):
            a = alg.random_element(rng, mixed_spacetime, 3, 5)
            assert abs(vac.evaluate(act(a)) - vac.evaluate(a)) < 1e-12

    def test_translation_invariance_preserved(self, mixed_spacetime,
                                              massive_spacetime, rng):
        # pulling back a translation-invariant state by a gauge action keeps
        # translation invariance (invariant-state lemma, with the spacetime
        # symmetry realized by lattice translations): spatial translations on
        # the mixed spectrum, full spacetime translations on the massive one
        cases = [(mixed_spacetime, [(0, 2), (0, 5)]),
                 (massive_spacetime, [(0, 2), (1, 3), (2, 0)])]
        for st_, shifts in cases:
            vac = stt.vacuum_state(st_)
            g = gg.GaugeElement(
                st_.spectrum, gg.random_gauge(rng, st_.spectrum).R,
                np.zeros(st_.spectrum.massless_count))
            act = gg.QuantumAction(g, st_)
            for (dt_, dx) in shifts:
                T = lift(st_, solution_map(translation(st_, dt_, dx)))
                for _ in range(10):
                    a = alg.random_element(rng, st_, 2, 4)
                    assert abs(vac.evaluate(act(T(a)))
                               - vac.evaluate(act(a))) < 1e-10

    def test_vacuum_invariant_under_rotations(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        spectrum = mixed_spacetime.spectrum
        worst = 0.0
        for _ in range(200):
            g = gg.GaugeElement(
                spectrum, gg.random_gauge(rng, spectrum).R,
                np.zeros(spectrum.massless_count))
            act = gg.QuantumAction(g, mixed_spacetime)
            a = alg.random_element(rng, mixed_spacetime, 3, 3)
            worst = max(worst, abs(vac.evaluate(act(a)) - vac.evaluate(a)))
        assert worst < 1e-10

    def test_one_point_after_shift(self, mixed_spacetime, rng):
        # the shifted state's one-point function is the shift functional
        vac = stt.vacuum_state(mixed_spacetime)
        spectrum = mixed_spacetime.spectrum
        for _ in range(50):
            ell = rng.standard_normal(spectrum.massless_count)
            g = gg.GaugeElement(spectrum, np.eye(spectrum.total_species), ell)
            act = gg.QuantumAction(g, mixed_spacetime)
            phi = random_data(rng, mixed_spacetime)
            assert abs(vac.evaluate(act(alg.fields(mixed_spacetime, phi)))
                       - ell @ gg.shift_functionals(mixed_spacetime) @ phi) \
                < 1e-10

    def test_positivity_preserved(self, mixed_spacetime, rng):
        vac = stt.vacuum_state(mixed_spacetime)
        g = gg.random_gauge(rng, mixed_spacetime.spectrum)
        act = gg.QuantumAction(g, mixed_spacetime)
        assert abs(vac.evaluate(act(alg.one(mixed_spacetime))) - 1) < 1e-12
        for _ in range(50):
            a = alg.random_element(rng, mixed_spacetime, 2, 3)
            assert vac.evaluate(act(a.star() * a)).real >= -1e-9
