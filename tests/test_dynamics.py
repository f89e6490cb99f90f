"""Classical dynamics: stepper, symplectic form, propagator, null energy,
relative Cauchy evolution and its derivative pairing."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from lcqft import dynamics as dyn
from lcqft.errors import SpacetimeMismatch, SupportViolation
from lcqft.gauge import classical_action, random_gauge
from lcqft.kinematics import solution_map
from lcqft.spacetime import (LatticeSpacetime, MassSpectrum, cauchy_extension,
                             translation)

from oracles import (advanced_solution_at_zero, delta_test_function,
                     discrete_kg_operator, mode_matrix, on_vectors, random_data,
                     richardson_rce_derivative, rolled_null_energy_grids,
                     sigma, step, trajectory)


def _translate(st_, vec, dt_, dx):
    """(T phi)(t, x) = phi(t - dt_, x - dx), through the solution map of the
    translation morphism."""
    return solution_map(translation(st_, dt_, dx)) @ vec


def _propagate(f):
    """E f of one test function, as a data vector."""
    return np.concatenate(dyn.propagate_sources(f.spacetime, f.values)).ravel()


def _rce(vec, pert):
    """rce[v] of data vectors (..., dim)."""
    return on_vectors(pert.spacetime,
                      lambda q, p: dyn.rce_data(q, p, pert), vec)


def _unit_constant(st_, scale=1.0):
    """The constant solution q = scale, p = 0 in species 0."""
    vec = np.zeros(st_.data_dim, complex)
    vec[:st_.n_sites] = scale
    return vec


class TestStep:
    def test_zero_data(self, massive_spacetime):
        out = step(massive_spacetime, np.zeros(massive_spacetime.data_dim))
        assert not out.any()

    def test_constant_massless_data_unchanged(self, mixed_spacetime):
        vec = _unit_constant(mixed_spacetime, 3.5)
        assert np.array_equal(step(mixed_spacetime, vec), vec)

    def test_exactly_invertible(self, mixed_spacetime, rng):
        x = random_data(rng, mixed_spacetime)
        back = step(mixed_spacetime, step(mixed_spacetime, x), "backward")
        assert np.max(np.abs(back - x)) < 1e-14

    def test_single_mode_matches_exact_mode_map(self, massive_spacetime):
        # one-step scaling of a Fourier mode equals the 2x2 mode matrix,
        # whose cos(Omega) agrees with cos(w dt) to O(dt^4 w^4 / 24)
        st_ = massive_spacetime
        N, dt = st_.n_sites, st_.dt
        for k in (0, 1, 3):
            z = np.exp(2j * np.pi * k * np.arange(N) / N)
            q = np.zeros((2, N), complex)
            p = np.zeros((2, N), complex)
            q[0] = 1.25 * z
            p[0] = (0.5 - 0.25j) * z
            out_q, out_p = dyn.evolve_data(q, p, st_, 0, 1)
            qe, pe = mode_matrix(1.0, k, N, dt) @ np.array([1.25, 0.5 - 0.25j])
            assert np.max(np.abs(out_q[0] - qe * z)) < 1e-13
            assert np.max(np.abs(out_p[0] - pe * z)) < 1e-13
            w2 = 1.0 + 4 * np.sin(np.pi * k / N) ** 2
            cos_step = 1 - dt * dt * w2 / 2
            assert abs(cos_step - np.cos(np.sqrt(w2) * dt)) \
                <= 1.1 * (dt ** 4) * w2 ** 2 / 24

    SPECTRA = ["1:2,2:3", "0:1,1:2", "1:5", "0:2"]

    @staticmethod
    def _stepper_mode_maps(st_):
        """The one-step map of each block on each Fourier mode, read off one
        step of the stepper: (B, N, 2, 2) complex."""
        N, S = st_.n_sites, st_.n_species
        modes = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)
        out = np.empty((len(st_.spectrum.entries), N, 2, 2), complex)
        for b, (_, block) in enumerate(st_.spectrum.block_slices()):
            for col in range(2):
                data = np.zeros((2, N, S, N), complex)
                data[col, :, block.start] = modes
                q, p = dyn.evolve_data(data[0], data[1], st_, 0, 1)
                for row, x in enumerate((q, p)):
                    out[b, :, row, col] = np.sum(
                        x[:, block.start] * modes.conj(), axis=-1) / N
        return out

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("spec", SPECTRA)
    def test_mode_maps_match_the_stepper(self, spec, n):
        st_ = LatticeSpacetime(n, 8, 0.5, MassSpectrum.parse(spec))
        assert np.max(np.abs(
            dyn.mode_maps(st_) - self._stepper_mode_maps(st_))) <= 1e-15

    def test_mode_map_without_the_quartic_factor_fails(self):
        # the p-q entry -h w^2 without (1 - h^2 w^2 / 4) is the mutant
        st_ = LatticeSpacetime(8, 8, 0.5, MassSpectrum.parse("1:2,2:3"))
        mutant = dyn.mode_maps(st_).copy()
        mutant[..., 1, 0] = -st_.dt * st_.dispersion
        assert np.max(np.abs(mutant - self._stepper_mode_maps(st_))) > 1e-3

    @pytest.mark.parametrize("t_from, t_to", [(0, 16), (16, 0), (3, 9), (5, 5)])
    @pytest.mark.parametrize("shape", [(), (12, 2)])
    def test_trajectory_equals_per_slice_evolutions_bitwise(self, t_from, t_to,
                                                            shape, rng):
        # the slices written in place are the bits of evolving to each slice
        st_ = LatticeSpacetime(16, 16, 0.5, MassSpectrum.parse("1:2,2:3"))
        q, p = dyn.data_from_vec(st_, rng.standard_normal(
            shape + (st_.data_dim,)) + 1j * rng.standard_normal(
            shape + (st_.data_dim,)))
        q_traj, p_traj = dyn.evolve_data(q, p, st_, t_from, t_to,
                                         trajectory=True)
        step_ = 1 if t_to >= t_from else -1
        slices = [dyn.evolve_data(q, p, st_, t_from, t)
                  for t in range(t_from, t_to + step_, step_)]
        assert q_traj.shape == (abs(t_to - t_from) + 1, *shape, 5, 16)
        for got, want in ((q_traj, [s[0] for s in slices]),
                          (p_traj, [s[1] for s in slices])):
            assert np.array_equal(got.view(np.int64),
                                  np.stack(want).view(np.int64))

    def test_sigma_preserved_exactly(self, mixed_spacetime, rng):
        a, b = random_data(rng, mixed_spacetime, 2, 20)
        drift = sigma(step(mixed_spacetime, a), step(mixed_spacetime, b)) \
            - sigma(a, b)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        assert np.all(np.abs(drift) < 1e-12 * np.maximum(1.0, scale))

    @pytest.mark.parametrize("n_sites", [8, 9])
    def test_acceleration_equals_rolled_stencil(self, n_sites, rng):
        # the neighbour-index stencil is bit for bit the np.roll stencil, on
        # batched slices and for both perturbation kinds
        st_ = LatticeSpacetime(n_sites, 16, 0.5, MassSpectrum.parse("0:1,1:2"))
        q = rng.standard_normal((3, 3, n_sites)) \
            + 1j * rng.standard_normal((3, 3, n_sites))
        v = rng.standard_normal(n_sites)
        lap = np.roll(q, -1, axis=-1) - 2.0 * q + np.roll(q, 1, axis=-1)
        m2 = np.array([0.0, 1.0, 1.0])[:, None]
        flux = (1.0 + v) * (np.roll(q, -1, axis=-1) - q)
        grad = flux - np.roll(flux, 1, axis=-1)
        assert np.array_equal(dyn._accel(q, st_, None, "mass"), lap - m2 * q)
        assert np.array_equal(dyn._accel(q, st_, v, "mass"),
                              lap - m2 * q - v * q)
        assert np.array_equal(dyn._accel(q, st_, v, "gradient"), grad - m2 * q)

    def test_gamma_commutes_with_step(self, mixed_spacetime, rng):
        x = random_data(rng, mixed_spacetime)
        assert np.array_equal(step(mixed_spacetime, x.conj()),
                              step(mixed_spacetime, x).conj())


class TestSymplecticForm:
    """sigma(a, b) = a @ J @ b with J = `symplectic_matrix`, against the
    channel-by-channel sum of the oracle."""

    def test_antisymmetry_on_equal_arguments(self, massive_spacetime, rng):
        J = dyn.symplectic_matrix(massive_spacetime)
        assert np.array_equal(J.T, -J)
        a = random_data(rng, massive_spacetime)
        assert sigma(a, a) == 0

    def test_canonical_pair(self, massive_spacetime):
        st_ = massive_spacetime
        eye = np.eye(st_.data_dim)
        a = eye[0]                                # q delta
        b = eye[st_.n_species * st_.n_sites]      # p delta
        assert a @ dyn.symplectic_matrix(st_) @ b == 1.0

    def test_cross_species_vanishes(self, massive_spacetime, rng):
        st_ = massive_spacetime
        a, b = np.zeros((2, 2, 2, st_.n_sites), complex)  # (c, s, x) each
        a[:, 0] = rng.standard_normal((2, st_.n_sites))
        b[:, 1] = rng.standard_normal((2, st_.n_sites))
        assert a.ravel() @ dyn.symplectic_matrix(st_) @ b.ravel() == 0

    def test_conjugation_relation(self, massive_spacetime, rng):
        J = dyn.symplectic_matrix(massive_spacetime)
        a, b = random_data(rng, massive_spacetime, 2)
        assert abs(a.conj() @ J @ b.conj() - np.conj(a @ J @ b)) < 1e-12
        assert abs(a @ J @ b - sigma(a, b)) < 1e-12

    @given(st.integers(0, 31), st.integers(0, 31))
    def test_basis_antisymmetry(self, i, j):
        spacetime = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
        J, eye = dyn.symplectic_matrix(spacetime), np.eye(spacetime.data_dim)
        assert eye[i] @ J @ eye[j] == -(eye[j] @ J @ eye[i]) \
            == sigma(eye[i], eye[j])


class TestPropagator:
    def test_kernel_contains_kg_image(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        S, T1, N = st_.n_species, st_.n_slices, st_.n_sites
        g = np.zeros((S, T1, N), dtype=complex)
        g[:, 3:T1 - 3] = rng.standard_normal((S, T1 - 6, N)) \
            + 1j * rng.standard_normal((S, T1 - 6, N))
        f = dyn.TestFunction(st_, discrete_kg_operator(g, st_))
        assert np.linalg.norm(_propagate(f)) < 1e-10

    def test_point_source_equals_ret_minus_adv(self, mixed_spacetime):
        # independent oracle: advanced solution by backward integration;
        # retarded data at t=0 vanishes, so E f = -adv(0)
        st_ = mixed_spacetime
        f = delta_test_function(st_, 1, 5, 2)
        q, p = dyn.propagate_sources(st_, f.values)
        qa, pa = advanced_solution_at_zero(f.values, st_)
        assert np.max(np.abs(q + qa)) < 1e-11
        assert np.max(np.abs(p + pa)) < 1e-11

    def test_linearity_exact(self, mixed_spacetime):
        st_ = mixed_spacetime
        f1 = delta_test_function(st_, 0, 4, 1)
        f2 = delta_test_function(st_, 2, 7, 6)
        lam = 2.5j - 1.0
        lhs = _propagate(dyn.TestFunction(st_, f1.values + lam * f2.values))
        rhs = _propagate(f1) + lam * _propagate(f2)
        assert np.array_equal(lhs, rhs)

    def test_gamma_commutes_with_conjugated_source(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        S, T1, N = st_.n_species, st_.n_slices, st_.n_sites
        vals = np.zeros((S, T1, N), dtype=complex)
        vals[:, 2:T1 - 4] = rng.standard_normal((S, T1 - 6, N)) \
            + 1j * rng.standard_normal((S, T1 - 6, N))
        lhs = _propagate(dyn.TestFunction(st_, vals.conj()))
        rhs = _propagate(dyn.TestFunction(st_, vals)).conj()
        assert np.array_equal(lhs, rhs)

    def test_surjective_at_desk_scale(self, mixed_spacetime):
        st_ = mixed_spacetime
        vecs = []
        for s in range(st_.n_species):
            for t in (4, 5):
                for x in range(st_.n_sites):
                    f = delta_test_function(st_, s, t, x)
                    vecs.append(_propagate(f))
                    vecs.append(_propagate(dyn.TestFunction(st_, 1j * f.values)))
        rank = np.linalg.matrix_rank(np.array(vecs), tol=1e-10)
        assert rank == st_.data_dim

    def test_pairing_with_solutions(self, mixed_spacetime, rng):
        # frozen identity: sigma(E delta_(s,t,x), psi) = -dt psi_s(t, x)
        st_ = mixed_spacetime
        psi = random_data(rng, st_)
        q_traj, _ = trajectory(st_, psi)
        for (s, t, x) in [(0, 3, 1), (1, 8, 4), (2, 12, 7)]:
            val = sigma(_propagate(delta_test_function(st_, s, t, x)), psi)
            assert abs(val + st_.dt * q_traj[t, s, x]) < 1e-11

    def test_support_violation(self, mixed_spacetime):
        st_ = mixed_spacetime
        vals = np.zeros((st_.n_species, st_.n_slices, st_.n_sites),
                        dtype=complex)
        vals[0, 0, 0] = 1.0
        with pytest.raises(SupportViolation):
            dyn.TestFunction(st_, vals)


def _grid(st_, vec):
    return dyn.null_energy_grids(st_, *dyn.data_from_vec(st_, vec))


class TestNullEnergy:
    def test_zero_solution(self, mixed_spacetime):
        zero = np.zeros(mixed_spacetime.data_dim)
        assert np.max(_grid(mixed_spacetime, zero)) == 0.0

    @pytest.mark.parametrize("spec, n", [("1:2", 8), ("0:1,1:2", 9),
                                         ("1:5", 32)])
    def test_grids_equal_the_rolled_form_bitwise(self, spec, n, rng):
        # neighbours by index and both signs written into one array give the
        # bits of np.roll and np.stack, on one solution and on a batch
        st_ = LatticeSpacetime(n, 6, 0.5, MassSpectrum.parse(spec))
        for shape in ((), (3, 2)):
            q, p = dyn.data_from_vec(st_, rng.standard_normal(
                shape + (st_.data_dim,)) + 1j * rng.standard_normal(
                shape + (st_.data_dim,)))
            got = dyn.null_energy_grids(st_, q, p)
            want = rolled_null_energy_grids(st_, q, p)
            assert got.shape == want.shape == (st_.n_slices, *shape, n, 2)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_grids_equal_the_rolled_form_at_the_soundness_batch(self, rng):
        # the batch shape of classify's soundness samples on 1:2,2:3: three
        # samples of four generators, each a pair (a, S a)
        st_ = LatticeSpacetime(16, 16, 0.5, MassSpectrum.parse("1:2,2:3"))
        q, p = dyn.data_from_vec(st_, rng.standard_normal((12, 2, st_.data_dim)))
        got = dyn.null_energy_grids(st_, q, p)
        want = rolled_null_energy_grids(st_, q, p)
        assert got.shape == (st_.n_slices, 12, 2, 16, 2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_block_rotation_invariance(self, two_block_spacetime, rng):
        st_ = two_block_spacetime
        x = random_data(rng, st_)
        g = random_gauge(rng, st_.spectrum)
        g1 = _grid(st_, x)
        g2 = _grid(st_, classical_action(g, st_, x))
        assert np.max(np.abs(g1 - g2)) < 1e-12 * max(1.0, np.max(g1))

    def test_right_mover_one_contraction_vanishes(self):
        # lattice right-mover: the small null contraction decays like N^-6
        # (third-order dispersion error, squared); bound fit from measurement
        results = {}
        for N in (16, 32):
            st_ = LatticeSpacetime(N, 8, 0.5, MassSpectrum.parse("0:1"))
            theta = 2 * np.pi / N
            x = np.arange(N)
            grid = _grid(st_, np.concatenate([np.cos(theta * x),
                                              theta * np.sin(theta * x)]))
            small = float(np.max(grid[..., 0]))
            large = float(np.max(grid[..., 1]))
            assert large > 0.1
            assert small <= 2.0 * 1.7e3 * N ** (-6)
            results[N] = small
        assert results[16] / results[32] > 40  # measured order ~ N^-6


def _perturbation(rng, st_, kind="mass"):
    v = np.zeros((st_.n_slices, st_.n_sites))
    v[5:9, 2:5] = rng.standard_normal((4, 3))
    return dyn.Perturbation(st_, v, kind=kind)


class TestRelativeCauchyEvolution:
    def test_zero_perturbation_is_identity(self, mixed_spacetime, rng):
        pert = dyn.Perturbation(
            mixed_spacetime,
            np.zeros((mixed_spacetime.n_slices, mixed_spacetime.n_sites)))
        x = random_data(rng, mixed_spacetime)
        out = _rce(x, pert)
        assert np.max(np.abs(out - x)) < 1e-12 * np.linalg.norm(x)

    def test_symplectic_on_random_pairs(self, mixed_spacetime, rng):
        pert = _perturbation(rng, mixed_spacetime)
        a, b = random_data(rng, mixed_spacetime, 2, 100)
        drift = sigma(_rce(a, pert), _rce(b, pert)) - sigma(a, b)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        assert np.all(np.abs(drift) < 1e-10 * np.maximum(1.0, scale))

    def test_causally_disjoint_data_unchanged(self, rng):
        st_ = LatticeSpacetime(20, 12, 0.5, MassSpectrum.parse("1:2"))
        v = np.zeros((st_.n_slices, 20))
        v[4:7, 0:2] = 1.3
        pert = dyn.Perturbation(st_, v)
        q = np.zeros((2, 20), complex)
        p = np.zeros((2, 20), complex)
        q[:, 9:12] = rng.standard_normal((2, 3))
        p[:, 9:12] = rng.standard_normal((2, 3))
        out = dyn.rce_data(q, p, pert)
        assert max(np.max(np.abs(new - old))
                   for new, old in zip(out, (q, p))) < 1e-10

    def test_gamma_commutes(self, mixed_spacetime, rng):
        pert = _perturbation(rng, mixed_spacetime)
        x = random_data(rng, mixed_spacetime)
        assert np.array_equal(_rce(x.conj(), pert), _rce(x, pert).conj())

    def test_gradient_kind_fixes_constants(self, mixed_spacetime, rng):
        pert = _perturbation(rng, mixed_spacetime, kind="gradient")
        chi = _unit_constant(mixed_spacetime)
        assert np.max(np.abs(_rce(chi, pert) - chi)) == 0.0

    def test_spacetime_mismatch(self, massive_spacetime, mixed_spacetime,
                                rng):
        # the `Solution` entry point evolves like rce_data on its own
        # spacetime and refuses a perturbation of another
        pert = _perturbation(rng, mixed_spacetime)
        x = random_data(rng, mixed_spacetime)
        out = dyn.relative_cauchy_evolution(
            dyn.solution_from_vec(mixed_spacetime, x), pert)
        assert np.array_equal(out.vec(), _rce(x, pert))
        with pytest.raises(SpacetimeMismatch):
            dyn.relative_cauchy_evolution(dyn.solution_from_vec(
                massive_spacetime, np.zeros(massive_spacetime.data_dim)), pert)

    def test_clean_slices_required(self, mixed_spacetime):
        v = np.zeros((mixed_spacetime.n_slices, mixed_spacetime.n_sites))
        v[0, 0] = 1.0
        with pytest.raises(SupportViolation):
            dyn.Perturbation(mixed_spacetime, v)


def _pairing(pert, a, b):
    """sigma(F[v] a, b) of data vectors, through the tangent data of rce[s v]
    at s = 0."""
    return sigma(on_vectors(pert.spacetime, lambda q, p: dyn.rce_tangent_data(
        pert, q, p), a), b)


class TestRceDerivative:
    def test_zero_perturbation(self, massive_spacetime, rng):
        pert = dyn.Perturbation(
            massive_spacetime,
            np.zeros((massive_spacetime.n_slices, massive_spacetime.n_sites)))
        a, b = random_data(rng, massive_spacetime, 2)
        assert _pairing(pert, a, b) == 0.0

    def test_skew_adjointness(self, mixed_spacetime, rng):
        # differentiating sigma(rce a, rce b) = sigma(a, b) gives
        # sigma(Fa, b) = -sigma(a, Fb), i.e. the pairing is SYMMETRIC in (a,b)
        pert = _perturbation(rng, mixed_spacetime)
        a, b = random_data(rng, mixed_spacetime, 2, 5)
        assert np.all(np.abs(_pairing(pert, a, b) - _pairing(pert, b, a))
                      < 1e-8)

    def test_derivative_pairing_is_nonzero(self, mixed_spacetime, rng):
        pert = _perturbation(rng, mixed_spacetime)
        a = random_data(rng, mixed_spacetime)
        assert abs(_pairing(pert, a, a.conj())) > 1e-3

    def test_local_density_identity(self, mixed_spacetime, rng):
        # frozen resolution of the density question: on free trajectories the
        # pairing equals dt * sum_{t,x} v(t,x) D q_a(t,x) D q_b(t,x), with D
        # the identity for the mass coupling and the forward site difference
        # (the edge of weight 1 + v) for the gradient coupling
        def forward_difference(q):
            return np.roll(q, -1, axis=-1) - q

        for kind, D in (("mass", lambda q: q),
                        ("gradient", forward_difference)):
            pert = _perturbation(rng, mixed_spacetime, kind=kind)
            for _ in range(3):
                a, b = random_data(rng, mixed_spacetime, 2)
                qa, _ = trajectory(mixed_spacetime, a)
                qb, _ = trajectory(mixed_spacetime, b)
                expected = mixed_spacetime.dt * np.sum(
                    pert.v[:, None, :] * D(qa) * D(qb))
                assert abs(_pairing(pert, a, b) - expected) \
                    < 1e-12 * abs(expected), kind

    def test_matches_richardson_oracle(self, mixed_spacetime, rng):
        # the tangent-dynamics value against finite differences of full
        # relative Cauchy evolutions (truncation error about 5e-12 here)
        for kind in ("mass", "gradient"):
            pert = _perturbation(rng, mixed_spacetime, kind=kind)
            for _ in range(3):
                a, b = random_data(rng, mixed_spacetime, 2)
                exact = _pairing(pert, a, b)
                assert abs(exact - richardson_rce_derivative(pert, a, b)) \
                    < 1e-10 * max(1.0, abs(exact)), kind

    def test_matrix_pairs_basis_vectors_like_the_pairing(self,
                                                         mixed_spacetime,
                                                         rng):
        # sigma(F e_i, e_j) off the dense tangent map, against the pairing
        # of one pair (the `Solution` entry point) and against finite
        # differences of full evolutions
        st_ = mixed_spacetime
        J = dyn.symplectic_matrix(st_)
        for kind in ("mass", "gradient"):
            pert = _perturbation(rng, st_, kind=kind)
            F = dyn.rce_derivative_matrix(pert)
            biggest = 0.0
            for i, j in rng.integers(0, st_.data_dim, size=(8, 2)):
                pairing = F[:, i] @ J[:, j]
                a, b = np.eye(st_.data_dim)[[i, j]]
                scale = max(1.0, abs(pairing))
                assert abs(dyn.rce_derivative(
                    pert, *(dyn.solution_from_vec(st_, x) for x in (a, b)))
                    - pairing) <= 1e-14 * scale, kind
                assert abs(richardson_rce_derivative(pert, a, b) - pairing) \
                    < 1e-10 * scale, kind
                biggest = max(biggest, abs(pairing))
            # the skew-adjoint identity the rce suite reads off F
            assert np.max(np.abs(F.T @ J + J @ F)) < 1e-13, kind
            assert biggest > 1e-3, kind

    def test_set_pairing_with_conjugate(self, mixed_spacetime, rng):
        # sigma(F[v] phi, conj phi) = dt sum v |phi|^2 >= 0 for v >= 0
        v = np.zeros((mixed_spacetime.n_slices, mixed_spacetime.n_sites))
        v[5:9, 2:5] = np.abs(rng.standard_normal((4, 3)))
        pert = dyn.Perturbation(mixed_spacetime, v)
        phi = random_data(rng, mixed_spacetime)
        val = _pairing(pert, phi, phi.conj())
        assert abs(val.imag) < 1e-8
        assert val.real > 0


class TestTimesliceAndTranslations:
    def test_cauchy_extension_is_isomorphism(self):
        small = LatticeSpacetime(8, 6, 0.5, MassSpectrum.parse("1:2"))
        big = LatticeSpacetime(8, 16, 0.5, MassSpectrum.parse("1:2"))
        M = solution_map(cauchy_extension(small, big))
        assert np.linalg.matrix_rank(M) == small.data_dim

    def test_translations_preserve_sigma(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        a, b = random_data(rng, st_, 2)
        s0 = sigma(a, b)
        for (dt_, dx) in [(0, 3), (2, 0), (5, 4), (-3, 1)]:
            s1 = sigma(_translate(st_, a, dt_, dx), _translate(st_, b, dt_, dx))
            assert abs(s1 - s0) < 1e-12 * max(1.0, abs(s0))

    def test_translation_functoriality(self, mixed_spacetime, rng):
        st_ = mixed_spacetime
        x = random_data(rng, st_)
        one_then_two = _translate(st_, _translate(st_, x, 1, 2), 2, 3)
        combined = _translate(st_, x, 3, 5)
        assert np.max(np.abs(one_then_two - combined)) < 1e-11


class TestRealArithmetic:
    # real data stay real: every stepper entry computes in the number type
    # of its inputs, and on complex-cast real input its real part is the
    # real call bit for bit and its imaginary part exactly zero
    @pytest.mark.parametrize("spec", ["1:2", "0:1,1:2", "1:2,2:3"])
    def test_real_data_give_float64(self, spec):
        st_ = LatticeSpacetime(8, 16, 0.37, MassSpectrum.parse(spec))
        rng = np.random.default_rng(3)
        S, T1, N = st_.n_species, st_.n_slices, st_.n_sites
        q, p = rng.standard_normal((2, 3, S, N))
        source = np.zeros((3, S, T1, N))
        source[..., 2:6, 1:4] = rng.standard_normal((3, S, 4, 3))
        pert = _perturbation(rng, st_)
        calls = {
            "evolve": lambda a, b, f: dyn.evolve_data(a, b, st_, 0, 7),
            "evolve_pert": lambda a, b, f: dyn.evolve_data(
                a, b, st_, 0, 7, pert=pert),
            "evolve_source": lambda a, b, f: dyn.evolve_data(
                a, b, st_, 0, 9, source=f),
            "trajectory": lambda a, b, f: dyn.evolve_data(
                a, b, st_, 0, -5, trajectory=True),
            "rce": lambda a, b, f: dyn.rce_data(a, b, pert),
            "rce_tangent": lambda a, b, f: dyn.rce_tangent_data(pert, a, b),
            "propagate": lambda a, b, f: dyn.propagate_sources(st_, f),
        }
        for name, call in calls.items():
            real = call(q, p, source)
            cast = call(q.astype(complex), p.astype(complex),
                        source.astype(complex))
            for r, c in zip(real, cast):
                assert r.dtype == np.float64, name
                assert c.dtype == np.complex128, name
                assert np.array_equal(r, c.real), name
                assert not np.any(c.imag), name
        builders = [dyn.one_step_matrix(st_), dyn.rce_matrix(pert),
                    dyn.rce_derivative_matrix(pert),
                    solution_map(translation(st_, 1, 2))]
        assert [M.dtype for M in builders] == [np.float64] * 4
