"""Independent oracles used by the test suite.

Everything here recomputes expected values by a route different from the
production code: brute-force enumeration for causal structure, separate
retarded/advanced source integration and the discrete Klein-Gordon operator
for the propagator, one propagation per point source for the local
algebras' solution spaces, the projector substitution for membership in a
local algebra, an index permutation for the site shift, textbook mode
matrices for the stepper, np.roll and np.stack for the null-energy grids, a
Richardson finite difference for the derivative of relative Cauchy
evolution, ordered Wick reduction and a per-monomial hafnian for state
evaluation, per-species circulants for the vacuum covariance, a
dict-walking kernel (partial matchings, slot-by-slot substitution) for the
CCR algebra, the classifier's system in
block-circulant coordinates over all momenta at once (one-step map read off
the stepper), a dense SVD nullspace of the evolution commutator for its
commutant, a dense two-sided commutant intersection at tiny sizes, one
dense SVD over the shift, the stepper and the null-derivative fields for
its affine functionals, null energies sampled on evolved solutions for its
constraints, its soundness check evolved one solution at a time, a dense
Taylor exponential, Kronecker products for the dense matrix of a gauge
species matrix, and an all-pairs compare of the mode frequencies for mass
collisions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lcqft._linalg import nullspace
from lcqft.classify import _apply, _mode_exp
from lcqft.dynamics import (
    Perturbation,
    data_from_vec,
    evolve_data,
    null_derivatives,
    one_step_matrix,
    propagate_sources,
    rce_data,
    symplectic_matrix,
)
from lcqft.gauge import block_reflections, rotation_generators, so_basis
from lcqft.spacetime import LatticeSpacetime, Region
from lcqft.states import mode_frequencies


# -- mode separation ----------------------------------------------------------------

def pairwise_mass_collisions(masses, n_sites: int, tol: float
                             ) -> set[tuple[int, int]]:
    """Block pairs (i < j) whose squared mode frequencies m^2 + 4 sin^2(pi
    k / N) come within tol at some pair of momenta, by comparing every
    pair of values."""
    k = np.arange(n_sites)
    w2 = np.asarray(masses)[:, None] ** 2 \
        + 4.0 * np.sin(np.pi * k / n_sites) ** 2
    gap = np.abs(w2[:, None, :, None] - w2[None, :, None, :])
    return {(int(i), int(j)) for i, j
            in np.argwhere((gap < tol).any(axis=(2, 3))) if i < j}


# -- causal structure ---------------------------------------------------------------

def brute_force_domain_of_dependence(base_slice, base_start, base_length,
                                     spacetime):
    """All (t, x) whose unit-speed cone meets the base slice only inside the
    interval, found by walking every causal path explicitly."""
    N, T = spacetime.n_sites, spacetime.n_steps
    base = {(base_start + j) % N for j in range(base_length)}
    out = set()
    for t in range(T + 1):
        dt_ = t - base_slice
        for x in range(N):
            crossing = {(x + d) % N for d in range(-abs(dt_), abs(dt_) + 1)}
            if crossing <= base:
                out.add((t, x))
    return out


def causal_paths_stay_inside(points, spacetime):
    """Causal convexity by path enumeration: every unit-speed causal path
    between two region points stays inside the region."""
    N = spacetime.n_sites
    pts = set(points)

    def paths(a, b):
        (t1, x1), (t2, x2) = a, b
        if t1 > t2:
            (t1, x1), (t2, x2) = (t2, x2), (t1, x1)
        if t1 == t2:
            return [[(t1, x1)]] if a == b else []
        out = []

        def walk(t, x, acc):
            if t == t2:
                if x == x2:
                    out.append(acc)
                return
            for step in (-1, 0, 1):
                walk(t + 1, (x + step) % N, acc + [(t + 1, (x + step) % N)])

        walk(t1, x1, [(t1, x1)])
        return out

    for a in pts:
        for b in pts:
            (t1, x1), (t2, x2) = a, b
            dx = min((x1 - x2) % N, (x2 - x1) % N)
            if dx > abs(t1 - t2):
                continue  # not causally related
            for path in paths(a, b):
                if not set(path) <= pts:
                    return False
    return True


# -- dynamics ------------------------------------------------------------------------

def random_data(rng: np.random.Generator, st: LatticeSpacetime,
                *shape: int) -> np.ndarray:
    """Complex standard-normal data vectors (*shape, dim)."""
    size = shape + (st.data_dim,)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def sigma(a: np.ndarray, b: np.ndarray):
    """The symplectic form of data vectors (..., 2 S N), summed channel by
    channel: sum(q_a p_b) - sum(q_b p_a)."""
    half = np.shape(a)[-1] // 2
    return np.sum(a[..., :half] * b[..., half:], axis=-1) \
        - np.sum(b[..., :half] * a[..., half:], axis=-1)


def on_vectors(st: LatticeSpacetime, map_fn, vec: np.ndarray) -> np.ndarray:
    """A map of Cauchy data (q, p) -> (q, p), applied to data vectors (...,
    dim)."""
    return np.concatenate(map_fn(*data_from_vec(st, vec)),
                          axis=-2).reshape(np.shape(vec))


def step(st: LatticeSpacetime, vec: np.ndarray,
         direction: str = "forward") -> np.ndarray:
    """One kick-drift-kick step of the free equation on data vectors (...,
    dim); exactly invertible."""
    d = 1 if direction == "forward" else -1
    return on_vectors(st, lambda q, p: evolve_data(q, p, st, 0, d), vec)


def trajectory(st: LatticeSpacetime, vec: np.ndarray):
    """Field values and momenta on every slice, shapes (T1, S, N)."""
    return evolve_data(*data_from_vec(st, vec), st, 0, st.n_steps,
                       trajectory=True)


def rolled_null_energy_grids(st: LatticeSpacetime, q: np.ndarray,
                             p: np.ndarray) -> np.ndarray:
    """`dynamics.null_energy_grids` with the neighbours read by np.roll and
    the two signs joined by np.stack: shape (T1, ..., N, 2)."""
    q_traj, p_traj = evolve_data(q, p, st, 0, st.n_steps, trajectory=True)
    dx = 0.5 * (np.roll(q_traj, -1, axis=-1) - np.roll(q_traj, 1, axis=-1))
    dp, dm = p_traj + dx, p_traj - dx
    return np.stack([np.sum(np.abs(dp) ** 2, axis=-2),
                     np.sum(np.abs(dm) ** 2, axis=-2)], axis=-1)


def null_energy_grid(st: LatticeSpacetime, vec: np.ndarray) -> np.ndarray:
    """Null energies of one data vector at every (t, x, sign): (T1, N, 2)."""
    return rolled_null_energy_grids(st, *data_from_vec(st, vec))


def mode_matrix(mass: float, k: int, n_sites: int, dt: float) -> np.ndarray:
    """Exact one-step map on the (q, p) pair of one spatial Fourier mode."""
    w2 = mass * mass + 4.0 * np.sin(np.pi * k / n_sites) ** 2
    h = dt * dt * w2
    return np.array([[1.0 - h / 2.0, dt],
                     [-dt * w2 * (1.0 - h / 4.0), 1.0 - h / 2.0]])


def advanced_solution_at_zero(f_values: np.ndarray, st: LatticeSpacetime):
    """Advanced solution data at t=0 by backward integration from clean
    late-time data through the source (independent of the production
    forward-then-back route)."""
    S, N = st.n_species, st.n_sites
    zero = np.zeros((S, N), dtype=complex)
    q, p = evolve_data(zero, zero, st, st.n_steps, 0, source=f_values)
    return q, p


def discrete_kg_operator(f_values: np.ndarray, spacetime: LatticeSpacetime
                         ) -> np.ndarray:
    """The discrete Klein-Gordon operator matching the stepper, applied
    slice-wise to a (S, T1, N) array; boundary slices are dropped (zeroed)."""
    dt2 = spacetime.dt ** 2
    g = np.asarray(f_values, dtype=complex)
    out = np.zeros_like(g)
    lap = (np.roll(g, -1, axis=-1) - 2 * g + np.roll(g, 1, axis=-1))
    m2 = np.asarray(spacetime.spectrum.species_masses)[:, None, None] ** 2
    interior = slice(1, g.shape[1] - 1)
    out[:, interior] = (
        (g[:, 2:] - 2 * g[:, 1:-1] + g[:, :-2]) / dt2
        - lap[:, interior] + m2 * g[:, interior]
    )
    return out


def shift_matrix(st: LatticeSpacetime) -> np.ndarray:
    """The one-site spatial translation as a permutation of the canonical
    basis: e_(c, x) -> e_(c, x + 1) in every channel-species block c."""
    N = st.n_sites
    block, x = np.divmod(np.arange(st.data_dim), N)
    out = np.zeros((st.data_dim, st.data_dim))
    out[block * N + (x + 1) % N, block * N + x] = 1.0
    return out


def per_point_region_basis(region: Region) -> np.ndarray:
    """Orthonormal basis of span{E f : supp f inside the region}, one
    propagated delta test function per (point, species); singular values
    below 1e-10 of the largest are dropped."""
    st = region.spacetime
    vecs = []
    for (t, x) in sorted(region.points):
        if not (1 <= t <= st.n_steps - 2):
            continue
        for s in range(st.n_species):
            vals = np.zeros((st.n_species, st.n_slices, st.n_sites), complex)
            vals[s, t, x] = 1.0
            vecs.append(np.concatenate(propagate_sources(st, vals)).ravel())
    u, sing, _ = np.linalg.svd(np.array(vecs).T, full_matrices=False)
    return u[:, :int(np.sum(sing > 1e-10 * sing[0]))]


def richardson_rce_derivative(pert, a, b) -> complex:
    """d/ds sigma(rce[s v] a, b) at s=0 by central differences over the steps
    (1e-2, 5e-3, 2.5e-3) with two levels of Richardson extrapolation: full
    relative Cauchy evolutions of the scaled perturbation, no tangent
    dynamics."""
    def f(s):
        return sigma(on_vectors(pert.spacetime, lambda q, p: rce_data(
            q, p, pert.scaled(s)), a), b)

    centrals = [(f(s) - f(-s)) / (2 * s) for s in (1e-2, 5e-3, 2.5e-3)]
    r1 = (4 * centrals[1] - centrals[0]) / 3
    r2 = (4 * centrals[2] - centrals[1]) / 3
    return (16 * r2 - r1) / 15


# -- dict-walking CCR algebra -----------------------------------------------------
#
# Elements are plain dicts {sorted multi-index: complex}; nothing is pruned.

def _term_product(idx_a: tuple[int, ...], idx_b: tuple[int, ...], half: int
                  ) -> list[tuple[complex, tuple[int, ...]]]:
    """All contraction terms of a basis-monomial product: partial matchings
    between the two multisets, grouped by contracted value (sigma pairs each
    basis vector with exactly one partner, so values contract independently);
    r contractions of a value of multiplicities m, n count
    comb(m, r) comb(n, r) r! matchings."""
    count_a: dict[int, int] = {}
    for i in idx_a:
        count_a[i] = count_a.get(i, 0) + 1
    count_b: dict[int, int] = {}
    for i in idx_b:
        count_b[i] = count_b.get(i, 0) + 1
    cands = []
    for u, mult in count_a.items():
        v, sign = (u + half, 1.0) if u < half else (u - half, -1.0)
        if v in count_b:
            cands.append((u, v, sign, mult, count_b[v]))

    results = []

    def rec(pos, weight, used_a, used_b):
        if pos == len(cands):
            rest = []
            for u, mult in count_a.items():
                rest.extend([u] * (mult - used_a.get(u, 0)))
            for v, mult in count_b.items():
                rest.extend([v] * (mult - used_b.get(v, 0)))
            results.append((weight, tuple(sorted(rest))))
            return
        u, v, sign, mult_a, mult_b = cands[pos]
        for r in range(min(mult_a, mult_b) + 1):
            w = weight
            if r:
                w = w * (math.comb(mult_a, r) * math.comb(mult_b, r)
                         * math.factorial(r)) * (0.5j * sign) ** r
            rec(pos + 1, w, {**used_a, u: r}, {**used_b, v: r})

    rec(0, 1.0 + 0.0j, {}, {})
    return results


def dict_product(a: dict, b: dict, half: int) -> dict:
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            for w, idx in _term_product(ia, ib, half):
                out[idx] = out.get(idx, 0.0) + ca * cb * w
    return out


def _sparse_columns(matrix: np.ndarray, tol: float = 1e-15):
    return [[(int(j), complex(matrix[j, i]))
             for j in np.nonzero(np.abs(matrix[:, i]) > tol)[0]]
            for i in range(matrix.shape[1])]


def species_on_data(st: LatticeSpacetime, R: np.ndarray) -> np.ndarray:
    """The dense map kron(1_2, R (x) 1_N) of species matrices R (|nu|, |nu|)
    or a stack (n, |nu|, |nu|) on the Cauchy data: the same matrix on q and
    on p, at every site."""
    return np.kron(np.eye(2), np.kron(R, np.eye(st.n_sites)))


def dict_substitute(a: dict, matrix: np.ndarray, consts=None) -> dict:
    """e_i -> sum_j matrix[j, i] e_j + consts[i] in every slot, expanding
    one slot at a time."""
    cols = _sparse_columns(matrix)
    out: dict = {}
    for idx, coeff in a.items():
        poly = {(): coeff}
        for i in idx:
            nxt: dict = {}
            const = complex(consts[i]) if consts is not None else 0.0
            for mono, c in poly.items():
                if const != 0.0:
                    nxt[mono] = nxt.get(mono, 0.0) + c * const
                for j, w in cols[i]:
                    key = tuple(sorted(mono + (j,)))
                    nxt[key] = nxt.get(key, 0.0) + c * w
            poly = nxt
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0.0) + c
    return out


def dict_derivation(a: dict, matrix: np.ndarray, consts=None) -> dict:
    """The derivation extending e_i -> sum_j matrix[j, i] e_j + consts[i],
    one slot at a time."""
    cols = _sparse_columns(matrix)
    out: dict = {}
    for idx, coeff in a.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            if consts is not None and consts[i] != 0.0:
                out[rest] = out.get(rest, 0.0) + coeff * consts[i]
            for j, w in cols[i]:
                key = tuple(sorted(rest + (j,)))
                out[key] = out.get(key, 0.0) + coeff * w
    return out


def dict_max_coeff_diff(a: dict, b: dict) -> float:
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)),
               default=0.0)


def projector_membership_residual(element, basis: np.ndarray) -> float:
    """Coefficient change of an element under the slot-wise substitution of
    the orthogonal projector onto the span of `basis`: zero iff every tensor
    slot lies in the span."""
    terms = dict(element.terms)
    projected = dict_substitute(terms, basis @ basis.conj().T)
    return dict_max_coeff_diff(terms, projected)


# -- quasifree evaluation ---------------------------------------------------------------

def ordered_wick(indices: tuple[int, ...], W: np.ndarray) -> complex:
    """omega(F(i1) ... F(ik)) for an ordered product of generators: the sum
    over perfect matchings of W(earlier, later)."""
    if len(indices) == 0:
        return 1.0 + 0.0j
    if len(indices) % 2:
        return 0.0 + 0.0j
    first, rest = indices[0], indices[1:]
    total = 0.0 + 0.0j
    for j in range(len(rest)):
        total += W[first, rest[j]] * ordered_wick(rest[:j] + rest[j + 1:], W)
    return total


def monomial_as_ordered_products(indices: tuple[int, ...], half: int):
    """Expand a symmetric monomial into ordered generator products:
    e_I = F(i1) . e_{I'} - (i/2) sum_j sigma(i1, i_j) e_{I' \\ j},
    recursively; yields (coefficient, ordered index sequence) pairs."""
    def sigma(i, j):
        if i < half and j == i + half:
            return 1.0
        if i >= half and j == i - half:
            return -1.0
        return 0.0

    def expand(idx):
        if len(idx) == 0:
            return [(1.0 + 0.0j, ())]
        first, rest = idx[0], idx[1:]
        out = []
        for c, seq in expand(rest):
            out.append((c, (first,) + seq))
        for j, r in enumerate(rest):
            s = sigma(first, r)
            if s:
                for c, seq in expand(rest[:j] + rest[j + 1:]):
                    out.append((c * (-0.5j) * s, seq))
        return out

    return expand(tuple(indices))


def _circulant_from_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Real symmetric circulant with the given Fourier eigenvalues."""
    col = np.fft.ifft(vals).real
    n = len(vals)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return col[idx]


def circulant_vacuum_mu(st: LatticeSpacetime) -> np.ndarray:
    """The vacuum covariance assembled species by species: half the
    circulant of the mode frequencies on the species' q block and half that
    of their inverses on its p block."""
    S, N = st.n_species, st.n_sites
    half = S * N
    mu = np.zeros((2 * half, 2 * half))
    for freqs, (_, block) in zip(mode_frequencies(st),
                                 st.spectrum.block_slices()):
        for s in range(block.start, block.stop):
            q, p = slice(s * N, (s + 1) * N), slice(half + s * N,
                                                    half + (s + 1) * N)
            mu[q, q] = 0.5 * _circulant_from_eigenvalues(freqs)
            mu[p, p] = 0.5 * _circulant_from_eigenvalues(1.0 / freqs)
    return mu


def hafnian(mu: np.ndarray, idx: tuple[int, ...]) -> float:
    """Sum over perfect matchings of mu-products, by recursion on the first
    index; 0 for odd length."""
    if len(idx) % 2:
        return 0.0
    if not idx:
        return 1.0
    return sum(mu[idx[0], idx[j]] * hafnian(mu, idx[1:j] + idx[j + 1:])
               for j in range(1, len(idx)))


def reduction_evaluate(element, W: np.ndarray) -> complex:
    """State value by commutator reduction to ordered products, then ordered
    Wick; independent of the production hafnian path."""
    half = W.shape[0] // 2
    total = 0.0 + 0.0j
    for idx, coeff in element.terms.items():
        for c, seq in monomial_as_ordered_products(idx, half):
            total += coeff * c * ordered_wick(seq, W)
    return total


# -- coordinate-space classification -------------------------------------------------------
#
# The classifier's system in block-circulant coordinates, over all momenta
# at once. A shift-commuting map is block circulant,
# X[(a, x), (b, x')] = g[a, b, x - x'] over the C = 2|nu| channels (q then p,
# species-major), so it is stored as its coordinates g of shape (C, C, N).
# The Frobenius product of two such maps is N times the dot product of their
# coordinates. The one-step map is read off the stepper (`one_step_matrix`),
# never off the closed-form mode maps that the classifier uses.

def orthonormal_columns(vectors: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span."""
    if vectors.size == 0:
        return vectors.reshape(vectors.shape[0] if vectors.ndim == 2 else 0, 0)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if len(s) == 0 or s[0] == 0:
        return vectors[:, :0]
    rank = int(np.sum(s > rel_tol * s[0]))
    return u[:, :rank]


def expm_taylor(A: np.ndarray, terms: int = 12) -> np.ndarray:
    """Dense matrix exponential by scaling-and-squaring with a 12-term Taylor
    core."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, ord=1)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1) if norm > 0.5 else 0
    B = A / (2.0 ** squarings)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def coords_to_matrix(g: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """Block-circulant map from coordinates g[a, b, m]: entries
    X[(a, x), (b, x')] = g[a, b, (x - x') mod N]."""
    C, N = 2 * st.n_species, st.n_sites
    x = np.arange(N)
    offset = (x[:, None] - x[None, :]) % N
    X = np.reshape(g, (C, C, N))[:, :, offset]      # (C, C, N, N)
    return X.transpose(0, 2, 1, 3).reshape(C * N, C * N)


@dataclass(frozen=True, eq=False)
class CoordinateCommutant:
    """Real basis of {G : [G, shift] = 0, [G, one-step evolution] = 0}."""

    spacetime: LatticeSpacetime
    coords: np.ndarray            # (n_c, C*C*N) orthonormal rows

    @property
    def dimension(self) -> int:
        return self.coords.shape[0]


def coordinate_commutant(st: LatticeSpacetime) -> CoordinateCommutant:
    """Closed form: in each mass block, E_ij (x) T^r and E_ij (x) T^r U over
    the block's species pairs (i, j) and site offsets r, with T the one-site
    shift and U the one-step map. Pairs have disjoint supports and share U,
    so the rows of one pair are orthonormalized once per block."""
    U = one_step_matrix(st)
    S, C, N = st.n_species, 2 * st.n_species, st.n_sites
    r = np.arange(N)
    shifts = np.einsum("ab,rm->rabm", np.eye(2), np.eye(N))
    out = []
    for _, block in st.spectrum.block_slices():
        # u[a, b, m] = U[(a, m), (b, 0)] on one species of the block; the
        # coordinates of T^r U are u rolled by r
        chans = (np.array([0, S]) + block.start) * N
        u = U[np.ravel(chans[:, None] + r)][:, chans].reshape(2, N, 2)
        steps = u.transpose(0, 2, 1)[:, :, (r[None, :] - r[:, None]) % N]
        pair = orthonormal_columns(np.concatenate(
            [shifts, steps.transpose(2, 0, 1, 3)]).reshape(2 * N, -1).T).T
        for i in range(block.start, block.stop):
            for j in range(block.start, block.stop):
                g = np.zeros((len(pair), C, C, N))
                g[:, [[i], [S + i]], [j, S + j]] = pair.reshape(-1, 2, 2, N)
                out.append(g.reshape(len(pair), -1))
    return CoordinateCommutant(st, np.concatenate(out))


def _massless_channels(st: LatticeSpacetime) -> np.ndarray:
    """Channel indices (q and p) of the massless species."""
    if st.spectrum.massless_count == 0:
        return np.zeros(0, dtype=int)
    block = st.spectrum.block_slice(0.0)
    s = np.arange(block.start, block.stop)
    return np.concatenate([s, s + st.n_species])


def zero_mode_part(coords: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """Coordinates of P X P, with P the projector onto the massless spatial
    zero mode: the site mean of each massless x massless channel entry,
    at every offset, and zero elsewhere."""
    C, N = 2 * st.n_species, st.n_sites
    g = np.reshape(coords, (-1, C, C, N))
    z = _massless_channels(st)
    out = np.zeros_like(g)
    zz = (slice(None), z[:, None], z[None, :])
    out[zz] = g[zz].mean(axis=-1, keepdims=True)
    return out.reshape(np.shape(coords))


def coordinate_zero_mode_split(basis: CoordinateCommutant):
    """Split the commutant into massless-zero-mode-supported directions and
    their orthogonal complement (the active directions that constraints see).

    Both are coordinate rows scaled by 1/sqrt(N), so that their maps are
    orthonormal in the Frobenius product."""
    st = basis.spacetime
    scale = 1.0 / np.sqrt(st.n_sites)
    if st.spectrum.massless_count == 0:   # rows already orthonormal
        return scale * basis.coords, basis.coords[:0]
    quarantined = zero_mode_part(basis.coords, st)
    active = orthonormal_columns((basis.coords - quarantined).T).T
    return scale * active, scale * orthonormal_columns(quarantined.T).T


def project_out_massless_zero_mode(vecs: np.ndarray, st: LatticeSpacetime
                                   ) -> np.ndarray:
    """Data vectors (..., dim) with the site mean of every massless channel
    removed."""
    C, N = 2 * st.n_species, st.n_sites
    v = np.array(vecs, dtype=float).reshape(-1, C, N)
    z = _massless_channels(st)
    v[:, z] -= v[:, z].mean(axis=-1, keepdims=True)
    return v.reshape(np.shape(vecs))


def null_derivative_rows(g: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """D_+- X(g) for coordinates g (n, C, C, N), with D_+- the null
    derivatives at slice 0, site 0 and columns as data vectors:
    (2, n, S, dim). Column (b, 0) of X(g) has site profile g[:, b, :], so
    `null_derivatives` gives D at every site x applied to it; by shift
    invariance, D at site 0 applied to column (b, x') is the value at site
    -x'."""
    S, N = st.n_species, st.n_sites
    q, p = np.swapaxes(g[:, :S], 1, 2), np.swapaxes(g[:, S:], 1, 2)
    d = np.stack(null_derivatives(q, p))[..., -np.arange(N) % N]
    return d.transpose(0, 1, 3, 2, 4).reshape(2, len(g), S, st.data_dim)


def coordinate_constraint_rows(active: np.ndarray, st: LatticeSpacetime
                               ) -> np.ndarray:
    """Rows (2 S dim, n_act + 2 n_so) of the linear system
    D_+- X(g) P = A_+- D_+- P in the unknowns (c, A_+, A_-), where
    g = c @ active, A_+- lie in so(S) and P removes the massless zero mode
    (P is symmetric, so it acts on each row as on a data vector)."""
    S, C, N, dim = st.n_species, 2 * st.n_species, st.n_sites, st.data_dim
    identity = np.zeros((1, C, C, N))
    identity[0, np.arange(C), np.arange(C), 0] = 1.0
    D = project_out_massless_zero_mode(
        null_derivative_rows(identity, st)[:, 0], st)         # (2, S, dim)
    gens = project_out_massless_zero_mode(
        null_derivative_rows(active.reshape(-1, C, C, N), st), st)
    gens = gens.reshape(2, len(active), S * dim).transpose(0, 2, 1)
    so = so_basis(S)
    AD = -np.einsum("jkl,wld->wkdj", so, D).reshape(2, S * dim, len(so))
    zero = np.zeros_like(AD[0])
    return np.block([[gens[0], AD[0], zero], [gens[1], zero, AD[1]]])


def coordinate_so_rows(st: LatticeSpacetime) -> np.ndarray:
    """Coordinate rows (n_so, C*C*N) of the in-block rotation generators
    (`gauge.rotation_generators`), acting identically on both channels at
    every site (offset 0)."""
    S, C, N = st.n_species, 2 * st.n_species, st.n_sites
    R = rotation_generators(st.spectrum)
    g = np.zeros((len(R), C, C, N))
    g[:, :S, :S, 0] = g[:, S:, S:, 0] = R
    return g.reshape(len(R), C * C * N)


def coordinate_classification(st: LatticeSpacetime, rel_tol: float = 1e-8
                              ) -> np.ndarray:
    """Orthonormal coordinate rows (d, C*C*N) spanning the maps G of the
    active commutant that solve D_+- G P = A_+- D_+- P: one SVD over all
    momenta. A_+- are fixed by G (D_+- P has full row rank)."""
    active, _ = coordinate_zero_mode_split(coordinate_commutant(st))
    null_basis, _, _ = nullspace(coordinate_constraint_rows(active, st), rel_tol)
    # active rows are orthonormal maps, so coordinates of norm 1/sqrt(N)
    return np.sqrt(st.n_sites) * orthonormal_columns(
        null_basis[:len(active)]).T @ active


# -- tiny dense commutant intersection ------------------------------------------------------

def dense_commutant_dimension(shift: np.ndarray, onestep: np.ndarray,
                              tol: float = 1e-9):
    """Real dimension of {X : [X, shift] = 0 = [X, onestep]} by stacking the
    two commutator operators on the full matrix space (row-major vec)."""
    d = shift.shape[0]
    eye = np.eye(d)
    op1 = np.kron(eye, shift.T) - np.kron(shift, eye)
    op2 = np.kron(eye, onestep.T) - np.kron(onestep, eye)
    stacked = np.concatenate([op1, op2], axis=0)
    s = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(s > tol * s[0]))
    return d * d - rank


def dense_evolution_commutant(st: LatticeSpacetime, rel_tol: float = 1e-10
                              ) -> np.ndarray:
    """Orthonormal block-circulant coordinate rows (n, C*C*N) of the maps
    commuting with the one-step evolution U, as the SVD nullspace of the dense
    operator g -> coords([X(g), U]) over all C x C x N coordinates.

    For a parametrization element E_cc' (x) P^j the commutator's coordinates
    are assembled from row and column slices of U, so the operator is built by
    indexing alone. Cost O(C^6 N^3): tiny and moderate sizes only."""
    C, N = 2 * st.n_species, st.n_sites
    U = one_step_matrix(st)
    n_p = C * C * N
    L = np.zeros((n_p, n_p))
    m = np.arange(N)
    for c in range(C):
        for cp in range(C):
            for j in range(N):
                col = (c * C + cp) * N + j
                g = np.zeros((C, C, N))
                # (X U) coords: delta_{a,c} U[(c', (m-j) mod N), (b, 0)]
                rows = cp * N + (m - j) % N
                g[c, :, :] += U[rows][:, np.arange(C) * N].T
                # -(U X) coords: -delta_{b,c'} U[(a, m), (c, j)]
                ucol = U[:, c * N + j].reshape(C, N)
                g[:, cp, :] -= ucol
                L[:, col] = g.ravel()
    _, s, vt = np.linalg.svd(L)
    return vt[int(np.sum(s > rel_tol * s[0])):]


# -- dense affine functionals ---------------------------------------------------------------

def dense_affine_functionals(st: LatticeSpacetime, rel_tol: float = 1e-10
                             ) -> np.ndarray:
    """Orthonormal rows (d, dim) spanning the real functionals c on the data
    that an affine endomorphism Phi(phi) -> Phi(G phi) + c(phi) 1 may add:
    c T = c, c U = c, and c(psi) = 0 for the data psi of every null-derivative
    field D_+- Phi(0, x), sigma(psi, .) = D_+- (.)(0, x) at each site and
    species. One dense SVD of [T - 1, U - 1, Psi]: T a roll matrix, U read
    off the stepper (`one_step_matrix`), psi = J d for each null-derivative
    row d. Dense in dim: N <= 16."""
    S, N, dim = st.n_species, st.n_sites, st.data_dim
    T = np.kron(np.eye(2 * S), np.roll(np.eye(N), 1, axis=0))
    eye = np.eye(dim)
    d = np.concatenate(null_derivatives(eye[:, :dim // 2].reshape(dim, S, N),
                                        eye[:, dim // 2:].reshape(dim, S, N)),
                       axis=1).reshape(dim, -1)     # column: one D_+- (s, x)
    u, s, _ = np.linalg.svd(np.hstack([T - eye, one_step_matrix(st) - eye,
                                       symplectic_matrix(st) @ d]))
    return u[:, int(np.sum(s > rel_tol * s[0])):].T


# -- sampled null-energy constraints ---------------------------------------------------------

def site_fft(coords: np.ndarray, st: LatticeSpacetime) -> np.ndarray:
    """Real site-FFT (n, C, C, N//2 + 1) of coordinate rows: the Fourier
    multipliers of the block-circulant maps."""
    C, N = 2 * st.n_species, st.n_sites
    return np.fft.rfft(np.reshape(coords, (-1, C, C, N)), axis=-1)


def apply_coords(g_hat: np.ndarray, vecs: np.ndarray, st: LatticeSpacetime
                 ) -> np.ndarray:
    """X(g) @ v for each map, given by its site-FFT (`site_fft`), and each
    data vector v of vecs (..., dim): the circular convolution
    sum_b sum_x' g[a, b, x - x'] v[b, x']. Returns (..., n, dim)."""
    C, N = 2 * st.n_species, st.n_sites
    v_hat = np.fft.rfft(np.reshape(vecs, (-1, C, N)), axis=-1)
    out = np.fft.irfft(np.einsum("nabk,tbk->tnak", g_hat, v_hat, optimize=True),
                       n=N, axis=-1)
    return out.reshape(*np.shape(vecs)[:-1], g_hat.shape[0], C * N)


def default_sample_points(st: LatticeSpacetime) -> list[tuple[int, int, int]]:
    """(t, x, sign) triples covering one spatial period in time and a spread
    of sites, both null directions."""
    ts = list(range(min(st.n_sites, st.n_steps) + 1))
    xs = sorted({0, st.n_sites // 3, (2 * st.n_sites) // 3})
    return [(t, x, s) for t in ts for x in xs for s in (+1, -1)]


def sampled_constraint_rows(g_hat: np.ndarray, phi_vec: np.ndarray,
                            st: LatticeSpacetime,
                            points: list[tuple[int, int, int]]) -> np.ndarray:
    """One row per sampled point: <D phi, D (G phi)>(t, x) for each generator
    G, given by the site-FFT of its coordinates (`site_fft`). Each G commutes
    with the one-step evolution, so (G phi)(t) = G (phi(t)) and only phi is
    evolved."""
    S, N = st.n_species, st.n_sites
    half = S * N
    t_max = max(t for t, _, _ in points)

    def unpack(vecs):
        return (vecs[..., :half].reshape(*vecs.shape[:-1], S, N),
                vecs[..., half:].reshape(*vecs.shape[:-1], S, N))

    q0, p0 = unpack(phi_vec)
    qt, pt = evolve_data(q0, p0, st, 0, t_max, trajectory=True)
    dp_base, dm_base = null_derivatives(qt, pt)

    data = np.concatenate([qt.real, pt.real], axis=1).reshape(len(qt), -1)
    qg, pg = unpack(apply_coords(g_hat, data, st))     # (T1, n_act, S, N)
    dp_g, dm_g = null_derivatives(qg, pg)

    rows = np.empty((len(points), g_hat.shape[0]))
    for r, (t, x, sign) in enumerate(points):
        base = (dp_base if sign > 0 else dm_base)[t, :, x]
        gen = (dp_g if sign > 0 else dm_g)[t, :, :, x]
        rows[r] = np.real(gen @ base)
    return rows


def canonical_sample_vectors(st: LatticeSpacetime) -> np.ndarray:
    """All canonical basis data vectors, massless zero mode projected out."""
    return project_out_massless_zero_mode(np.eye(st.data_dim), st)


def sampled_constraint_nullspace(st: LatticeSpacetime, active: np.ndarray,
                                 seed: int = 0, random_batches: int = 3,
                                 batch_size: int = 8, rel_tol: float = 1e-8):
    """Nullspace (n_act, k) of the sampled constraint rows over the active
    commutant rows, and the nullity after each batch: the canonical batch,
    then independent random batches, stacked rows kept as their QR triangle.
    Raises AssertionError unless the nullity is the same after the last
    three batches."""
    rng = np.random.default_rng(seed)
    g_hat = site_fft(active, st)
    points = default_sample_points(st)
    R = np.zeros((0, active.shape[0]))
    hist = []
    for batch in range(1 + random_batches):
        vecs = canonical_sample_vectors(st) if batch == 0 else [
            project_out_massless_zero_mode(rng.standard_normal(st.data_dim), st)
            for _ in range(batch_size)]
        R = np.linalg.qr(np.vstack(
            [R] + [sampled_constraint_rows(g_hat, v, st, points)
                   for v in vecs]), mode="r")
        null_basis, rank, _ = nullspace(R, rel_tol)
        hist.append(active.shape[0] - rank)
    assert len(hist) < 3 or hist[-1] == hist[-2] == hist[-3], \
        f"nullspace not plateaued: history {hist}"
    return null_basis, hist


# -- the soundness check, one solution at a time ----------------------------------------------
#
# The exponential and the map's action on data are the classifier's own
# (`_mode_exp`, `_apply`): what these oracles check is the batching, so each
# evolves one solution per call and draws from the rng in the same order.

def looped_generator_soundness(st: LatticeSpacetime, generators,
                               rng: np.random.Generator) -> dict:
    """`classify.generator_soundness`, one generator and one solution per
    call: each null-energy grid and each rce its own evolution."""
    J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(st.n_species))
    out = dict.fromkeys(("sigma", "null_energy", "rce_commute"), 0.0)
    T1, N, w = st.n_slices, st.n_sites, max(2, st.n_sites // 3)
    for generator in generators:
        E = _mode_exp(generator)
        out["sigma"] = max(out["sigma"], float(np.max(np.abs(np.fft.ifft(
            np.conj(np.swapaxes(E, 1, 2)) @ J @ E - J, axis=0)))))
        for _ in range(3):
            vec = rng.standard_normal(st.data_dim)
            a, sa = vec, _apply(st, E, vec)
            g1, g2 = null_energy_grid(st, a), null_energy_grid(st, sa)
            out["null_energy"] = max(out["null_energy"], float(
                np.max(np.abs(g1 - g2)) / max(1.0, np.max(np.abs(g1)))))
            v = np.zeros((T1, N))
            t0 = 1 + int(rng.integers(0, max(1, st.n_steps - 4)))
            v[t0:t0 + 3, :w] = rng.standard_normal((min(3, T1 - t0), w))
            v[0] = v[-1] = 0.0
            pert = Perturbation(st, v)
            moved, image = (on_vectors(
                st, lambda q, p: rce_data(q, p, pert), x).real
                for x in (a, sa))
            out["rce_commute"] = max(out["rce_commute"], float(
                np.max(np.abs(image - _apply(st, E, moved)))
                / max(1.0, np.max(np.abs(moved)))))
    return out


def looped_reflection_residual(st: LatticeSpacetime,
                               rng: np.random.Generator) -> float:
    """`classify.reflection_residual`, one null-energy grid per solution."""
    res = 0.0
    for _ in range(3):
        phi = rng.standard_normal(st.data_dim)
        base = null_energy_grid(st, phi)
        for g in block_reflections(st.spectrum):
            res = max(res, float(np.max(np.abs(null_energy_grid(
                st, species_on_data(st, g.species_matrix()) @ phi) - base))))
    return res
