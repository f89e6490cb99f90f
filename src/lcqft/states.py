"""Quasifree states on the field algebra.

A quasifree state is fixed by its complex bilinear two-point kernel
W = mu + (i/2) sigma, with mu the real symmetric covariance; it evaluates on
a symmetric monomial phi_1 ... phi_k as the perfect-matching (hafnian) sum of
mu over the index pairs, and is extended linearly over the sparse terms, all
terms at once in one array pass over the pairings of slot positions.

The vacuum kernel is read off the closed-form one-step map of each Fourier
mode (`dynamics.mode_maps`): an elliptic mode with
cos(Omega) = 1 - dt^2 w^2 / 2 has the invariant covariance of a harmonic
oscillator at the effective frequency w_eff = w sqrt(1 - dt^2 w^2 / 4), so
invariance under the lattice dynamics holds at machine precision rather than
up to discretization error. Its mode blocks diag(w_eff / 2, 1 / (2 w_eff))
over each species' (q_k, p_k) become the dense covariance through
`dynamics.dense_from_modes`, the builder the classifier's generators share.
Massless species get a fixed unit-width reference Gaussian on every mode (the
spatial zero mode has no ground state on a compact Cauchy surface); that
reference is flagged, since it is not invariant under the affine gauge
directions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraElement, check_degree_cap
from .dynamics import dense_from_modes, mode_maps, symplectic_matrix
from .spacetime import LatticeSpacetime

DEFAULT_DEGREE_CAP = 8


def mode_frequencies(spacetime: LatticeSpacetime) -> np.ndarray:
    """Effective per-mode frequencies of the one-step map: (B, N), one row
    per mass block (spectrum order) and one column per momentum k.

    Elliptic modes (every mode of a spacetime, which checks ellipticity)
    get w_eff(k) = sqrt(-U_k[1, 0] / U_k[0, 1]), from the closed-form mode
    map U_k of the block (`dynamics.mode_maps`), which is
    w(k) sqrt(1 - dt^2 w(k)^2 / 4): the frequency whose oscillator
    covariance U_k leaves invariant. The massless spatial
    zero mode is parabolic (a free particle, no ground state) and gets a
    fixed unit-width reference instead.
    """
    U = mode_maps(spacetime)
    out = np.sqrt(-U[..., 1, 0] / U[..., 0, 1])
    out[np.array(spacetime.spectrum.masses) == 0.0, 0] = 1.0
    return out


@dataclass(frozen=True, eq=False)
class QuasifreeState:
    """Two-point kernel plus Wick evaluator."""

    spacetime: LatticeSpacetime
    mu: np.ndarray  # real symmetric covariance over the canonical basis
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        # mu over slot digits (index + 1), where the empty digit 0 pairs with
        # nothing, in three tables: [0] for any two slots; [1] for the slots
        # (2i, 2i + 1), where two empty digits pair at weight 1; [2], which
        # is 1 on two empty digits and 0 elsewhere
        wick = np.zeros((3, len(mu) + 1, len(mu) + 1))
        wick[:2, 1:, 1:] = mu
        wick[1:, 0, 0] = 1.0
        wick.setflags(write=False)
        object.__setattr__(self, "_wick", wick)

    @property
    def two_point(self) -> np.ndarray:
        """W = mu + (i/2) sigma over the canonical basis."""
        return self.mu + 0.5j * symplectic_matrix(self.spacetime)

    def evaluate(self, a: AlgebraElement) -> complex:
        """Linear extension of the hafnian pairing sum; omega(1) = 1.

        All terms are summed at once over the pairings of the slots of
        `a.digits`. A term's empty slots come first, and an empty slot pairs
        only with an empty slot and only as (2i, 2i + 1). So a pairing
        contributes to a term iff it pairs the empty slots that way and the
        term's indices among themselves, and the sum over pairings is the
        term's hafnian. With an odd number of slots, the pairings are those
        of the slots after the first (counting i from there), times a factor
        that is 1 iff the first slot is empty: else the term has the odd
        degree D and hafnian 0."""
        check_degree_cap(a, DEFAULT_DEGREE_CAP)
        pairs, table = _pairing_table(len(a.digits))
        at = a.digits[pairs]
        weight = self._wick[table, at[:, :, 0], at[:, :, 1]]
        haf = np.add.reduce(np.multiply.reduce(weight, 1), 0)
        return complex(a.coeffs @ haf)


@lru_cache(maxsize=None)
def _pairing_table(D: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairings of D slots for `QuasifreeState.evaluate`, built once per
    D and read-only: slot pairs (n, ceil(D / 2), 2) and the `_wick` table of
    each pair (n, ceil(D / 2), 1). For odd D, the first slot is paired with
    itself under table 2."""
    odd = D % 2
    pairs = list(_pairings(tuple(range(odd, D))))
    pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), D // 2, 2)
    first, second = pairs[..., 0] - odd, pairs[..., 1] - odd
    table = ((first % 2 == 0) & (second == first + 1)).astype(np.int64)
    if odd:
        pairs = np.concatenate(
            [np.zeros((len(pairs), 1, 2), dtype=np.int64), pairs], axis=1)
        table = np.concatenate([np.full((len(table), 1), 2), table], axis=1)
    table = table[..., None]
    pairs.setflags(write=False)
    table.setflags(write=False)
    return pairs, table


def _pairings(positions: tuple[int, ...]):
    """Every perfect matching of `positions`, as a tuple of pairs."""
    if not positions:
        yield ()
        return
    first = positions[0]
    for j in range(1, len(positions)):
        for rest in _pairings(positions[1:j] + positions[j + 1:]):
            yield ((first, positions[j]),) + rest


def vacuum_state(spacetime: LatticeSpacetime) -> QuasifreeState:
    """Product of per-species vacua (massless species: reference Gaussian):
    the covariance with mode blocks diag(w_eff / 2, 1 / (2 w_eff)) on each
    species' (q_k, p_k)."""
    spectrum = spacetime.spectrum
    w = mode_frequencies(spacetime)[spectrum.species_block].T
    diag = np.concatenate([0.5 * w, 0.5 / w], axis=1)    # (N, 2S)
    mu = dense_from_modes(spacetime, diag[..., None] * np.eye(diag.shape[1]))
    flags = ("massless-reference", "not-invariant-under-affine-shifts") \
        if spectrum.massless_count else ()
    return QuasifreeState(spacetime, mu, flags=flags)

