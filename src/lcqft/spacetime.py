"""Finite category of lattice spacetimes.

Objects are periodic 1+1-dimensional lattices carrying a mass spectrum;
regions are discrete domains of dependence of Cauchy-slice intervals
(diamonds, and causally disjoint unions of diamonds); morphisms are
translations, region inclusions and Cauchy extensions.

Causal structure uses lattice lightspeed 1 site per step regardless of dt,
so all causal bookkeeping is integer-exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainMismatch,
    IntervalWrapsWholeCircle,
    LcqftError,
    MassCollision,
)

MASS_COLLISION_TOL = 1e-9


@dataclass(frozen=True)
class MassSpectrum:
    """Finite mass spectrum: ordered (mass, multiplicity) pairs.

    Masses are strictly increasing and nonnegative; multiplicities >= 1.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise LcqftError("empty mass spectrum")
        prev = -1.0
        for mass, mult in self.entries:
            if not np.isfinite(mass):
                raise LcqftError(f"mass {mass} is not finite")
            if mass < 0:
                raise LcqftError(f"negative mass {mass}")
            if mass <= prev:
                raise LcqftError("masses must be strictly increasing")
            if mult < 1 or mult != int(mult):
                raise LcqftError(f"multiplicity {mult} must be a positive integer")
            prev = mass

    @staticmethod
    def parse(text: str) -> "MassSpectrum":
        """Parse a "m:mult,m:mult" comma list, e.g. "0:1,1.0:2"."""
        entries = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                m_str, k_str = chunk.split(":")
                entries.append((float(m_str), int(k_str)))
            except ValueError as exc:
                raise LcqftError(f"cannot parse spectrum chunk {chunk!r}") from exc
        entries.sort(key=lambda e: e[0])
        return MassSpectrum(tuple(entries))

    def format(self) -> str:
        """The text `parse` reads back exactly (shortest round-trip masses)."""
        return ",".join(f"{repr(float(m)).removesuffix('.0')}:{k}"
                        for m, k in self.entries)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for m, _ in self.entries)

    @property
    def total_species(self) -> int:
        """|nu| = total number of field species."""
        return sum(k for _, k in self.entries)

    @property
    def massless_count(self) -> int:
        """nu(0): multiplicity of mass zero, or 0 if absent."""
        for m, k in self.entries:
            if m == 0.0:
                return k
        return 0

    @cached_property
    def species_masses(self) -> tuple[float, ...]:
        """Mass of each species, in block order."""
        out = []
        for m, k in self.entries:
            out.extend([m] * k)
        return tuple(out)

    def block_slice(self, mass: float) -> slice:
        """Species-index slice of the given mass block."""
        start = 0
        for m, k in self.entries:
            if m == mass:
                return slice(start, start + k)
            start += k
        raise LcqftError(f"mass {mass} not in spectrum")

    def block_slices(self) -> list[tuple[float, slice]]:
        out = []
        start = 0
        for m, k in self.entries:
            out.append((m, slice(start, start + k)))
            start += k
        return out

    def multiplicity(self, mass: float) -> int:
        for m, k in self.entries:
            if m == mass:
                return k
        return 0


@dataclass(frozen=True)
class LatticeSpacetime:
    """Periodic spatial circle of n_sites (spacing 1), n_steps time steps of dt."""

    n_sites: int
    n_steps: int
    dt: float
    spectrum: MassSpectrum

    def __post_init__(self):
        if self.n_sites < 4:
            raise LcqftError("n_sites must be >= 4")
        if self.n_steps < 1:
            raise LcqftError("n_steps must be >= 1")
        if not (0 < self.dt <= 0.9):
            raise LcqftError("dt must lie in (0, 0.9] (explicit stepper margin)")
        self._check_elliptic()
        self._check_mode_separation()

    @cached_property
    def dispersion(self) -> np.ndarray:
        """Squared mode frequencies w^2 = m^2 + 4 sin^2(pi k / N), one row
        per mass block (in spectrum order), one column per momentum k."""
        m = np.asarray(self.spectrum.masses)[:, None]
        k = np.arange(self.n_sites)
        # a huge finite mass squares to inf, which `_check_elliptic` rejects
        with np.errstate(over="ignore"):
            w2 = m * m + 4.0 * np.sin(np.pi * k / self.n_sites) ** 2
        w2.setflags(write=False)
        return w2

    def _check_elliptic(self):
        # The explicit stepper keeps a mode bounded only while
        # dt^2 w^2 < 4; the heaviest mass is the worst.
        w2 = float(np.max(self.dispersion))
        if self.dt * self.dt * w2 >= 4.0:
            raise LcqftError(
                f"mode of mass {max(self.spectrum.masses)} is not elliptic at "
                f"dt={self.dt} (dt^2 w^2 = {self.dt * self.dt * w2:.3g} >= 4)")

    def _check_mode_separation(self):
        # Distinct continuum masses must stay spectrally distinct on the
        # lattice: squared mode frequencies of different mass blocks may not
        # collide within 1e-9 at any pair of momenta. Some blocks collide iff
        # two sorted neighbours from different blocks do: the values between
        # a colliding pair lie within the tolerance of both.
        order = np.argsort(self.dispersion, axis=None)
        block = order // self.n_sites
        close = (np.diff(self.dispersion.ravel()[order]) < MASS_COLLISION_TOL) \
            & (np.diff(block) != 0)
        if close.any():
            i, j = min(sorted(pair) for pair in zip(block[:-1][close].tolist(),
                                                    block[1:][close].tolist()))
            masses = self.spectrum.masses
            raise MassCollision(f"masses {masses[i]} and {masses[j]} collide "
                                f"on the N={self.n_sites} lattice")

    @property
    def n_species(self) -> int:
        return self.spectrum.total_species

    @property
    def n_slices(self) -> int:
        """Number of time slices, t = 0 .. n_steps."""
        return self.n_steps + 1

    @cached_property
    def data_dim(self) -> int:
        """Real canonical dimension of the Cauchy-data space: 2 |nu| N."""
        return 2 * self.n_species * self.n_sites


def _arc(start: int, length: int, n: int) -> frozenset[int]:
    return frozenset((start + j) % n for j in range(length))


@dataclass(frozen=True)
class RegionComponent:
    """One diamond: the discrete domain of dependence of a base interval."""

    base_slice: int
    base_start: int
    base_length: int

    def sites(self, n_sites: int) -> frozenset[int]:
        return _arc(self.base_start, self.base_length, n_sites)


@dataclass(frozen=True)
class Region:
    """Disjoint union of diamonds (a multi-diamond)."""

    spacetime: LatticeSpacetime
    components: tuple[RegionComponent, ...]

    def __post_init__(self):
        n = self.spacetime.n_sites
        for comp in self.components:
            if comp.base_length < 1:
                raise LcqftError("empty region component")
            if comp.base_length >= n:
                raise IntervalWrapsWholeCircle(
                    "base interval covers the whole circle"
                )
            if not (0 <= comp.base_slice <= self.spacetime.n_steps):
                raise LcqftError("base slice outside the time extent")
        self._check_disjoint()
        self._check_causally_disjoint()

    def _check_disjoint(self):
        n = self.spacetime.n_sites
        comps = self.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if comps[i].base_slice != comps[j].base_slice:
                    continue
                # non-adjacent: pad each side of interval i by one site
                padded = set(comps[i].sites(n))
                padded |= {(comps[i].base_start - 1) % n,
                           (comps[i].base_start + comps[i].base_length) % n}
                if padded & comps[j].sites(n):
                    raise LcqftError(
                        "region components overlap or touch on the base slice"
                    )

    def _check_causally_disjoint(self):
        pts = [component_points(c, self.spacetime) for c in self.components]
        n = self.spacetime.n_sites
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for (t1, x1) in pts[i]:
                    for (t2, x2) in pts[j]:
                        dx = min((x1 - x2) % n, (x2 - x1) % n)
                        if dx <= abs(t1 - t2):
                            raise LcqftError(
                                "region components are causally related"
                            )

    @cached_property
    def points(self) -> frozenset[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for comp in self.components:
            out |= component_points(comp, self.spacetime)
        return frozenset(out)

    def __contains__(self, point: tuple[int, int]) -> bool:
        return point in self.points

    def contains_region(self, other: "Region") -> bool:
        return other.points <= self.points

    def translated(self, dt_steps: int, dx_sites: int) -> "Region":
        n = self.spacetime.n_sites
        comps = tuple(
            RegionComponent(c.base_slice + dt_steps,
                            (c.base_start + dx_sites) % n,
                            c.base_length)
            for c in self.components
        )
        return Region(self.spacetime, comps)


def component_points(comp: RegionComponent, spacetime: LatticeSpacetime
                     ) -> frozenset[tuple[int, int]]:
    """All lattice points (t, x) in the domain of dependence of the base.

    A point belongs iff the unit-speed interval it sweeps back (or forward)
    to the base slice lies inside the base interval.
    """
    n = spacetime.n_sites
    base = comp.sites(n)
    out = set()
    max_r = (comp.base_length - 1) // 2
    for r in range(-max_r, max_r + 1):
        t = comp.base_slice + r
        if not (0 <= t <= spacetime.n_steps):
            continue
        for x in range(n):
            cone = _arc((x - abs(r)) % n, 2 * abs(r) + 1, n)
            if cone <= base:
                out.add((t, x))
    return frozenset(out)


def domain_of_dependence(base_slice: int, base_start: int, base_length: int,
                         spacetime: LatticeSpacetime) -> Region:
    """Diamond over a contiguous site interval on one time slice."""
    if base_length >= spacetime.n_sites:
        raise IntervalWrapsWholeCircle(
            "interval covers all sites (a Cauchy surface, not a diamond)"
        )
    if base_length < 1:
        raise LcqftError("interval must be nonempty")
    comp = RegionComponent(base_slice, base_start % spacetime.n_sites, base_length)
    return Region(spacetime, (comp,))


def multi_diamond(spacetime: LatticeSpacetime,
                  bases: list[tuple[int, int, int]]) -> Region:
    """Multi-diamond from (base_slice, base_start, base_length) triples."""
    comps = tuple(RegionComponent(t, s % spacetime.n_sites, ln)
                  for t, s, ln in bases)
    return Region(spacetime, comps)


# -- morphisms -----------------------------------------------------------------

@dataclass(frozen=True)
class SpacetimeObject:
    """An object of the lattice category: a spacetime, optionally restricted
    to a causally convex region (the region viewed as a spacetime in its own
    right, in the ambient coordinates)."""

    spacetime: LatticeSpacetime
    region: Region | None = None

    def __post_init__(self):
        if self.region is not None and self.region.spacetime != self.spacetime:
            raise DomainMismatch("region lives on a different spacetime")


@dataclass(frozen=True)
class LatticeMorphism:
    """Structure-preserving embedding between lattice spacetime objects.

    Every morphism in scope is a translation by (dt_steps, dx_sites)
    composed with an inclusion; the kind is derived, not stored.
    """

    source: SpacetimeObject
    target: SpacetimeObject
    dt_steps: int = 0
    dx_sites: int = 0

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src.spacetime.n_sites != tgt.spacetime.n_sites:
            raise DomainMismatch("spatial circles differ")
        if src.spacetime.spectrum != tgt.spacetime.spectrum:
            raise DomainMismatch("mass spectra differ")
        if src.spacetime.dt != tgt.spacetime.dt:
            raise DomainMismatch("time steps differ")
        if src.spacetime.n_steps > tgt.spacetime.n_steps:
            raise DomainMismatch("time extent shrinks: no embedding")
        image = src.region
        if image is not None:
            image_t = image.translated(self.dt_steps, self.dx_sites)
            if tgt.region is not None and not tgt.region.contains_region(image_t):
                raise DomainMismatch("image leaves the target region")

    @property
    def kind(self) -> str:
        if self.source.region is not None:
            return "region_inclusion"
        if self.source.spacetime.n_steps < self.target.spacetime.n_steps:
            return "cauchy_extension"
        return "translation"


def translation(spacetime: LatticeSpacetime, dt_steps: int, dx_sites: int
                ) -> LatticeMorphism:
    obj = SpacetimeObject(spacetime)
    return LatticeMorphism(obj, obj, dt_steps, dx_sites % spacetime.n_sites)


def identity(spacetime: LatticeSpacetime) -> LatticeMorphism:
    return translation(spacetime, 0, 0)


def region_inclusion(region: Region) -> LatticeMorphism:
    return LatticeMorphism(SpacetimeObject(region.spacetime, region),
                           SpacetimeObject(region.spacetime))


def cauchy_extension(small: LatticeSpacetime, big: LatticeSpacetime
                     ) -> LatticeMorphism:
    """Embedding of a shorter time extent into a longer one.

    The image contains a full Cauchy surface, so the induced solution-space
    map is an isomorphism (timeslice property).
    """
    if (small.n_sites, small.dt, small.spectrum) != (big.n_sites, big.dt, big.spectrum):
        raise DomainMismatch("Cauchy extension must preserve sites, dt, spectrum")
    if small.n_steps > big.n_steps:
        raise DomainMismatch("target time extent is shorter")
    return LatticeMorphism(SpacetimeObject(small), SpacetimeObject(big))


def compose(f: LatticeMorphism, g: LatticeMorphism) -> LatticeMorphism:
    """f after g. Translation parts add; source/target chain."""
    if g.target != f.source:
        raise DomainMismatch("codomain of g != domain of f")
    n = f.target.spacetime.n_sites
    return LatticeMorphism(g.source, f.target,
                           f.dt_steps + g.dt_steps,
                           (f.dx_sites + g.dx_sites) % n)
