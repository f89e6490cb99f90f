"""CCR-deformed polynomial algebra over the lattice solution space.

Elements are sparse symmetric tensors over the canonical Cauchy-data basis.
The product deforms the symmetric tensor product by i*sigma/2 contractions
(the Moyal expansion):

    f . g = sum_r (i/2)^r / r!  sigma^{j1 k1} ... sigma^{jr kr}
                                (d_j1 ... d_jr f) (d_k1 ... d_kr g).

On the canonical basis sigma pairs each q-channel vector with the p-channel
vector of the same species and site (value +1), so a single contraction
removes one basis vector from each factor where the two are partners.

Storage is by arrays, one column per term. A term's sorted multi-index
i_1 <= ... <= i_k becomes the digits (0, ..., 0, i_1 + 1, ..., i_k + 1),
padded in front with the "empty" digit 0 to the element's degree D:
`digits[:, t]` holds term t's digits and `coeffs[t]` its complex
coefficient. Terms are kept sorted by key and unique, and coefficients of
magnitude at most PRUNE_TOL are pruned. Keys are not stored: each merge forms
them (`_pack`), the digits in base dim + 1 as int64 words of
`_digits_per_word(dim)` digits, the most a word holds below 2^63, word 0 the
most significant. Padding only adds zero digits and zero words, so a term has
one key at every degree.

An element can be a batch of `size` elements in one set of arrays, term t
tagged with its element's index `tags[t]`; merges sort by the tag as the most
significant key word, so they never sum across elements. A single element is
the batch of one. Sums, products (element i times element i), scaling,
comparison and substitution act on a whole batch at once and give each
element exactly the sums it would get alone.

The product, the affine substitution and the derivation work on whole
arrays of terms: Python loops run only over contraction levels, tensor slots
and digit rows, never over terms. Each expands all its terms at once and
merges them once (`_expanded`); the product also merges at each contraction
level. A sum, a difference or a comparison concatenates its two operands
and merges them once. The kernel does not bound its working set: a caller
with a large batch takes it in parts (the ccr suite takes as many field
pairs at once as expand about `suites.CCR_BATCH_TERMS` terms, which its
shared supports fix at every lattice size).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DegreeCapExceeded, SpaceMismatch
from .spacetime import LatticeSpacetime
from .dynamics import Solution

PRUNE_TOL = 1e-15

# digits per compare-exchange above which `_sort_digits` uses its network:
# one exchange costs about as much as np.sort spends on 80 digits
SORT_NETWORK_MIN = 80

MultiIndex = tuple[int, ...]


# -- digits and packed keys ----------------------------------------------------

def _digit_type(dim: int) -> type:
    """The integer type of digits: int16 while dim + 1 fits."""
    return np.int16 if dim < np.iinfo(np.int16).max else np.int32


def _tag_type(size: int) -> type:
    """The integer type of the tags of a batch of `size` elements."""
    return np.uint8 if size <= 256 else np.min_scalar_type(size - 1)


def _digits_per_word(dim: int) -> int:
    """The largest p with (dim + 1)^p <= 2^63: digits one int64 word holds."""
    base = dim + 1
    p = int(63 / math.log2(base))
    while base ** (p + 1) <= 2 ** 63:
        p += 1
    while base ** p > 2 ** 63:
        p -= 1
    return p


def _pack(digits: np.ndarray, dim: int) -> np.ndarray:
    """Keys (W, n) of digits (D, n), base dim + 1, word 0 most significant."""
    per = _digits_per_word(dim)
    D, n = digits.shape
    n_words = max(1, -(-D // per))
    keys = np.zeros((n_words, n), dtype=np.int64)
    # the last `per` digit rows fill the last word, the `per` rows before
    # them the word before, and so on; each word by Horner's rule, adding
    # one digit row at a time, so the digits are never copied to int64
    hi = D
    for key in keys[::-1]:
        lo = max(0, hi - per)
        for row in digits[lo:hi]:
            key *= dim + 1
            key += row
        hi = lo
    return keys


def _pad(arr: np.ndarray, height: int) -> np.ndarray:
    """arr (h, n) with height - h zero rows in front."""
    if len(arr) == height:
        return arr
    pad = np.zeros((height - len(arr), arr.shape[1]), dtype=arr.dtype)
    return np.concatenate([pad, arr])


def _merge(keys: np.ndarray, coeffs: np.ndarray, *arrays: np.ndarray):
    """Sort terms by key and sum the coefficients of equal keys: (coeffs,
    *arrays), each array in `arrays` (one column per term) keeping the column
    of the first term of each key. Key words whose values fit one int64 side
    by side (such as a tag and one word) are sorted as that int64, in one
    stable pass, so equal keys sum in the order of their terms."""
    if len(coeffs) > 1:
        bits = [int(top).bit_length() for top in keys.max(axis=1).tolist()]
        if sum(bits) < 63:
            for row, width in zip(keys[1:], bits[1:]):
                keys = (keys[:1] << width) | row
        order = keys[0].argsort(kind="stable") if len(keys) == 1 \
            else np.lexsort(keys[::-1])
        keys = keys.take(order, axis=1)
        new = np.logical_or.reduce(keys[:, 1:] != keys[:, :-1])
        del keys  # before the coefficients are gathered
        coeffs, starts = coeffs[order], new.nonzero()[0] + 1
        if len(starts) < len(coeffs) - 1:
            starts = np.concatenate(([0], starts))
            coeffs = np.add.reduceat(coeffs, starts)
            order = order[starts]
        arrays = tuple(x.take(order, axis=-1) for x in arrays)
    return (coeffs, *arrays)


def _merge_tagged(size: int, tags: np.ndarray, keys: np.ndarray,
                  coeffs: np.ndarray, *arrays: np.ndarray):
    """_merge with the tag as the most significant key word, left out for a
    batch of one: (tags, coeffs, *arrays)."""
    if size == 1:  # tags all 0
        coeffs, *arrays = _merge(keys, coeffs, *arrays)
        return (np.zeros(len(coeffs), np.uint8), coeffs, *arrays)
    coeffs, tags, *arrays = _merge(np.vstack([tags, keys]), coeffs, tags,
                                   *arrays)
    return (tags, coeffs, *arrays)


def _sort_digits(digits: np.ndarray, start: int = 1) -> np.ndarray:
    """Each term's digits sorted, zeros first, given that digit rows
    [0, start) already are. Large arrays insert every later row by a pass of
    compare-exchanges over whole rows; np.sort along the short axis costs
    more per digit but less per call, so small arrays use it."""
    exchanges = sum(range(max(start, 1), len(digits)))
    if digits.size < SORT_NETWORK_MIN * exchanges:
        return np.sort(digits, axis=0)
    rows = list(digits)
    for j in range(max(start, 1), len(rows)):
        for i in range(j, 0, -1):
            lo, hi = rows[i - 1], rows[i]
            rows[i - 1], rows[i] = np.minimum(lo, hi), np.maximum(lo, hi)
    return np.array(rows) if exchanges else digits


def _merge_digits(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Term by term, the sorted union of two arrays of sorted digits."""
    if len(left) < len(right):
        left, right = right, left
    return _sort_digits(np.concatenate([left, right]), len(left))


def _drop(digits: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Term k[i] of digits without its slot p[i], for each i."""
    if len(digits) == 1:
        return digits[:0, k]
    keep = np.arange(len(digits) - 1)[:, None]
    return digits[keep + (keep >= p), k]


def _element(spacetime: LatticeSpacetime, size: int, tags: np.ndarray,
             coeffs: np.ndarray, digits: np.ndarray) -> "AlgebraElement":
    out = object.__new__(AlgebraElement)
    out._set(spacetime, size, tags, coeffs, digits)
    return out


def _from_indices(spacetime: LatticeSpacetime, indices: list, coeffs: list):
    """Sorted unique terms of multi-indices in any order; equal ones merge."""
    dim = spacetime.data_dim
    terms = [sorted(int(i) + 1 for i in idx) for idx in indices]
    if any(term and not 0 < term[0] <= term[-1] <= dim for term in terms):
        raise SpaceMismatch(f"basis index outside 0..{dim - 1}")
    degree = max(map(len, terms), default=0)
    digits = np.array([[0] * (degree - len(term)) + term for term in terms],
                      dtype=_digit_type(dim)).reshape(len(terms), degree).T
    return _merge(_pack(digits, dim),
                  np.array(coeffs, dtype=complex).reshape(-1), digits)


def _expanded(spacetime: LatticeSpacetime, size: int, tags: np.ndarray,
              expand) -> "AlgebraElement":
    """The batch of `size` that the terms with `tags` expand into: expand()
    returns the tags, sorted digits and coeffs of all of them, merged here
    once. A batch with no terms expands into none."""
    dim = spacetime.data_dim
    if not len(tags):
        return _element(spacetime, size, tags, np.zeros(0, complex),
                        np.zeros((0, 0), _digit_type(dim)))
    out, digits, coeffs = expand()
    return _element(spacetime, size, *_merge_tagged(
        size, out, _pack(digits, dim), coeffs, digits))


def _refuse_batch(size: int):
    """Refuse a batch where an operation reads one element's terms."""
    if size != 1:
        raise SpaceMismatch(f"a batch of {size} elements where one element"
                            " is needed")


class _Terms(Mapping):
    """Read-only multi-index -> coefficient view of an element's arrays.
    The dict is built on first lookup, for a single element only; the
    length (of a batch, its total number of terms) needs no dict. It holds
    the arrays, not the element, so the element stays out of a cycle."""

    __slots__ = ("_size", "_coeffs", "_digits", "_dict")

    def __init__(self, size: int, coeffs: np.ndarray, digits: np.ndarray):
        self._size, self._coeffs, self._digits = size, coeffs, digits
        self._dict = None

    def _lookup(self) -> dict[MultiIndex, complex]:
        if self._dict is None:
            _refuse_batch(self._size)
            self._dict = {
                tuple(d - 1 for d in term if d): c
                for term, c in zip(self._digits.T.tolist(),
                                   self._coeffs.tolist())}
        return self._dict

    def __getitem__(self, idx: MultiIndex) -> complex:
        return self._lookup()[idx]

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self._lookup())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        return repr(self._lookup())


class AlgebraElement:
    """Sparse element of the quantized field algebra, or a batch of `size`
    of them (see the module docstring for the arrays). Built from a mapping
    of multi-indices to coefficients; each multi-index is sorted and equal
    ones are merged."""

    __slots__ = ("spacetime", "size", "tags", "coeffs", "digits", "_terms")

    def __init__(self, spacetime: LatticeSpacetime,
                 terms: Mapping[MultiIndex, complex]):
        coeffs, digits = _from_indices(spacetime, list(terms),
                                       list(terms.values()))
        self._set(spacetime, 1, np.zeros(len(coeffs), np.uint8), coeffs, digits)

    def _set(self, spacetime: LatticeSpacetime, size: int, tags: np.ndarray,
             coeffs: np.ndarray, digits: np.ndarray):
        """Take sorted unique tagged terms: prune, then trim empty digit
        rows."""
        mag = np.abs(coeffs)
        if len(mag) and not np.minimum.reduce(mag) > PRUNE_TOL:
            keep = mag > PRUNE_TOL
            tags, coeffs, digits = tags[keep], coeffs[keep], digits[:, keep]
        # digits put their zeros first, so only leading rows can be empty
        if len(digits) and not np.logical_or.reduce(digits[0]):
            used = np.flatnonzero(digits.any(1))
            digits = digits[int(used[0]) if len(used) else len(digits):]
        for arr in (tags, coeffs, digits):
            arr.setflags(write=False)
        self.spacetime, self.size, self.tags = spacetime, size, tags
        self.coeffs, self.digits = coeffs, digits
        self._terms = None

    # -- basic structure --------------------------------------------------------

    @property
    def terms(self) -> Mapping[MultiIndex, complex]:
        if self._terms is None:
            self._terms = _Terms(self.size, self.coeffs, self.digits)
        return self._terms

    @property
    def dim(self) -> int:
        return self.spacetime.data_dim

    @property
    def degree(self) -> int:
        """Maximum multi-index length; -1 for the zero element."""
        _refuse_batch(self.size)
        return len(self.digits) if len(self.coeffs) else -1

    def term_degrees(self) -> np.ndarray:
        """Multi-index length of each term, in term order."""
        return np.add.reduce(self.digits > 0)

    def coefficient(self, idx: MultiIndex) -> complex:
        return self.terms.get(tuple(sorted(idx)), 0.0 + 0.0j)

    def select(self, mask: np.ndarray) -> "AlgebraElement":
        """The terms where `mask` (one entry per term, in term order) holds."""
        return _element(self.spacetime, self.size, self.tags[mask],
                        self.coeffs[mask], self.digits[:, mask])

    def max_abs(self) -> float:
        """The largest coefficient magnitude; of a batch, over all elements."""
        if not len(self.coeffs):
            return 0.0
        return float(np.maximum.reduce(np.abs(self.coeffs)))

    def elements(self) -> Iterator["AlgebraElement"]:
        """The elements of a batch, in tag order."""
        bounds = np.searchsorted(self.tags, np.arange(self.size + 1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield _element(self.spacetime, 1, np.zeros(hi - lo, np.uint8),
                           self.coeffs[lo:hi], self.digits[:, lo:hi])

    # -- vector space -----------------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if (self.spacetime is not other.spacetime
                and self.spacetime != other.spacetime) or self.size != other.size:
            raise SpaceMismatch("elements live over different solution spaces"
                                " or batches of different sizes")

    def _combined(self, other, sign: float):
        """The merged (tags, coeffs, digits) of self + sign * other: the
        operands concatenated in that order, so each key sums self's term
        first."""
        if isinstance(other, (int, float, complex)):
            other = scalar(self.spacetime, other)
        self._check(other)
        height = max(len(self.digits), len(other.digits))
        digits = np.concatenate([_pad(self.digits, height),
                                 _pad(other.digits, height)], axis=1)
        return _merge_tagged(
            self.size, np.concatenate([self.tags, other.tags]),
            _pack(digits, self.dim), np.concatenate(
                [self.coeffs, other.coeffs if sign == 1 else other.coeffs * sign]),
            digits)

    def __add__(self, other):
        return _element(self.spacetime, self.size, *self._combined(other, 1))

    __radd__ = __add__

    def __sub__(self, other):
        return _element(self.spacetime, self.size,
                        *self._combined(other, -1.0))

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, values) -> "AlgebraElement":
        """Element i of a batch times values[i]; a number scales them all."""
        values = np.asarray(values)
        values = values[self.tags] if values.ndim else values
        return _element(self.spacetime, self.size, self.tags,
                        self.coeffs * values, self.digits)

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check(other)
        dim, half = self.dim, self.dim // 2
        # digit of the sigma-partner, -1 for the empty digit
        digit = np.arange(-1, dim + 1, dtype=self.digits.dtype)
        partner = np.concatenate(
            [digit[:1], digit[half + 2:], digit[2:half + 2]])
        A, B = self.digits, other.digits
        n_b = np.bincount(other.tags, minlength=self.size)
        b_first, height = n_b.cumsum() - n_b, len(A) + len(B)

        def expand():
            # each left term of element t meets every right term of t
            meets = n_b[self.tags]
            ends = meets.cumsum()
            at = np.arange(ends[-1]) \
                + (b_first[self.tags] - ends + meets).repeat(meets)
            tags, left = self.tags.repeat(meets), A.repeat(meets, axis=1)
            right = B.take(at, axis=1)
            coef = self.coeffs.repeat(meets) * other.coeffs.take(at)
            out_tags, out_digits, out_coeffs = [], [], []
            r = 0
            while True:
                out_tags.append(tags)
                out_digits.append(_pad(_merge_digits(left, right), height))
                out_coeffs.append(coef / math.factorial(r) if r > 1 else coef)
                if not (len(left) and len(right)):
                    break
                hit = (partner[left][:, None] == right[None]).ravel()
                hit = hit.nonzero()[0]
                if not len(hit):
                    break
                # one more single contraction, in every term and every
                # partner pair of slots: i sigma(e_u, e_partner) / 2 is i/2
                # on the q-channel and -i/2 on the p-channel
                p, k = np.divmod(hit, len(right) * len(coef))
                q, k = np.divmod(k, len(coef))
                r += 1
                coef = coef[k] * np.where(left[p, k] > half, -0.5j, 0.5j)
                tags = tags[k]
                left, right = _drop(left, k, p), _drop(right, k, q)
                # equal remainders are merged at every level; from level 2
                # on the r! orders of each set of contractions meet there,
                # so the 1/r! of the Moyal sum divides one sum, exact on
                # integer data
                tags, coef, left, right = _merge_tagged(
                    self.size, tags, np.concatenate(
                        [_pack(left, dim), _pack(right, dim)]),
                    coef, left, right)
            return (np.concatenate(out_tags),
                    np.concatenate(out_digits, axis=1),
                    np.concatenate(out_coeffs))

        return _expanded(self.spacetime, self.size, self.tags, expand)

    def star(self) -> "AlgebraElement":
        """Antilinear involution; on the (real) canonical basis it conjugates
        coefficients, realizing (u^n)* = (conj u)^n."""
        return _element(self.spacetime, self.size, self.tags,
                        self.coeffs.conj(), self.digits)


def stack(elements: list[AlgebraElement]) -> AlgebraElement:
    """The batch of single `elements`, tagged 0, 1, ... in order."""
    for el in elements:
        if el.size != 1:
            raise SpaceMismatch("stack takes single elements, not batches")
        elements[0]._check(el)
    height, size = max(len(el.digits) for el in elements), len(elements)
    return _element(
        elements[0].spacetime, size, np.repeat(
            np.arange(size, dtype=_tag_type(size)),
            [len(el.coeffs) for el in elements]),
        np.concatenate([el.coeffs for el in elements]),
        np.concatenate([_pad(el.digits, height) for el in elements], axis=1))


def zero(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {})


def one(spacetime: LatticeSpacetime) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): 1.0 + 0.0j})


def scalar(spacetime: LatticeSpacetime, value: complex) -> AlgebraElement:
    return AlgebraElement(spacetime, {(): complex(value)})


def fields(spacetime: LatticeSpacetime, vecs) -> AlgebraElement:
    """The fields of the rows of `vecs` (data vectors), as one batch."""
    vecs = np.asarray(vecs, dtype=complex).reshape(-1, spacetime.data_dim)
    tags, nz = np.nonzero(np.abs(vecs) > PRUNE_TOL)
    digits = (nz + 1).astype(_digit_type(spacetime.data_dim)).reshape(1, -1)
    return _element(spacetime, len(vecs), tags.astype(_tag_type(len(vecs))),
                    vecs[tags, nz], digits)


def field(phi: Solution) -> AlgebraElement:
    """Symplectically smeared field: the degree-1 injection, linear in phi.
    Kept for the benchmark's CCR check; everything else calls `fields`."""
    return fields(phi.spacetime, phi.vec())


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def monomial(spacetime: LatticeSpacetime, indices: Iterable[int],
             coeff: complex = 1.0) -> AlgebraElement:
    return AlgebraElement(spacetime, {tuple(sorted(indices)): complex(coeff)})


# -- affine substitution and derivations --------------------------------------

@dataclass(frozen=True)
class SlotMap:
    """An affine map e_i -> sum_j M[j, i] e_j + consts[i] of the basis, as
    padded columns by digit: row i + 1 lists the digits (j + 1, or 0 for the
    constant) and the weights of e_i's image, padded with weight 0; row 0
    maps the empty digit to itself. A stack of n maps, one per element of a
    batch, has a leading axis of length n."""

    digits: np.ndarray   # ([n,] dim + 1, width), of `_digit_type(dim)`
    weights: np.ndarray  # ([n,] dim + 1, width)

    @property
    def width(self) -> int:
        return self.digits.shape[-1]

    def __getitem__(self, index) -> "SlotMap":
        """The maps `index` (an int or a slice) of a stack."""
        return SlotMap(self.digits[index], self.weights[index])


def slot_maps(n: int, dim: int, t: np.ndarray, row: np.ndarray,
              col: np.ndarray, weight: np.ndarray, consts=None) -> SlotMap:
    """The stack of n maps with matrix_t[row, col] = weight (entries listed
    in increasing row within each t and col) and consts (n, dim)."""
    consts = np.zeros((n, dim)) if consts is None \
        else np.asarray(consts).reshape(n, dim)
    keep = np.abs(weight) > PRUNE_TOL
    t_c, has_const = np.nonzero(consts != 0.0)
    weight = np.concatenate([consts[t_c, has_const], weight[keep]])
    digit = np.concatenate([np.zeros(len(t_c), dtype=np.int64), row[keep] + 1])
    # column i of map t is column t * dim + i of the stack
    col = np.concatenate([t_c * dim + has_const, t[keep] * dim + col[keep]])
    order = np.argsort(col, kind="stable")
    col, digit, weight = col[order], digit[order], weight[order]
    pos = np.arange(len(col)) - np.searchsorted(col, col)
    width = int(pos.max()) + 1 if len(pos) else 1
    digits = np.zeros((n, dim + 1, width), dtype=_digit_type(dim))
    weights = np.zeros((n, dim + 1, width),
                       dtype=np.result_type(weight, consts, float))
    weights[:, 0, 0] = 1.0
    t, col = np.divmod(col, dim)
    digits[t, col + 1, pos] = digit
    weights[t, col + 1, pos] = weight
    return SlotMap(digits, weights)


def substitute_affine(a: AlgebraElement, slots: SlotMap) -> AlgebraElement:
    """Symmetric-algebra substitution of every tensor slot by the affine map
    `slots` (one for all elements of a batch, or a stack of one each). This
    is the degree-wise action of an (affine) linear map on generators; it is
    an algebra homomorphism exactly when the linear part is symplectic.

    The slots are substituted one at a time, and the terms merge once at the
    end."""
    dim, D = a.dim, len(a.digits)
    digit_of = slots.digits.reshape(-1, slots.width)
    weight_of = slots.weights.reshape(-1, slots.width)
    # the row of map t for digit d in the stack
    if slots.digits.ndim == 2:
        base = np.zeros(len(a.tags), np.uint8)
    elif len(slots.digits) == a.size:
        base = a.tags.astype(np.int64) * (dim + 1)
    else:
        raise SpaceMismatch(f"{len(slots.digits)} slot maps for {a.size}")

    def expand():
        tags, digits, coef, at = a.tags, a.digits, a.coeffs, base
        for j in range(D):
            w = weight_of[at + digits[j]]
            k, c = w.nonzero()
            tags, digits, coef, at = (tags[k], digits.take(k, axis=1),
                                      coef[k] * w[k, c], at[k])
            digits[j] = digit_of[at + digits[j], c]
        return tags, _sort_digits(digits), coef

    return _expanded(a.spacetime, a.size, a.tags, expand)


def derivation(a: AlgebraElement, slots: SlotMap) -> AlgebraElement:
    """Derivation extending the affine map `slots` of the basis, one tensor
    slot at a time: the tangent at t = 0 of substitute_affine by exp(tX) and
    t * consts; a derivation of the CCR product when X is in sp(sigma)."""
    D = len(a.digits)

    def expand():
        tags, digits, coeffs = a.tags, a.digits, a.coeffs
        out = [(tags[:0], digits[:, :0], coeffs[:0])]
        for j in range(D):
            w = slots.weights[digits[j]] * (digits[j] > 0)[:, None]
            k, c = w.nonzero()
            new = digits.take(k, axis=1)
            new[j] = slots.digits[new[j], c]
            out.append((tags[k], new, coeffs[k] * w[k, c]))
        tags, digits, coeffs = zip(*out)
        return (np.concatenate(tags), _sort_digits(np.concatenate(digits, 1)),
                np.concatenate(coeffs))

    return _expanded(a.spacetime, a.size, a.tags, expand)


def max_coeff_diff(a: AlgebraElement, b: AlgebraElement) -> float:
    """Max absolute coefficient difference (residual metric for all suites);
    for batches, the largest over their elements."""
    _, diff, _ = a._combined(b, -1.0)
    return float(np.maximum.reduce(np.abs(diff))) if len(diff) else 0.0


def random_element(rng: np.random.Generator, spacetime: LatticeSpacetime,
                   degree: int, n_terms: int = 6, integer: bool = False,
                   support=None) -> AlgebraElement:
    """Random sparse element with terms of every degree up to `degree`, on
    the basis indices `support` (default: all)."""
    return AlgebraElement(spacetime, random_terms(
        rng, spacetime, degree, n_terms, integer, support))


def random_terms(rng: np.random.Generator, spacetime: LatticeSpacetime,
                 degree: int, n_terms: int = 6, integer: bool = False,
                 support=None) -> dict[MultiIndex, complex]:
    """The drawn multi-index -> coefficient dict of `random_element`."""
    pool = np.arange(spacetime.data_dim) if support is None \
        else np.asarray(support)
    terms: dict[MultiIndex, complex] = {}
    for _ in range(n_terms):
        k = int(rng.integers(0, degree + 1))
        idx = tuple(sorted(int(i) for i in
                           pool[rng.integers(0, len(pool), size=k)]))
        if integer:
            c = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if c == 0:
                c = 1.0
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
        terms[idx] = terms.get(idx, 0.0) + c
    return terms


def check_degree_cap(a: AlgebraElement, cap: int):
    if a.degree > cap:
        raise DegreeCapExceeded(f"degree {a.degree} exceeds cap {cap}")
