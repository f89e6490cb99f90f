"""Exact-rational oracle for the deformed product.

Independent evaluation route used by the associativity checks: coefficients
are Gaussian rationals (pairs of Fractions) and every product is reduced
through degree-1 generator multiplications,

    e_{i1..ik} = F(i1) . e_{i2..ik} - (i/2) sum_j sigma(i1, ij) e_{i2..ik \\ j},
    F(u) . M  = u v M + (i/2) sum_j sigma(u, mj) M \\ j,

rather than by enumerating partial matchings. On integer symplectic data the
arithmetic is exact, so associativity holds to equality and the float path
can be compared against it coefficient by coefficient.
"""
from __future__ import annotations

from fractions import Fraction

QRat = tuple[Fraction, Fraction]  # real, imaginary parts

ZERO: QRat = (Fraction(0), Fraction(0))
ONE: QRat = (Fraction(1), Fraction(0))


def qadd(a: QRat, b: QRat) -> QRat:
    return (a[0] + b[0], a[1] + b[1])


def qmul(a: QRat, b: QRat) -> QRat:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _sigma(i: int, j: int, half: int) -> int:
    if i < half and j == i + half:
        return 1
    if i >= half and j == i - half:
        return -1
    return 0


ExactElement = dict[tuple[int, ...], QRat]


def exact_from_complex_terms(terms: dict[tuple[int, ...], complex]) -> ExactElement:
    return {idx: (Fraction(c.real), Fraction(c.imag)) for idx, c in terms.items()}


def _add_term(acc: ExactElement, idx: tuple[int, ...], coeff: QRat):
    cur = acc.get(idx, ZERO)
    new = qadd(cur, coeff)
    if new == ZERO:
        acc.pop(idx, None)
    else:
        acc[idx] = new


def _generator_times_monomial(u: int, mono: tuple[int, ...], half: int
                              ) -> ExactElement:
    """F(u) . (e_mono): symmetric append plus single contractions."""
    out: ExactElement = {}
    _add_term(out, tuple(sorted(mono + (u,))), ONE)
    for j, mj in enumerate(mono):
        s = _sigma(u, mj, half)
        if s:
            rest = mono[:j] + mono[j + 1:]
            _add_term(out, rest, (Fraction(0), Fraction(s, 2)))
    return out


def _monomial_product(ia: tuple[int, ...], ib: tuple[int, ...], half: int
                      ) -> ExactElement:
    if not ia:
        return {ib: ONE}
    u, rest = ia[0], ia[1:]
    # e_ia = F(u) . e_rest - (i/2) sum_j sigma(u, rest_j) e_{rest \ j}
    tail = _monomial_product(rest, ib, half)
    out: ExactElement = {}
    for mono, c in tail.items():
        for idx, w in _generator_times_monomial(u, mono, half).items():
            _add_term(out, idx, qmul(c, w))
    for j, rj in enumerate(rest):
        s = _sigma(u, rj, half)
        if s:
            sub = _monomial_product(rest[:j] + rest[j + 1:], ib, half)
            fac = (Fraction(0), Fraction(-s, 2))
            for idx, c in sub.items():
                _add_term(out, idx, qmul(fac, c))
    return out


def exact_product(a: ExactElement, b: ExactElement, half: int) -> ExactElement:
    out: ExactElement = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            cab = qmul(ca, cb)
            for idx, w in _monomial_product(ia, ib, half).items():
                _add_term(out, idx, qmul(cab, w))
    return out


def max_diff_vs_float(exact: ExactElement,
                      float_terms: dict[tuple[int, ...], complex]) -> float:
    keys = set(exact) | set(float_terms)
    out = 0.0
    for k in keys:
        ex = exact.get(k, ZERO)
        fl = float_terms.get(k, 0.0)
        out = max(out, abs(complex(float(ex[0]), float(ex[1])) - fl))
    return out
