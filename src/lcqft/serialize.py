"""Deterministic JSON writer for reports, and the golden-report comparison.

`dumps` writes the bytes of the standard library's `json.dumps` with sorted
keys, indent 2, non-ASCII kept and no NaN or infinity, and can stream each
piece to a text stream as it is made. A numpy array (a classify generator)
is written as the nested list its `tolist()` gives, one row at a time, so no
Python list of the whole array is built: each float row joins "0.0" for its
zeros and the repr of its other entries in one pass, and its finiteness is
checked on the array. Floats take their shortest
round-trip form, so a parsed report holds the exact floats that were
written. One configuration yields byte-identical reports on one build and
BLAS thread count (timings are the only run-dependent fields;
comparisons strip them).
Across machines only the report's contract is byte-identical: roundoff-floor
residuals that pass through BLAS/LAPACK change in their last bits with the
BLAS kernel and thread count, so `golden_mismatches` compares those within
a band (`GOLDEN_RTOL`, `GOLDEN_ATOL`).
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring   # TypeError on a non-str key

import numpy as np

from .errors import NonFiniteReport

_scalar = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode


def dumps(obj, out=None) -> str | None:
    """Report text: sorted keys, indent 2, non-ASCII kept; `NonFiniteReport`
    (a ValueError) on a NaN or an infinity, TypeError on a non-str key. Given
    a text stream `out`, each piece goes to it as it is made; returns None."""
    pieces: list[str] = []
    try:
        _write(obj, "\n", pieces.append if out is None else out.write)
    except ValueError as exc:   # the writer's check or the scalar encoder's
        raise NonFiniteReport(f"non-finite value in the report: {exc}") from exc
    return "".join(pieces) if out is None else None


def _write(obj, newline: str, write) -> None:
    """Pass the text of obj to `write`, its nested lines after `newline`."""
    inner = newline + "  "
    if isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        _write_rows(obj, newline, write)
        return
    if isinstance(obj, dict) and obj:
        items = [(encode_basestring(k) + ": ", obj[k]) for k in sorted(obj)]
    elif isinstance(obj, (list, tuple)) and obj:
        items = [("", value) for value in obj]
    else:   # a scalar or an empty container
        write(_scalar(obj))
        return
    brackets = "{}" if isinstance(obj, dict) else "[]"
    for i, (head, value) in enumerate(items):
        write(("," if i else brackets[0]) + inner + head)
        _write(value, inner, write)
    write(newline + brackets[1])


def _float_row(row: np.ndarray, newline: str) -> str:
    """A non-empty 1-D float array in one join: "0.0" for each +0.0, the
    repr of every other entry (-0.0 included)."""
    inner = newline + "  "
    texts = ["0.0"] * len(row)
    at = np.flatnonzero((row != 0) | np.signbit(row))
    for i, value in zip(at.tolist(), row[at].tolist()):
        texts[i] = repr(value)
    return f"[{inner}{(',' + inner).join(texts)}{newline}]"


def _write_rows(arr: np.ndarray, newline: str, write) -> None:
    """Pass the text of arr.tolist() to `write`, converting one 1-D row at a
    time; the caller has checked that arr is finite."""
    if arr.ndim == 1 and arr.dtype.kind == "f" and len(arr):
        write(_float_row(arr, newline))
        return
    if arr.ndim <= 1 or not len(arr):
        _write(arr.tolist(), newline, write)
        return
    inner = newline + "  "
    for i, row in enumerate(arr):
        write(("," if i else "[") + inner)
        _write_rows(row, inner, write)
    write(newline + "]")


def strip_timings(obj):
    """Recursive copy with every 'timings' key removed (golden comparisons)."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


# Band for measured residuals against a golden report:
#   |fresh - golden| <= GOLDEN_RTOL * |golden| + GOLDEN_ATOL.
# Across OpenBLAS kernels (OPENBLAS_CORETYPE=Haswell/SandyBridge/Prescott,
# AVX-512) and thread counts the roundoff-floor residuals moved by at most
# 7.4e-15 absolute and 1.5x relative (kinematic_membership 1.54e-14 ->
# 2.27e-14). GOLDEN_RTOL lets a measurement at most double; GOLDEN_ATOL covers
# a residual that is 0.0 in the golden and roundoff elsewhere, and sits 10x
# below the smallest non-zero threshold (1e-13), so a drift toward any bound
# fails the golden comparison before it fails the suite.
GOLDEN_RTOL = 1.0
GOLDEN_ATOL = 1e-14


def golden_mismatches(golden: dict, fresh: dict) -> list[str]:
    """Compare a fresh report (timings stripped) against a golden one.

    The contract - schema, version, seed, config, status, and per suite its
    name, status, dimensions, thresholds, findings, residual keys and the
    value of every exact check (threshold 0.0) - must serialize identically.
    Every other residual is a measurement and must lie within the golden
    band. Returns one line per mismatching path; empty means a match.
    """
    out: list[str] = []
    _exact_mismatches({k: v for k, v in golden.items() if k != "suites"},
                      {k: v for k, v in fresh.items() if k != "suites"},
                      "", out)
    g_names = [s["name"] for s in golden["suites"]]
    f_names = [s["name"] for s in fresh["suites"]]
    if g_names != f_names:
        out.append(f"suites golden={g_names} fresh={f_names}")
        return out
    for g_suite, f_suite in zip(golden["suites"], fresh["suites"]):
        path = f"suites[{g_suite['name']}]"
        _exact_mismatches(
            {k: v for k, v in g_suite.items() if k != "residuals"},
            {k: v for k, v in f_suite.items() if k != "residuals"},
            path, out)
        g_res, f_res = g_suite["residuals"], f_suite["residuals"]
        if sorted(g_res) != sorted(f_res):
            out.append(f"{path}.residuals keys golden={sorted(g_res)} "
                       f"fresh={sorted(f_res)}")
        for key in sorted(set(g_res) & set(f_res)):
            g, f = g_res[key], f_res[key]
            key_path = f"{path}.residuals.{key}"
            if g_suite["thresholds"].get(key) == 0.0:
                _exact_mismatches(g, f, key_path, out)
                continue
            if not in_golden_band(g, f):
                out.append(f"{key_path} golden={g:.3g} fresh={f:.3g} "
                           f"band={GOLDEN_RTOL * abs(g) + GOLDEN_ATOL:.3g}")
    return out


def in_golden_band(golden: float, fresh: float) -> bool:
    """Whether a fresh measured residual lies within the golden's band."""
    return abs(fresh - golden) <= GOLDEN_RTOL * abs(golden) + GOLDEN_ATOL


def _exact_mismatches(golden, fresh, path: str, out: list[str]) -> None:
    """Append each path under which golden and fresh serialize differently."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in fresh:
                out.append(f"{sub} missing from fresh report")
            elif key not in golden:
                out.append(f"{sub} not in golden report")
            else:
                _exact_mismatches(golden[key], fresh[key], sub, out)
    elif dumps(golden) != dumps(fresh):
        out.append(f"{path} golden={golden!r} fresh={fresh!r}")
