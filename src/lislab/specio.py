"""Kernel spec files: strict JSON parsing and builtin generators.

A spec document is a single JSON object:

    {
      "label": "K1",                      // optional
      "alphabet": {
        "symbols": ["0", "1"],
        "metric": [[0, 1], [1, 0]]        // optional, discrete by default
      },
      "memory_depth": 1,
      "kernel": { ... }                   // one of the families below
    }

Kernel families (``rows`` are conditional distributions indexed by the
lexicographic code of the conditioning past, oldest site first):

    {"type": "markov", "range": 1, "rows": [[0.7, 0.3], [0.3, 0.7]]}
    {"type": "table", "rows": [[...], ...]}
    {"type": "linear", "intercept": 0.0, "coefficients": [a1, ...],
     "tail": 0.0}
    {"type": "site_indexed", "default": {...}, "overrides": {"0": {...}}}

Unknown fields are rejected everywhere: silently ignoring a misspelled
field would silently change every downstream verdict.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .core import AlphabetSpec
from .kernels import (
    GeneralTable,
    KernelSpec,
    LinearLongMemory,
    MarkovTable,
    SiteIndexed,
)


class SpecError(ValueError):
    """A spec document is malformed."""


def _require_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SpecError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = required - set(doc)
    if missing:
        raise SpecError(f"missing field(s) {sorted(missing)} in {where}")


def _number(x, where: str) -> float:
    # bool is a subclass of int, but JSON true is not a number
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SpecError(f"non-numeric entry {x!r} in {where}")
    try:
        return float(x)
    except OverflowError:
        raise SpecError(f"entry in {where} is out of range") from None


def _integer(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SpecError(f"{where} must be an integer")
    return x


def _as_rows(raw, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise SpecError(f"{where} must be a list of rows")
    return tuple(tuple(_number(x, where) for x in row) for row in raw)


def _parse_alphabet(doc) -> AlphabetSpec:
    if not isinstance(doc, dict):
        raise SpecError("alphabet must be an object")
    _require_keys(doc, {"symbols", "metric"}, {"symbols"}, "alphabet")
    symbols = doc["symbols"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise SpecError("alphabet.symbols must be a list of strings")
    metric = _as_rows(doc["metric"], "alphabet.metric") if "metric" in doc else None
    try:
        if metric is None:
            return AlphabetSpec.discrete(tuple(symbols))
        return AlphabetSpec(tuple(symbols), metric)
    except ValueError as exc:
        raise SpecError(f"invalid alphabet: {exc}") from None


def _parse_family(doc, depth: int, where: str = "kernel"):
    if not isinstance(doc, dict):
        raise SpecError(f"{where} must be an object")
    kind = doc.get("type")
    if kind == "markov":
        _require_keys(doc, {"type", "range", "rows"}, {"type", "range", "rows"}, where)
        order = _integer(doc["range"], f"{where}.range")
        return MarkovTable(order, _as_rows(doc["rows"], f"{where}.rows"))
    if kind == "table":
        _require_keys(doc, {"type", "rows"}, {"type", "rows"}, where)
        return GeneralTable(_as_rows(doc["rows"], f"{where}.rows"))
    if kind == "linear":
        _require_keys(
            doc, {"type", "intercept", "coefficients", "tail"}, {"type", "coefficients"}, where
        )
        coeffs = doc["coefficients"]
        if not isinstance(coeffs, list):
            raise SpecError(f"{where}.coefficients must be a list")
        return LinearLongMemory(
            _number(doc.get("intercept", 0.0), f"{where}.intercept"),
            tuple(_number(a, f"{where}.coefficients") for a in coeffs),
            _number(doc.get("tail", 0.0), f"{where}.tail"),
        )
    if kind == "site_indexed":
        _require_keys(doc, {"type", "default", "overrides"}, {"type", "default", "overrides"}, where)
        default = _parse_family(doc["default"], depth, f"{where}.default")
        overrides = doc["overrides"]
        if not isinstance(overrides, dict):
            raise SpecError(f"{where}.overrides must be an object keyed by site")
        pairs = []
        for key, sub in overrides.items():
            try:
                site = int(key)
            except ValueError:
                site = None
            # only the canonical spelling: int() also reads "1_0", " 5" and "+5"
            if str(site) != key:
                raise SpecError(f"{where}.overrides key {key!r} is not a site index")
            pairs.append((site, _parse_family(sub, depth, f"{where}.overrides[{key}]")))
        return SiteIndexed(default, tuple(sorted(pairs)))
    raise SpecError(f"{where}.type must be markov|table|linear|site_indexed, got {kind!r}")


def parse_spec(doc) -> KernelSpec:
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    _require_keys(
        doc,
        {"label", "alphabet", "memory_depth", "kernel"},
        {"alphabet", "memory_depth", "kernel"},
        "spec",
    )
    depth = _integer(doc["memory_depth"], "memory_depth")
    if depth < 0:
        raise SpecError("memory_depth must be a non-negative integer")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SpecError("label must be a string")
    alphabet = _parse_alphabet(doc["alphabet"])
    family = _parse_family(doc["kernel"], depth)
    try:
        return KernelSpec(alphabet, depth, family, label=label)
    except ValueError as exc:
        raise SpecError(f"invalid kernel: {exc}") from None


def spec_sha256(source: bytes) -> str:
    """Hex SHA-256 of a spec's source bytes, the ``sha256`` a report gives for its spec."""
    return hashlib.sha256(source).hexdigest()


def load_spec_file(path: "str | Path") -> tuple[KernelSpec, dict]:
    """Parse a spec file; returns the kernel and source metadata."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from None
    kernel = parse_spec(doc)
    meta = {
        "path": str(path),
        "sha256": spec_sha256(raw),
        "label": kernel.label,
    }
    return kernel, meta


def kernel_to_doc(f: KernelSpec) -> dict:
    """Spec document for a kernel (inverse of ``parse_spec``)."""

    def family_doc(fam) -> dict:
        if isinstance(fam, MarkovTable):
            return {"type": "markov", "range": fam.order, "rows": [list(r) for r in fam.rows]}
        if isinstance(fam, GeneralTable):
            return {"type": "table", "rows": [list(r) for r in fam.rows]}
        if isinstance(fam, LinearLongMemory):
            return {
                "type": "linear",
                "intercept": fam.intercept,
                "coefficients": list(fam.coefficients),
                "tail": fam.coefficient_tail,
            }
        return {
            "type": "site_indexed",
            "default": family_doc(fam.default),
            "overrides": {str(site): family_doc(sub) for site, sub in fam.overrides},
        }

    doc = {
        "alphabet": {
            "symbols": list(f.alphabet.symbols),
            "metric": [list(row) for row in f.alphabet.metric],
        },
        "memory_depth": f.memory_depth,
        "kernel": family_doc(f.family),
    }
    if f.label:
        doc["label"] = f.label
    return doc


def two_state_markov(p1_given_0: float, p1_given_1: float, label: str = "") -> KernelSpec:
    """Binary one-step chain from the two 'stay at 1' probabilities."""
    alphabet = AlphabetSpec.binary()
    rows = ((1.0 - p1_given_0, p1_given_0), (1.0 - p1_given_1, p1_given_1))
    return KernelSpec(alphabet, 1, MarkovTable(1, rows), label=label)


# Cephes' rational approximation of zeta(x) - 1 on 1 < x <= 10 (zetac.c)
_ZETAC_P = (
    5.85746514569725319540e11, 2.57534127756102572888e11, 4.87781159567948256438e10,
    5.15399538023885770696e9, 3.41646073514754094281e8, 1.60837006880656492731e7,
    5.92785467342109522998e5, 1.51129169964938823117e4, 2.01822444485997955865e2,
)
_ZETAC_Q = (
    1.0, 3.90497676373371157516e11, 5.22858235368272161797e10, 5.64451517271280543351e9,
    3.39006746015350418834e8, 1.79410371500126453702e7, 5.66666825131384797029e5,
    1.60382976810944131506e4, 1.96436237223387314144e2,
)
# divisors of the Euler-Maclaurin correction terms of Cephes' zeta.c
_HURWITZ_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _horner(coefficients: tuple[float, ...], w: float) -> float:
    acc = coefficients[0]
    for c in coefficients[1:]:
        acc = acc * w + c
    return acc


def _riemann_zeta(x: float) -> float:
    """Riemann zeta for non-integer ``1 < x <= 10``, the Cephes rational form.

    Same operations in the same order as Cephes, so the result equals
    scipy's ``zeta(x)`` bit for bit; integers are left out because Cephes
    reads them from a table instead.
    """
    if not 1.0 < x <= 10.0 or x == math.floor(x):
        raise ValueError(f"riemann zeta is implemented for non-integer 1 < x <= 10, got {x!r}")
    w = 1.0 / x
    return 1.0 + (x * _horner(_ZETAC_P, w)) / (2.0**x * (x - 1.0) * _horner(_ZETAC_Q, w))


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta ``sum_{k >= 0} (k + q)**-x`` for ``x > 1``, ``q > 0``.

    Cephes' Euler-Maclaurin summation with its asymptotic branch for
    ``q > 1e8``, step for step, so the result equals
    scipy's ``zeta(x, q)`` bit for bit.
    """
    if not (x > 1.0 and q > 0.0):
        raise ValueError(f"hurwitz zeta needs x > 1 and q > 0, got {x!r}, {q!r}")
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q**-x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for divisor in _HURWITZ_A:
        a *= x + k
        b /= w
        t = a * b / divisor
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def power_law_linear(
    epsilon: float,
    depth: int,
    normalization: str = "full",
    label: str = "",
) -> KernelSpec:
    """Binary long-memory family with power-law coefficients.

    Coefficient at lag k is ``(1 - epsilon) / (M * k**(1 + epsilon))``.
    With ``normalization="full"`` M is the full series sum, the Riemann
    zeta at ``1 + epsilon``, so the truncation leaves a reported tail,
    ``(1 - epsilon)`` times the Hurwitz zeta at ``(1 + epsilon, depth + 1)``
    over M; with ``"partial"`` M is the sum of the first ``depth`` terms
    (so the kept coefficients sum to exactly ``1 - epsilon``).  Both zeta
    values come from pure-Python ports of the Cephes routines behind
    scipy's ``zeta``, equal to it bit for bit: building the kernel imports
    no scipy module, and every coefficient, and so the spec hash over
    them, is the one scipy's values give.
    """
    if not 0.0 < epsilon < 1.0 or 1.0 + epsilon == 1.0:  # zeta has its pole at 1
        raise ValueError(f"epsilon must lie in (0, 1) with 1 + epsilon > 1, got {epsilon!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    exponent = 1.0 + epsilon
    partial = sum(k ** (-exponent) for k in range(1, depth + 1))
    if normalization == "full":
        m = _riemann_zeta(exponent)
        tail = (1.0 - epsilon) * _hurwitz_zeta(exponent, float(depth + 1)) / m
    elif normalization == "partial":
        m = partial
        tail = 0.0
    else:
        raise ValueError("normalization must be 'full' or 'partial'")
    coeffs = tuple((1.0 - epsilon) / (m * k**exponent) for k in range(1, depth + 1))
    family = LinearLongMemory(0.0, coeffs, coefficient_tail=tail)
    return KernelSpec(AlphabetSpec.binary(), depth, family, label=label)
