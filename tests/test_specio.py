"""The in-house zeta ports behind ``power_law_linear``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lislab.specio import _hurwitz_zeta, _riemann_zeta, power_law_linear

SRC = Path(__file__).resolve().parent.parent / "src"


def _riemann_grid() -> list[float]:
    rng = np.random.default_rng(0)
    grid = np.concatenate([np.linspace(1.0, 2.0, 2001)[1:-1], 1.0 + rng.random(500)])
    above_two = np.linspace(2.0, 10.0, 161)
    above_two = above_two[above_two != np.floor(above_two)]
    return [float(x) for x in (*grid, *above_two, 1.0 + 2.0**-40, 2.0 - 2.0**-52, 10.0 - 2.0**-49)]


def _hurwitz_grid() -> list[tuple[float, float]]:
    xs = [1.5, 1.01, 1.99, *(1.0 + np.random.default_rng(1).random(40))]
    depths = [*range(1, 30), 64, 100, 1000, 10**6, 10**8 - 1, 10**8, 10**9]
    return [(float(x), float(d + 1)) for x in xs for d in depths]


def test_riemann_zeta_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    grid = _riemann_grid()
    mismatched = [x for x in grid if _riemann_zeta(x) != float(special.zeta(x))]
    assert mismatched == []


def test_hurwitz_zeta_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    grid = _hurwitz_grid()
    mismatched = [(x, q) for x, q in grid if _hurwitz_zeta(x, q) != float(special.zeta(x, q))]
    assert mismatched == []


def test_zeta_ports_agree_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    for x in np.linspace(1.01, 1.99, 50):
        x = float(x)
        exact = mpmath.zeta(x)
        assert float(abs(_riemann_zeta(x) - exact) / exact) <= 1e-15
        for q in (2.0, 9.0, 25.0, 65.0, 1001.0, 1e6, 1e9):
            exact = mpmath.zeta(x, q)
            assert float(abs(_hurwitz_zeta(x, q) - exact) / exact) <= 1e-15


@pytest.mark.parametrize("x", [1.0, 0.5, 2.0, 3.0, 10.5, float("nan")])
def test_riemann_zeta_rejects_arguments_off_its_range(x):
    with pytest.raises(ValueError):
        _riemann_zeta(x)


@pytest.mark.parametrize("x, q", [(1.0, 2.0), (1.5, 0.0), (1.5, -2.5), (float("nan"), 2.0)])
def test_hurwitz_zeta_rejects_arguments_off_its_range(x, q):
    with pytest.raises(ValueError):
        _hurwitz_zeta(x, q)


def test_power_law_matches_scipy_normalization():
    special = pytest.importorskip("scipy.special")
    for epsilon in (0.1, 0.5, 0.9):
        for depth in (1, 8, 24, 64):
            f = power_law_linear(epsilon, depth)
            m = float(special.zeta(1.0 + epsilon))
            tail = (1.0 - epsilon) * float(special.zeta(1.0 + epsilon, depth + 1)) / m
            coeffs = tuple((1.0 - epsilon) / (m * k ** (1.0 + epsilon)) for k in range(1, depth + 1))
            assert f.family.coefficients == coeffs
            assert f.family.coefficient_tail == tail


def test_source_tree_never_names_scipy_special():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "scipy.special" in path.read_text()
    ]
    assert offenders == []


def test_power_law_refuses_an_epsilon_that_vanishes_beside_one():
    with pytest.raises(ValueError, match="epsilon"):
        power_law_linear(1e-320, 8)  # 1 + 1e-320 rounds to 1, where zeta has its pole
    assert power_law_linear(2.0**-52, 8).family.coefficient_tail > 0.0


def test_power_law_build_leaves_scipy_unloaded():
    code = (
        "import sys; from lislab.specio import power_law_linear; power_law_linear(0.5, 64); "
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
