import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

from grpsel import bilevel, gcd
from grpsel.penalties import PenaltySpec

from conftest import gaussian_design

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_library_imports_without_scipy():
    # numpy is the only runtime dependency; importing scipy would also put
    # ~0.3 s back on every CLI start
    code = (
        "import sys\n"
        "import grpsel, grpsel.cli, grpsel.cv, grpsel.paths, grpsel.theory, grpsel.bilevel\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_traced_benchmark_patch_targets_resolve():
    # the traced benchmark wraps library functions by module and name; a
    # renamed or moved function must fail here, not only in a benchmark run
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(ROOT, "bench", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for target, attr, _, _ in layers.PATCHES:
        owner = importlib.import_module(target) if isinstance(target, str) else target
        assert callable(getattr(owner, attr, None)), f"{target}.{attr}"


def test_fit_gcd_calls_the_kernel_through_module_globals(monkeypatch):
    # the traced benchmark counts group updates by wrapping
    # grpsel.gcd.solve_single_group; a sweep that bound the kernel to a local
    # name, or inlined it, would make that count read 0
    class Called(Exception):
        pass

    def stub(*args):
        raise Called

    design, _ = gaussian_design(30, [2, 3], sigma=1.0, seed=0)
    monkeypatch.setattr(gcd, "solve_single_group", stub)
    with pytest.raises(Called):
        gcd.fit_gcd(design, PenaltySpec("gmcp", lam=0.5 * gcd.lambda_max(design)))


def test_fit_lcd_calls_the_threshold_through_module_globals(monkeypatch):
    # the traced benchmark counts coordinate updates (bilevel.coord_updates)
    # by wrapping grpsel.bilevel.soft_threshold
    class Called(Exception):
        pass

    def stub(*args):
        raise Called

    design, _ = gaussian_design(30, [2, 3], sigma=1.0, seed=0, orthonormalize=False)
    monkeypatch.setattr(bilevel, "soft_threshold", stub)
    with pytest.raises(Called):
        bilevel.fit_lcd(design, PenaltySpec("cmcp", lam=0.5 * bilevel.cmcp_lambda_max(design)))


def test_sgl_calls_the_threshold_through_module_globals(monkeypatch):
    # the sgl sweep calls grpsel.bilevel.soft_threshold once per coordinate
    # of every group visit, so the traced bench's wrapper sees those calls
    class Called(Exception):
        pass

    def stub(*args):
        raise Called

    design, _ = gaussian_design(30, [2, 3], sigma=1.0, seed=0, orthonormalize=False)
    monkeypatch.setattr(bilevel, "soft_threshold", stub)
    with pytest.raises(Called):
        bilevel.fit_sparse_group_lasso(design, 0.01, 0.01)
