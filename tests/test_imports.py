import importlib
import importlib.util
import os
import subprocess
import sys

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
