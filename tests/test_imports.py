import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
