"""The package binds only its version; the library lives in its modules."""

import json
import subprocess
import sys

PROBE = """
import json, sys
import qsobolev
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "submodules": sorted(m for m in sys.modules if m.startswith("qsobolev.")),
    "names": sorted(n for n in vars(qsobolev) if not n.startswith("__") or n in ("__all__", "__version__")),
}))
"""


def test_import_loads_no_numpy_and_no_submodule(tmp_path):
    # A fresh interpreter, so no module that this test session imported counts.
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["numpy"] is False
    assert found["submodules"] == []
    assert found["names"] == ["__version__"]
