"""What importing the package loads, seen from a fresh interpreter."""

import json
import os
import subprocess
import sys

import girit

_PROBE = """
import json, sys
import girit
package = sorted(m for m in sys.modules if m.startswith("girit."))
import girit.util, girit.analysis, girit.corpus, girit.errors
print(json.dumps([package, "numpy" in sys.modules]))
"""


def test_import_girit_loads_no_module_and_the_text_modules_load_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(girit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert json.loads(out.stdout) == [[], False]
