"""The package stays numpy-only at run time: importing scipy costs a node
~0.2-0.3 s of start-up and ~32 MB of resident memory, so it must not come in
through the back door of a module the nodes load."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_node_modules_do_not_import_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import gridmesh, gridmesh.nodes, gridmesh.virtualdemo; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
