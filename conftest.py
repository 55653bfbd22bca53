"""Set-up shared by the test suites under `tests/` and `perfbench/`.

Puts this checkout's `src/` on the import path, as
`perfbench/workloads.import_reglang` does, so that the tests need no
PYTHONPATH.  Then binds every public name of reglang, loading the
analysis layers that `import reglang` leaves to first use:
`perfbench/tracer.py` wraps the functions of the reglang modules already
loaded and restores, on uninstall, the package attributes already bound,
so a test that traces a layer before anything else has touched it would
otherwise find the layer missing, or leave a traced function bound in
the package.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import reglang  # noqa: E402

for name in reglang.__all__:
    getattr(reglang, name)
