"""Makes ``python -m pytest benchmarks/ledger`` self-contained: the
ledger's modules and ``src/repro`` on the import path, as ``run.py`` sets
them up for itself.  (Not collected by the tier-1 suite, whose
``testpaths`` is ``tests``.)"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
