"""perfbench: the repo's end-to-end performance yardstick.

Four PDM workloads over the whole client / link / server / engine stack,
measured from outside through public API only.  See ``README.md`` here
and ``BENCHMARK.json`` at the repository root.

Importing the package puts the checkout's ``src`` directory on
``sys.path`` so ``repro`` resolves without an installed distribution
(the benchmark driver runs from a bare checkout).
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
