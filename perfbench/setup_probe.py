"""Set-up time a user pays on every CLI call, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py SCENARIO_FILE

Times `import pilotpath`, `load_scenario` and `build_walk`, and prints the
seconds as its only line.  run.py starts it with PYTHONPATH set to src/.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402

import pilotpath  # noqa: E402,F401
from pilotpath.scenario import build_walk, load_scenario  # noqa: E402

build_walk(load_scenario(sys.argv[1]))
print(repr(time.perf_counter() - _start))
