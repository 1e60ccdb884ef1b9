"""Prints the set-up cost a piisub user pays before any document is touched.

    python3 perfbench/setup_probe.py

Run from the root of a checkout, in a fresh interpreter each time: the
printed figure is the seconds to import `piisub.cli` plus the first
`builtin_catalog()` call, which builds and validates the shipped pools.
"""

import sys
import time

sys.path.insert(0, "src")

t0 = time.perf_counter()
import piisub.cli  # noqa: E402,F401
from piisub.pools import builtin_catalog  # noqa: E402

builtin_catalog()
print(repr(time.perf_counter() - t0))
