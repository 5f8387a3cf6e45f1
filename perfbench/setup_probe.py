"""Set-up time of one fresh interpreter: import ``anisoradon.cli``, then load
and validate each spec file named on the command line.  Prints the seconds
this took.

    python3 perfbench/setup_probe.py SPEC.json [SPEC.json ...]
"""

import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import anisoradon.cli  # noqa: E402,F401
from anisoradon.exponents import check_homogeneity  # noqa: E402
from anisoradon.specfile import load_spec  # noqa: E402

for path in sys.argv[1:]:
    check_homogeneity(load_spec(path))
print(perf_counter() - start)
