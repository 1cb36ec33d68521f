import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from spanbench import THREAD_VARIABLES  # noqa: E402

for name in THREAD_VARIABLES:
    os.environ[name] = "1"

import spanfeat.cli  # noqa: E402,F401  (load every module before the tracer patches them)
