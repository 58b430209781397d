#!/usr/bin/env python3
"""Entry point of the qhakit benchmark; see bench/harness.py for what it measures.

    python3 bench/run.py --workload catalog|dense|files --seed N --seconds S --trace 0|1
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True   # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
