"""Put the rrt sources of the checkout this benchmark sits in on ``sys.path``.

The benchmark measures the program built from the checkout around it, never
an installed copy. Without ``src/rrt`` next to this directory it exits with
status 2 before anything runs.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "rrt" / "__init__.py").is_file():
    print(f"rrt sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
