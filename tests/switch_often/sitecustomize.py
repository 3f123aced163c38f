"""Makes the interpreter switch threads every 10 µs instead of every 5 ms.

Put this directory on ``PYTHONPATH`` to run the suite with threads
interleaving far more often than they do by default, so that races between
server threads and callers writing one table at once show up:

    PYTHONPATH=src:tests/switch_often python -m pytest -q
"""

import sys

sys.setswitchinterval(1e-5)
