"""``python -m turf``: the ``turf`` command line."""

import sys

from turf.cli import main

if __name__ == "__main__":
    sys.exit(main())
