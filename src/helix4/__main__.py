"""``python -m helix4``: the ``helix4`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
