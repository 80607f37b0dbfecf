"""``python -m heatchern``: the command-line interface of ``heatchern.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
