"""`python -m vguard`: the same command line as the `vguard` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
