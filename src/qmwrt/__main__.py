"""`python -m qmwrt ...` runs the qmwrt command line (see `qmwrt.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
