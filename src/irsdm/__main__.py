"""`python -m irsdm ...` runs the command line front end, as the installed
`irsdm` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
