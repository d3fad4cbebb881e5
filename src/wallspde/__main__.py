"""``python -m wallspde`` runs the batch front-end, like the ``wallspde`` script."""

import sys

from wallspde.cli import main

if __name__ == "__main__":
    sys.exit(main())
