"""``python -m dtebell``: the same entry point as the ``dtebell`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
