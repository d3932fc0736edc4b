"""``python -m mmhopfield``: the same command line as the ``mmhopfield``
console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
