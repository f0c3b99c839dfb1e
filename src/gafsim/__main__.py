"""Entry point for ``python -m gafsim``; same commands as the ``gafsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
