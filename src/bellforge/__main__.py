"""``python -m bellforge``: the same command line as the ``bellforge`` script."""

import sys

from .cli import main

sys.exit(main())
