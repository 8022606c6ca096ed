"""``python -m slicescope ARGS`` runs the command line, like ``slicescope ARGS``."""

import sys

from .cli import main

sys.exit(main())
