"""``python -m toughham``: the ``toughham`` command line without an install."""

import sys

from .cli import main

sys.exit(main())
