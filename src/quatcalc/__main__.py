"""``python -m quatcalc``: the same command line as the ``quatcalc`` script."""

import sys

from .cli import main

sys.exit(main())
