"""``python -m borelstein``: the same command line as the ``borelstein`` script."""

import sys

from .cli import main

sys.exit(main())
