"""``python -m mrkit``: the same command line as the ``mrkit`` script."""
import sys

from .cli import main

sys.exit(main())
