"""``python -m qchar.cli``: the same command line as the ``qchar`` script.

``import qchar`` imports this package, so running it as a package keeps one
copy of the module; runpy would warn about running an imported module.
"""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
