"""``python -m blslab``: the same command line as the ``blslab`` script."""

from .cli import main

main()
