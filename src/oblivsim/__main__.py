"""``python -m oblivsim``: the command-line interface."""

from .cli import main

raise SystemExit(main())
