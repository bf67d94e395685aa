"""`python -m ergolab`: the command-line interface of ergolab.cli."""
from .cli import main

raise SystemExit(main())
