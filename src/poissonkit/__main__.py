"""``python -m poissonkit``: the poissonkit command."""

from .cli import main

main()
