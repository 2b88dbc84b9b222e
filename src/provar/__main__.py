"""``python -m provar``: the command line of ``provar.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
