"""``python -m fbcompose``: the same commands as the ``fbcompose`` script."""

from .cli import main

if __name__ == "__main__":
    main()
