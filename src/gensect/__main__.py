"""``python -m gensect``: the ``gensect`` command without the console script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
