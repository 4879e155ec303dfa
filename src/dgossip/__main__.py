"""``python -m dgossip``: the command-line interface of :mod:`dgossip.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
