"""``python -m pathpack``: the same command line as the ``pathpack`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
