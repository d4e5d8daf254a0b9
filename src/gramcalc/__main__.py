"""Entry point for ``python -m gramcalc``."""

from .cli import run

if __name__ == "__main__":
    run()
