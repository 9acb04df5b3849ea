"""Run the command-line interface: ``python -m pdom``."""

from .cli import run

if __name__ == "__main__":
    run()
