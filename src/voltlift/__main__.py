"""``python -m voltlift``: the voltlift command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
