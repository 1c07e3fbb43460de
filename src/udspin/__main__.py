"""python -m udspin: the udspin command line."""

from .cli import entry

entry()
