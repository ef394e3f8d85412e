"""``python -m glmmfp <command> ...`` runs the command-line front end."""

from .cli import entry

entry()
