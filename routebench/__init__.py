"""Layered end-to-end benchmark of the router (see ``routebench/run.py``)."""
