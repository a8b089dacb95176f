"""Bundled example fans, shipped as JSON fan files."""
from __future__ import annotations

import os

NAMES = ("c3", "conifold", "kp2", "c3z3", "c3_bar", "kp2_bar", "c3z3_bar")


def read(name: str) -> str:
    """Contents of a bundled fan file by short name."""
    if name not in NAMES:
        raise KeyError(f"no bundled fan named {name!r}; have {NAMES}")
    path = os.path.join(os.path.dirname(__file__), f"{name}.json")
    with open(path, encoding="utf-8") as f:
        return f.read()


def load(name: str):
    from ..fan import parse_stacky_fan
    return parse_stacky_fan(read(name))
