"""Bundled data files: the demonstration scenarios.

The ``.scn`` files under ``data/`` are the only definition of the bundled scenarios.
"""

from __future__ import annotations

from importlib import resources


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario file shipped with the package."""
    return resources.files("ssmcell").joinpath("data", f"{name}.scn")
