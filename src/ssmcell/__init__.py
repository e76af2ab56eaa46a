"""Deterministic simulator for a speed-and-separation-monitored collaborative cell."""

__version__ = "0.1.0"
