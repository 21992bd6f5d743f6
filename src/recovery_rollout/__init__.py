"""Rollout planning for post-hazard restoration of interdependent power
and water networks."""

__version__ = "0.1.0"
