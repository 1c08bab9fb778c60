"""Keep a tracked surface vehicle inside an elliptical camera ROI with
minimal pan/tilt motion.

The package bundles the reactive controller, a deterministic closed-loop
simulator with two test arenas, sensitivity metrics, and the ASCII serial
encoding used to drive the gimbal.  Names are imported from their modules
(``roitrack.controller``, ``roitrack.trials``, ``roitrack.metrics`` and so
on); the package root holds only the version that ``roitrack.cli`` writes
into each run's manifest.
"""

__version__ = "0.1.0"
