"""Strategy-guided collision avoidance for tight parking environments.

Desk-scale (1/10) two-vehicle parking laboratory: an ego vehicle (EV)
traverses a parking lot lane while a target vehicle (TV) executes a parking
maneuver.  A learned strategy predictor turns TV predictions into hyperplane
constraints that guide an optimization-based collision-avoidance MPC, and a
policy supervisor falls back to a speed-profile safety controller or an
emergency brake when the MPC cannot be trusted.
"""

import logging
import os

__version__ = "0.1.0"

_LOG_ENV = "TIGHTNAV_LOG"


def configure_logging(level: str | None = None) -> None:
    """Configure the package logger from an explicit level or TIGHTNAV_LOG.

    The name is a logging level name in any case; any other name means
    WARNING.
    """
    name = level or os.environ.get(_LOG_ENV, "WARNING")
    resolved = logging.getLevelNamesMapping().get(name.upper(), logging.WARNING)
    logging.basicConfig(
        level=resolved,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    logging.getLogger("tightnav").setLevel(resolved)
