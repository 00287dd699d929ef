"""Sequential model comparison by proper scoring rules.

Score one-step-ahead predictive distributions as each observation arrives,
accumulate the per-step score differences between models, and select the
model whose predictions have performed best so far.  Two rules are built in:
the log score and a gradient-based score that depends on a density only
through the derivatives of its log, so normalizing constants (and hence
improper predictives from flat priors) never matter.

The :mod:`preqscore.experiments` layer adds seeded, exactly reproducible
Monte Carlo experiments over this machinery, also reachable from the
``preqscore`` command-line tool.
"""

from . import densities, errors, experiments, models, prequential, scores, stationary, streams
from .densities import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .models import *  # noqa: F403
from .prequential import *  # noqa: F403
from .scores import *  # noqa: F403
from .stationary import *  # noqa: F403
from .streams import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (densities, errors, experiments, models, prequential, scores, stationary, streams)
    for name in module.__all__
] + ["__version__"]
