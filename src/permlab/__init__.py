"""Unfair and inverse-unfair random permutations.

Players 1..n each draw uniform scores, player i keeping the best of i
attempts; ranking the scores gives the inverse-unfair permutation and its
inverse is the unfair one.  The package provides exact laws and closed-form
moments, fast samplers and permutation statistics, Monte Carlo normality
checks, and a size-bias coupling with a Stein-method error bound.
"""
from . import exact, models, montecarlo, perm, rng, sizebias, stats
from .exact import *
from .models import *
from .montecarlo import *
from .perm import *
from .rng import *
from .sizebias import *
from .stats import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, *models.__all__, *montecarlo.__all__, *perm.__all__,
           *rng.__all__, *sizebias.__all__, *stats.__all__]
