"""Quantum relative entropies through pure-state unravelings.

The package builds the common basis in which two faithful density matrices
are simultaneously diagonal convex mixtures of (generally non-orthogonal)
pure states, evaluates the Belavkin-Staszewski, Umegaki, and unraveled
relative entropies on top of it, and exercises the construction against
channels, Lindblad flows, stochastic trajectories, and Sanov-type large
deviation rates.

Each module owns its public names in its own ``__all__``; the package
republishes them, in module order and each name once, plus ``errors``.
"""

from .matcore import *
from .states import *
from .ensembles import *
from .commonbasis import *
from .entropy import *
from .dynamics import *
from .ldp import *
from . import commonbasis, dynamics, ensembles, entropy, errors, ldp, matcore, states

__version__ = "0.1.0"

__all__ = list(
    dict.fromkeys(
        name
        for module in (matcore, states, ensembles, commonbasis, entropy, dynamics, ldp)
        for name in module.__all__
    )
) + ["errors"]
