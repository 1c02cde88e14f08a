"""Verification workbench for characteristic-function identities on
finite abelian groups and the circle group.

The package decides independence, factorization and regression-type
characterization questions by direct computation: Fourier transforms on
finite abelian groups are FFTs over the cyclic factors, log-transform
identities are checked pointwise, and the supporting finite-difference
arguments are replayed as explicit elimination chains whose residuals
are reported step by step.
"""

# Each module's ``__all__`` is its public surface, and the package exports
# all of them.  kernels comes after measures: ``qchar.convolve`` is the
# array kernel, ``qchar.measures.convolve`` the convolution of laws.
from .errors import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .polynomials import *  # noqa: F401,F403
from .witnesses import *  # noqa: F401,F403
from .circle import *  # noqa: F401,F403
from .elimination import *  # noqa: F401,F403
from .characterizers import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from . import (characterizers, circle, cli, elimination, errors, groups, kernels, measures,
               polynomials, scenarios, witnesses)

__version__ = "0.1.0"

__all__ = list(dict.fromkeys(
    name for module in (errors, groups, measures, kernels, polynomials, witnesses, circle,
                        elimination, characterizers, scenarios, cli)
    for name in module.__all__))
