"""Summary-data Mendelian randomization estimators and simulation engine.

The package re-exports the public names of its five library modules: its
``__all__`` is theirs, in module order, plus ``__version__``.
"""
from . import data, estimators, orientation, regression, simulation
from .data import *
from .estimators import *
from .orientation import *
from .regression import *
from .simulation import *

__version__ = "0.1.0"

__all__ = [*data.__all__, *estimators.__all__, *orientation.__all__,
           *regression.__all__, *simulation.__all__, "__version__"]
