"""Planar exchange-map dynamics.

A toolkit for a family of planar maps built from exchange-matrix
mutation: the birational map on the positive quadrant, its
piecewise-linear shadow on the whole plane, the conserved quantities
tying them together and the mutation classes they come from.
"""
# each module's __all__ is the one list of its public names
from .errors import *
from .params import *
from .rational import *
from .tropical import *
from .exchange import *
from .orbits import *
from .export import *
from .levelset import *
from .svg import *

__version__ = "0.1.0"
