"""Verification toolkit for projection inequalities of antichains.

Discrete side: dominance orders on integer lattice points, the greedy
partition certificate behind the counting inequality, projection-gap scans,
and exact grid-poset widths as layers a chain cover certifies.  Continuous
side: cube-grid covering bounds, surface and projection measures of
order-reversing graphs, the shear map, skewed projections in the plane, and
the singular staircase.
"""

# each module's __all__ but quadrature's is the package's public interface

from .estimate import *
from .extremal import *
from .gridcover import *
from .lattice import *
from .partition import *
from .shear import *
from .surfaces import *

__version__ = "0.1.0"
