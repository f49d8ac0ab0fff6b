"""Triangle-transformation toolkit built on pairwise angle averaging."""

from . import angle_dynamics, mesh_io, plane_geometry, simple_mesh
from .angle_dynamics import *
from .mesh_io import *
from .plane_geometry import *
from .simple_mesh import *

__version__ = "0.1.0"

__all__ = []
__all__ += angle_dynamics.__all__
__all__ += plane_geometry.__all__
__all__ += simple_mesh.__all__
__all__ += mesh_io.__all__
