"""Numeric semantics for spatial relations, shared by solver and validator.

The layout solver and the physics validator implement their geometric
predicates separately (so one cannot silently inherit the other's bugs), but
both read thresholds from this single table; the values below are the
package-wide contract.

Distances are meters. The vertical axis is y; floors sit at y = 0; an
object's placement position is (x, y, z) with x/z the footprint center and
y the bottom face. Directions are the four cardinals in the x-z plane:
north = +z, south = -z, east = +x, west = -x.
"""

from __future__ import annotations

NEAR_MAX = 1.5              # near: center distance <= NEAR_MAX
FAR_MIN = 3.0               # far: center distance >= FAR_MIN
FRONT_MAX = 2.0             # in_front_of: facing ray hits subject within FRONT_MAX
SIDE_LONG_MAX = 0.5         # side_of: |offset along reference facing| <= SIDE_LONG_MAX
CENTER_ALIGNED_EPS = 0.1    # center_aligned: centers within eps on one horizontal axis
EDGE_MAX = 0.3              # edge: footprint within EDGE_MAX of a wall
CENTER_MAX = 0.5            # center: object center within CENTER_MAX of room center
SUPPORT_EPS = 0.01          # resting: bottom face within eps of the support's top face
SUPPORT_OVERLAP_FRAC = 0.5  # resting: horizontal overlap >= frac of subject footprint
MOUNT_EPS = 0.01            # mounted: back face within eps of the wall plane
MOUNT_HEIGHT = 1.4          # default bottom height for wall-mounted objects
WALL_HEIGHT = 3.0           # rooms have no height field; windows must fit under this

CARDINALS = ("north", "south", "east", "west")

# unit facing vectors in the (x, z) plane
DIRECTION_VECTORS = {
    "north": (0.0, 1.0),
    "south": (0.0, -1.0),
    "east": (1.0, 0.0),
    "west": (-1.0, 0.0),
}
