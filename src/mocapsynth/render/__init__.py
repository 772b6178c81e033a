from .topology import (
    DEFAULT_BONES,
    HEAD_CENTER,
    NODE_NAMES,
    PELVIS,
    SkeletonTopology,
    default_topology,
    load_topology,
)
from .geometry import (
    BOWL_RADIUS,
    CYLINDER_RADIUS,
    SPHERE_RADII,
    SPHERE_RADIUS,
    SPHERE_TAGS,
    Geometry,
    build_geometry,
    cylinder_between,
)
from .export import (
    export_jsonl,
    export_svg_ortho,
)
