"""Verification toolkit for projection inequalities of antichains.

Discrete side: dominance orders on integer lattice points, the greedy
partition certificate behind the counting inequality, projection-gap scans,
and exact grid-poset widths as layers a chain cover certifies.  Continuous
side: cube-grid covering bounds, surface and projection measures of
order-reversing graphs, the shear map, skewed projections in the plane, and
the singular staircase.
"""

from .estimate import CLOSED_FORM, COVERING, QUADRATURE, MeasureEstimate, NonFiniteError
from .extremal import (
    GridPoset,
    WidthResult,
    best_construction,
    layer_construct,
    layer_size,
    max_antichain,
    middle_layer_index,
    wn_construct,
)
from .gridcover import (
    BoxDimensionFit,
    GridCover,
    PointCloud,
    PredicateRegion,
    alpha,
    box_dimension,
    covering_bound,
    cube_index,
    d_const,
    grid_cover,
    volume_ratio_curve,
)
from .lattice import (
    Classification,
    Order,
    Point,
    PointSet,
    classify,
    dominates,
    format_point_set,
    load_point_set,
    parse_point_set,
    project,
    save_point_set,
    skew_project,
    skew_split,
    skew_split_disjoint,
)
from .partition import (
    BudgetExceededError,
    GapReport,
    GapScanResult,
    NotWeakAntichainError,
    PartitionCertificate,
    TargetUnreachableError,
    box_points,
    exhaustive_gap_scan,
    greedy_partition,
    projection_gap,
    projection_size,
    random_gap_scan,
    random_weak_antichain,
)
from .shear import (
    SHEAR_INVERSE,
    SKEW_INVERSE_2D,
    LipschitzBoundExceeded,
    ShearParams,
    lipschitz_sample_check,
    rescale_to_unit,
    shear,
    shear_inverse,
    shear_points,
)
from .surfaces import (
    Hyperplane,
    InequalityReport,
    LinearGraph,
    LpSphere,
    SingularStaircase,
    SkewReport,
    TabulatedMonotone,
    default_tolerance,
    facet_union_measure,
    format_surface_descriptor,
    graph_value,
    irwin_hall_cdf,
    monotone_extension,
    parse_surface_descriptor,
    projection_measure,
    skew_measures_2d,
    slab_volume,
    staircase_polyline,
    surface_dim,
    surface_measure,
    surface_measure_quadrature,
    verify_projection_inequality,
)

__version__ = "0.1.0"
