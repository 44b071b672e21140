"""Topological entropy of piecewise continuous interval maps.

Three mutually cross-checking estimation routes: monotone piece counting
(Misiurewicz-Szlenk), separated/spanning sets under the dynamical metric
(Bowen), and minimal-subcover growth of refined open covers.
"""

from .bowen import SampleSet, bowen_entropy, max_separated, min_spanning, rho_n, sample_region
from .catalog import CatalogEntry, get as catalog_get, names as catalog_names
from .covers import (
    Cover,
    boundary_of_refined_natural_cover,
    cover_entropy,
    lebesgue_number,
    minimal_subcover,
    minimal_subcover_cardinality,
    natural_cover,
    pullback_cover,
    refine_n,
    vee,
)
from .errors import (
    DomainError,
    EmptySampleError,
    ExprParseError,
    InvarianceError,
    MapValidationError,
    MonotonicityError,
    NotACoverError,
    NotSeparatedError,
    PcEntropyError,
    ResourceCapExceeded,
    SubadditivityError,
)
from .estimators import EntropySeries, SequenceFit, SeriesRecord, fekete_estimate, last_ratio, slope_fit
from .intervals import (
    Interval,
    OpenSet,
    PointSet,
    RegionSet,
    components_of_complement,
)
from .maps import (
    Branch,
    PcMap,
    build_map,
    evaluate,
    evaluate_orbit,
    identity_map,
    parse_map,
)
from .symbolic import count_pieces, delta_n, full_branch_check, ms_entropy, preimage_set
from .transforms import PlHomeo, RestrictedMap, conjugate_map, iterate_map, restrict_map

__version__ = "0.1.0"
