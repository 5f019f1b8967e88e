"""Exact toolkit for cross-intersecting d-tuple systems.

Validate (skew) Bollobás systems of d-tuples, evaluate their weighted-sum
inequalities exactly, simulate the delimiter-permutation events behind the
proofs, search for extremal uniform systems, and produce exterior-algebra
certificates of the multinomial size bound for subspace families.
"""

from .constructions import (
    all_tuples_of_type,
    complete_family,
    layered_triple_family,
    random_bollobas_family,
    random_skew_family,
)
from .certificates import (
    Certificate,
    GeneralPositionMap,
    build_phi,
    certify,
    derive_seed,
    evaluation_matrix,
)
from .errors import (
    ArityError,
    BollobasError,
    DimensionError,
    DomainError,
    FormatError,
    IndexRangeError,
    MismatchError,
    OverlapError,
    RangeError,
    RetriesExhausted,
    SizeError,
    UniformityError,
)
from .events import (
    EventReport,
    Permutation,
    event_probability,
    exact_event_probability,
    in_event,
    in_event_d3,
    monte_carlo,
)
from .exterior import (
    Blade,
    SubspaceRep,
    det,
    intersection_dim,
    is_independent,
    rank,
    wedge,
)
from .families import (
    DTuple,
    Family,
    TupleType,
    bollobas_violation,
    cross_condition,
    family_from_json,
    family_to_json,
    is_bollobas,
    is_skew_bollobas,
    relabel,
    skew_violation,
    validate_tuple,
)
from .search import SearchResult, max_bollobas_uniform, max_skew_uniform
from .spaces import (
    SubspaceFamily,
    lift_to_spaces,
    skew_spaces_violation,
    subspace_family_from_json,
    subspace_family_to_json,
)
from .sums import (
    binomial,
    bollobas_sum,
    factorial,
    multinomial,
    pair_weighted_sum,
    recursive_bound,
    skew_sum,
    tuple_weight,
)

__version__ = "0.1.0"
