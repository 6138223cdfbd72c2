"""voltlift: token graphs of Cayley graphs as voltage-graph lifts.

Build k-token graphs, represent them as lifts of small base graphs with
voltages in a finite group, and compute complete spectra (adjacency,
Laplacian, universal) from base matrices evaluated at group characters or
irreducible representations.  Every construction is cross-checkable against
brute-force oracles.
"""

from .algebra import (
    AbelianGroup,
    Character,
    GenericGroup,
    GroupElement,
    Representation,
    check_representation,
    enumerate_characters,
    group_from_json,
    irreps_completeness_defect,
    representations_from_json,
    representations_to_json,
)
from .errors import (
    CompletenessWarning,
    DimensionTooLarge,
    IdentityInS,
    IncompleteIrreps,
    IncompleteRepresentation,
    InvalidGenerators,
    InvalidPairing,
    KOutOfRange,
    LengthMismatch,
    LoopsUnsupported,
    MismatchedGroups,
    NoConvergence,
    NonAbelianGroup,
    NotCoprime,
    NotFreeAction,
    NotInverseClosed,
    NotRegularSpectrum,
    VoltliftError,
)
from .graphs import (
    Digraph,
    Graph,
    UniversalCoefficients,
    adjacency_csv,
    cayley_graph,
    complete_graph,
    cycle_graph,
    directed_cycle,
    graph_from_json,
    line_graph,
    load_graph,
    match_digon_pairing,
)
from .orbits import (
    IsomorphismResult,
    KSetDecomposition,
    circulant_linegraph_base,
    johnson_base,
    k_set_decomposition,
    token_base_graph,
    verify_natural_isomorphism,
)
from .spectra import (
    MultisetComparison,
    Spectrum,
    character_spectra,
    direct_spectrum,
    eigenpairs,
    eigenvalues,
    johnson_spectrum,
    lift_spectrum,
    line_graph_spectrum_transform,
    multiset_equal,
    per_character_csv,
    per_character_rows,
    rep_spectrum,
)
from .tokens import token_configs, token_digraph, token_graph
from .voltage import (
    BaseMatrix,
    VoltageGraph,
    lift_eigenvector,
    load_voltage_graph,
    match_voltage_pairing,
    voltage_graph_from_json,
)

__version__ = "0.1.0"
