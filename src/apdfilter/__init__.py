"""Multi-regular-language filtering toolkit.

Identify which regions of a string (or cellular-automaton space-time
diagram) belong to which regular domain and where the boundaries lie,
either exactly with a stack-based scan or in a single streaming pass with
an algorithmically built synchronizing transducer.
"""

from .automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
    Tracker,
    accepts,
    build_tracker,
    complement,
    cyclic_domain,
    determinize,
    difference,
    disjoint_union,
    equivalent,
    intersect,
    is_empty,
    minimize,
)
from .ca import (
    CARule,
    CodedDiagram,
    SpaceTimeDiagram,
    evolve,
    filter_diagram,
    random_row,
    rule_from_number,
)
from .optimizer import OptimizeError, SplitDomain, optimize
from .stackfilter import (
    FilterStats,
    MaximalCover,
    filter_global,
    filter_local,
)
from .transducer import (
    AMBIGUOUS,
    Ambiguous,
    DomainBreak,
    DomainLabel,
    OutputSymbol,
    ResyncReport,
    Transducer,
    bidirectional,
    bidirectional_filters,
    build_filter,
    resync,
    transduce,
    transduce_codes,
)

__version__ = "0.1.0"
