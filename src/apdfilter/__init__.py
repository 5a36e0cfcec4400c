"""Multi-regular-language filtering toolkit.

Identify which regions of a string (or cellular-automaton space-time
diagram) belong to which regular domain and where the boundaries lie,
either exactly with a stack-based scan or in a single streaming pass with
an algorithmically built synchronizing transducer.

The public names below, and the submodules that define them, load on
first use (PEP 562), so ``import apdfilter`` or ``import apdfilter.cli``
loads no filter code.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "automata": """Alphabet Domain FiniteAutomaton Tracker accepts build_tracker
            complement cyclic_domain determinize difference disjoint_union
            equivalent intersect is_empty minimize""",
        "ca": """CARule CodedDiagram SpaceTimeDiagram evolve filter_diagram random_row
            rule_from_number""",
        "optimizer": "OptimizeError SplitDomain optimize",
        "stackfilter": "FilterStats MaximalCover filter_global filter_local",
        "transducer": """AMBIGUOUS Ambiguous DomainBreak DomainLabel OutputSymbol
            ResyncReport Transducer bidirectional bidirectional_filters
            build_filter resync transduce transduce_codes""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a defining submodule; importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
