"""Reed-Solomon erasure coding over GF(2^r) with an O(h lg h) transform.

The public surface, bottom up: field tables (`tables_for`), the
evaluation basis (`build_basis_tables`), the basis transform and
polynomial ops on lists of symbols (`forward`, `inverse`, `poly_mul`,
`degree`), the formal derivative, the Walsh-Hadamard erasure locator,
and the systematic codec (`encode`, `decode`).  The CLI in
`binfec.cli` wraps the codec for whole files.
"""

import importlib

# Exported names by defining submodule.  Submodules load on first
# access (PEP 562), so `import binfec` and `python -m binfec.cli` import
# no numpy until a name that needs it is used.
_EXPORTS = {
    "basis": ["BasisTables", "build_basis_tables"],
    "batch": ["TooManyErasuresError"],
    "derivative": ["derivative_direct", "derivative_fast"],
    "field": ["DEFAULT_POLY", "FieldTables", "SYMBOL_DTYPE", "tables_for"],
    "rs": ["Codeword", "ErasurePattern", "decode", "encode"],
    "shardfile": ["CodeParams"],
    "transform": ["OpCounter", "degree", "forward", "inverse", "poly_mul"],
    "walsh": ["fwht", "locator_values"],
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
