"""Reed-Solomon erasure coding over GF(2^r) with an O(h lg h) transform.

The public surface, bottom up: field tables (`tables_for`,
`build_tables`), the evaluation basis (`build_basis_tables`), the
basis transform and polynomial ops (`forward`, `inverse`, `poly_mul`,
`degree`), the formal derivative, the Walsh-Hadamard erasure locator,
and the systematic codec (`encode`, `decode`).  The CLI in
`binfec.cli` wraps the codec for whole files.
"""

from .basis import BasisTables, build_basis_tables
from .derivative import derivative_direct, derivative_fast
from .field import DEFAULT_POLY, FieldParams, FieldTables, build_tables, tables_for
from .rs import (
    CodeParams,
    Codeword,
    ErasurePattern,
    TooManyErasuresError,
    decode,
    encode,
    shorten,
)
from .transform import (
    CoeffVec,
    EvalVec,
    OpCounter,
    degree,
    forward,
    forward_counted,
    inverse,
    inverse_counted,
    poly_mul,
)
from .walsh import LocatorValues, fwht, locator_values

__version__ = "0.1.0"

__all__ = [
    "BasisTables",
    "CodeParams",
    "Codeword",
    "CoeffVec",
    "DEFAULT_POLY",
    "ErasurePattern",
    "EvalVec",
    "FieldParams",
    "FieldTables",
    "LocatorValues",
    "OpCounter",
    "TooManyErasuresError",
    "build_basis_tables",
    "build_tables",
    "decode",
    "degree",
    "derivative_direct",
    "derivative_fast",
    "encode",
    "forward",
    "forward_counted",
    "fwht",
    "inverse",
    "inverse_counted",
    "locator_values",
    "poly_mul",
    "shorten",
    "tables_for",
]
