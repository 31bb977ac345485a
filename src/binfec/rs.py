"""Systematic (n = 2^r, k) Reed-Solomon erasure codes, one codeword at a time.

The codeword and erasure pattern live here.  CodeParams (re-exported)
is binfec.shardfile's geometry value, and the pipeline itself, encoding
in O(n lg k) and decoding in O(n lg n), is binfec.batch's.  encode()
and decode() are BatchCodec's one-column view: list in, (h x 1) array
through BatchCodec.encode or BatchCodec.repair, list out.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .basis import BasisTables
from .batch import BatchCodec, CodeParams, TooManyErasuresError
from .field import FieldTables
from .transform import OpCounter, column


@dataclass(frozen=True)
class Codeword:
    """n symbols; positions 0..k-1 carry the message (systematic)."""

    symbols: list[int]


@dataclass(frozen=True)
class ErasurePattern:
    """Validity mask for a received codeword: which positions are lost."""

    n: int
    erased: frozenset[int]

    def __post_init__(self) -> None:
        for e in self.erased:
            if not 0 <= e < self.n:
                raise ValueError(f"erased position {e} outside codeword of length {self.n}")

    @classmethod
    def of(cls, n: int, positions: Iterable[int]) -> "ErasurePattern":
        return cls(n, frozenset(positions))

    @property
    def known(self) -> list[int]:
        return [j for j in range(self.n) if j not in self.erased]


def encode(cp: CodeParams, bt: BasisTables, message: Sequence[int],
           ops: OpCounter | None = None) -> Codeword:
    """Encode a k-symbol message into the systematic n-symbol codeword."""
    codec = BatchCodec(cp, bt)
    if len(message) != cp.k:
        raise ValueError(f"message length {len(message)} != k={cp.k}")
    return Codeword(codec.encode(column(bt, list(message)), ops)[:, 0].tolist())


def decode(cp: CodeParams, bt: BasisTables, ft: FieldTables,
           received: Sequence[int], pattern: ErasurePattern,
           ops: OpCounter | None = None) -> list[int]:
    """Recover the k message symbols from a codeword with erasures.

    Symbols of `received` at erased positions are ignored; the pattern
    is the source of truth.  The surviving symbols are assumed
    consistent with some codeword.  Any erasure count up to n - k is
    handled by one repair of the k lowest survivors; a pattern that
    spares every message position is a plain copy.  Every surviving
    symbol is checked to lie in the field.
    """
    codec = BatchCodec(cp, bt)
    if len(received) != cp.n:
        raise ValueError(f"received length {len(received)} != n={cp.n}")
    if pattern.n != cp.n:
        raise ValueError("erasure pattern built for a different code length")
    if ft is not bt.ft and ft.r != bt.ft.r:
        raise ValueError("field tables do not match basis tables")
    erased = pattern.erased
    a = column(bt, [0 if j in erased else s for j, s in enumerate(received)])
    known = pattern.known[:cp.k]  # the k lowest survivors, as the CLI reads them
    _, rebuild = codec.repair(known)
    return rebuild(a[known], ops)[:, 0].tolist()
