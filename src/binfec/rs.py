"""Systematic (n = 2^r, k) Reed-Solomon erasure codes.

Encoding interprets the k message symbols as evaluations of a unique
degree-< k polynomial at the first k field points, recovers its
basis-domain coefficients with one k-point inverse transform, and
evaluates the remaining n - k points in k-point blocks with shifted
forward transforms: O(n lg k) field operations, and the first k
codeword symbols are the message verbatim.

Decoding multiplies the surviving symbols by the erasure locator,
which extends the damaged evaluation vector to the full product
polynomial F * locator, a polynomial that is zero at every erased
point.  One n-point inverse transform, a formal derivative, and one
n-point forward transform later, each erased value falls out as
F'hat(j) / locator'(j): O(n lg n) total.

The transforms and the derivative are the one-row views of the row
kernels that binfec.batch runs on every stripe of a file at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .basis import BasisTables
from .derivative import derivative_fast
from .field import FieldTables
from .transform import CoeffVec, EvalVec, OpCounter, forward, inverse
from .walsh import locator_values


class TooManyErasuresError(ValueError):
    """More erasures than the code can repair (above n - k)."""


@dataclass(frozen=True)
class CodeParams:
    """Code geometry: n = 2^r total symbols, k of them message symbols."""

    r: int
    k: int

    def __post_init__(self) -> None:
        n = 1 << self.r
        if self.k < 1 or self.k & (self.k - 1):
            raise ValueError(f"k must be a power of two, got {self.k}")
        if self.k > n:
            raise ValueError(f"k={self.k} exceeds code length n={n}")

    @property
    def n(self) -> int:
        return 1 << self.r

    @property
    def parity(self) -> int:
        return self.n - self.k


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
    if len(message) != cp.k:
        raise ValueError(f"message length {len(message)} != k={cp.k}")
    _check_tables(cp, bt)
    coeffs = inverse(bt, EvalVec(list(message), 0), ops)
    symbols = list(message)
    for i in range(1, cp.n // cp.k):
        block = forward(bt, coeffs, i * cp.k, ops)
        symbols.extend(block.data)
    return Codeword(symbols)


def decode(cp: CodeParams, bt: BasisTables, ft: FieldTables,
           received: Sequence[int], pattern: ErasurePattern,
           ops: OpCounter | None = None) -> list[int]:
    """Recover the k message symbols from a codeword with erasures.

    Symbols of `received` at erased positions are ignored; the pattern
    is the source of truth.  The surviving symbols are assumed
    consistent with some codeword.  Any erasure count up to n - k is
    handled by the same pipeline; an empty pattern is a plain copy.
    """
    n, k = cp.n, cp.k
    if len(received) != n:
        raise ValueError(f"received length {len(received)} != n={n}")
    if pattern.n != n:
        raise ValueError("erasure pattern built for a different code length")
    _check_tables(cp, bt)
    if ft is not bt.ft and ft.params != bt.ft.params:
        raise ValueError("field tables do not match basis tables")

    erased = pattern.erased
    if not erased:
        return list(received[:k])
    if len(erased) > n - k:
        raise TooManyErasuresError(
            f"{len(erased)} erasures exceed repair capacity {n - k}")

    loc = locator_values(ft, erased)
    mul = ft.mul

    # Surviving symbols scaled by the locator; erased positions are the
    # locator's roots, so their entries are exactly zero.
    phi = [0] * n
    for j, pi in loc.pi_bar.items():
        phi[j] = mul(received[j], pi)
    if ops is not None:
        ops.muls += len(loc.pi_bar)

    coeffs = inverse(bt, EvalVec(phi, 0), ops)
    dcoeffs = derivative_fast(bt, coeffs, ops)
    devals = forward(bt, dcoeffs, 0, ops)

    out = list(received[:k])
    for j in erased:
        if j < k:
            prime = loc.pi_prime[j]
            if prime == 0:
                raise AssertionError(f"zero locator derivative at {j}")
            out[j] = mul(devals.data[j], ft.inv(prime))
            if ops is not None:
                ops.muls += 1
    return out


def shorten(cp: CodeParams, message: Sequence[int]) -> list[int]:
    """Zero-pad a short message up to k symbols."""
    if len(message) > cp.k:
        raise ValueError(f"message length {len(message)} exceeds k={cp.k}")
    return list(message) + [0] * (cp.k - len(message))


def _check_tables(cp: CodeParams, bt: BasisTables) -> None:
    if bt.ft.r != cp.r:
        raise ValueError(f"basis tables built for r={bt.ft.r}, code needs r={cp.r}")
    if bt.max_h < cp.k:
        raise ValueError(f"basis tables capacity {bt.max_h} below k={cp.k}")
