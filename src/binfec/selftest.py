"""Built-in consistency suites for the CLI selftest subcommand.

Each suite checks one layer against an independent reference: the
transform against naive per-point evaluation, the fast derivative
against the direct formula, the FWHT locator against direct products,
and the instrumented operation counts against their closed forms.
The one codec suite runs BatchCodec on eight stripes at each k: the
encode must keep the message as its first k rows, and stripes 0 and 7
must equal naive evaluation of their message polynomials, whose
coefficients the same evaluation pins to the message; five loss
patterns per k must decode to the message.
"""

from __future__ import annotations

import random
from collections.abc import Callable

import numpy as np

from .basis import build_basis_tables
from .batch import BatchCodec, CodeParams
from .derivative import derivative_direct, derivative_fast
from .field import tables_for
from .transform import CoeffVec, EvalVec, OpCounter, forward, inverse
from .walsh import locator_values


def run_selftest(out: Callable[[str], None] = print) -> int:
    """Run all suites, print one line each; returns the failure count."""
    rng = random.Random(20240901)
    ft = tables_for(8)
    bt = build_basis_tables(ft, 256)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        out(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1

    # field tables
    ok = all(ft.exp[ft.log[i]] == i for i in range(1, 256))
    ok = ok and ft.mul(2, 128) == 29 and ft.inv(2) == 142
    for _ in range(2000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        ok = ok and ft.mul(a, b) == ft.mul(b, a)
        ok = ok and ft.mul(a, b ^ c) == ft.mul(a, b) ^ ft.mul(a, c)
        ok = ok and ft.mul(ft.mul(a, b), c) == ft.mul(a, ft.mul(b, c))
    report("field", ok, "log/exp round trip, axioms on 2000 random triples")

    # transform vs naive oracle, plus round trips
    ok = True
    for h in (1, 2, 4, 8, 16, 32, 64):
        for _ in range(4):
            d = [rng.randrange(256) for _ in range(h)]
            l = rng.randrange(256)
            ev = forward(bt, CoeffVec(d), l)
            ok = ok and all(ev.data[c] == bt.eval_poly_naive(d, c ^ l)
                            for c in range(h))
            ok = ok and inverse(bt, ev).data == d
    report("transform", ok, "matches naive evaluation and round-trips, h <= 64")

    # operation counts against closed forms
    ok = True
    lines = []
    for h in (2, 4, 8, 16, 32, 64, 128, 256):
        lg = h.bit_length() - 1
        d = CoeffVec([rng.randrange(256) for _ in range(h)])
        ops = OpCounter()
        forward(bt, d, h % 256 or 255, ops)
        want = (h * lg, h // 2 * lg)
        ok = ok and (ops.adds, ops.muls) == want
        if h == 8:
            lines.append(f"  h=8 l≠0: adds {ops.adds}/{want[0]} muls {ops.muls}/{want[1]}")
        ops0 = OpCounter()
        forward(bt, d, 0, ops0)
        want0 = (h * lg - h + 1, h // 2 * lg - h + 1)
        ok = ok and (ops0.adds, ops0.muls) == want0
        if h == 8:
            lines.append(f"  h=8 l=0: adds {ops0.adds}/{want0[0]} muls {ops0.muls}/{want0[1]}")
    report("operation counts", ok, "closed forms for h up to 256")
    for line in lines:
        out(line)

    # derivative: the two methods agree and stay within the budget
    ok = True
    for h in (2, 8, 64, 256):
        for _ in range(4):
            d = CoeffVec([rng.randrange(256) for _ in range(h)])
            ops = OpCounter()
            fast = derivative_fast(bt, d, ops)
            ok = ok and fast.data == derivative_direct(bt, d).data
            ok = ok and ops.muls <= 2 * h
    report("derivative", ok, "direct and two-step methods agree, <= 2h muls")

    # locator values vs direct products
    ok = True
    for size in (1, 2, 64):
        for _ in range(3):
            erased = set(rng.sample(range(256), size))
            loc = locator_values(ft, erased)
            for j in range(256):
                p = 1
                for y in erased:
                    if y != j:
                        p = ft.mul(p, j ^ y)
                ok = ok and loc[j] == p
    report("locator", ok, "FWHT values match direct products, |E| in {1,2,64}")

    # codec: systematic prefix, five loss patterns, naive evaluation
    ok = True
    for k in (2, 64, 128):
        codec = BatchCodec(CodeParams(8, k), bt)
        msgs = np.array([[rng.randrange(256) for _ in range(8)] for _ in range(k)],
                        dtype=np.uint8)
        enc = codec.encode(msgs)
        ok = ok and (enc[:k] == msgs).all()
        for s in (0, 7):
            # the coefficients are pinned by their values at the k message points
            coeffs = inverse(bt, EvalVec(msgs[:, s].tolist())).data
            ok = ok and [bt.eval_poly_naive(coeffs, j) for j in range(256)] == enc[:, s].tolist()
        # three random patterns (random survivors), all parity, the first n - k
        patterns = [set(rng.sample(range(256), 256 - k)) for _ in range(3)]
        patterns += [set(range(k, 256)), set(range(256 - k))]
        for erased in patterns:
            dec = codec.decode({j: enc[j] for j in range(256) if j not in erased})
            ok = ok and (dec == msgs).all()
    report("codec", ok, "BatchCodec (256,k), k in {2,64,128}: 5 loss patterns "
           "decode, stripes 0 and 7 equal naive evaluation")

    out("selftest: all suites passed" if failures == 0
        else f"selftest: {failures} suite(s) FAILED")
    return failures
