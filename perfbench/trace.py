#!/usr/bin/env python3
"""Traced in-process run of the binfec CLI, reporting per-layer metrics.

Started by run.py with PYTHONPATH=src; not meant to be the spawner of
timed children.  It calls binfec.cli.main(["encode"|"decode", ...])
in this process, alternating untraced and traced round trips, and
reports each layer's busy time (median over the traced round trips),
the work counts seen at the layer boundaries, the exact transform
operation counts of one stripe, and the tracing overhead: median traced
round trip minus median untraced round trip.

Spans are recorded by wrappers installed from here, not by the program:
on the names binfec.cli and binfec.batch import, and on the BatchCodec
phase methods _inverse_inplace, _forward_inplace and _derivative, the
only reach past a public name.  A name that no longer exists is
reported as absent (value 0) instead of failing the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict

from workloads import WORKLOADS, Workload, damage, lost_shards, make_input, sha256_file

import binfec.batch as batch
import binfec.cli as cli
import binfec.rs as rs
from binfec.basis import build_basis_tables
from binfec.field import tables_for
from binfec.transform import OpCounter

# Function names rebound in their importing module: (module, name, span).
FUNCTION_SPANS = [
    (cli, "tables_for", "field.tables_for"),
    (cli, "build_basis_tables", "basis.build_basis_tables"),
    (cli, "BatchCodec", "batch.init"),
    (cli, "bytes_to_stripes", "shardfile.bytes_to_stripes"),
    (cli, "write_shards", "shardfile.write_shards"),
    (cli, "read_shards", "shardfile.read_shards"),
    (cli, "stripes_to_bytes", "shardfile.stripes_to_bytes"),
    (batch, "locator_values", "walsh.locator_values"),
]
# BatchCodec methods: (name, span suffix); phases nest inside encode/decode.
METHOD_SPANS = [
    ("encode", "encode"),
    ("decode", "decode"),
    ("_inverse_inplace", "inverse"),
    ("_forward_inplace", "forward"),
    ("_derivative", "derivative"),
]

# (metric, unit, span, what): what is "total" or "self" seconds of the
# span, or the name of a count recorded at it.
LAYER_METRICS = [
    ("cli.encode_s", "s", "cli.encode", "total"),
    ("cli.encode.self_s", "s", "cli.encode", "self"),
    ("cli.decode_s", "s", "cli.decode", "total"),
    ("cli.decode.self_s", "s", "cli.decode", "self"),
    ("field.tables_for_s", "s", "field.tables_for", "total"),
    ("basis.build_basis_tables_s", "s", "basis.build_basis_tables", "total"),
    ("batch.init_s", "s", "batch.init", "total"),
    ("batch.encode_s", "s", "batch.encode", "total"),
    ("batch.encode.inverse_s", "s", "batch.encode.inverse", "total"),
    ("batch.encode.forward_s", "s", "batch.encode.forward", "total"),
    ("batch.decode_s", "s", "batch.decode", "total"),
    ("batch.decode.inverse_s", "s", "batch.decode.inverse", "total"),
    ("batch.decode.derivative_s", "s", "batch.decode.derivative", "total"),
    ("batch.decode.forward_s", "s", "batch.decode.forward", "total"),
    ("batch.decode.self_s", "s", "batch.decode", "self"),
    ("walsh.locator_values_s", "s", "walsh.locator_values", "total"),
    ("shardfile.bytes_to_stripes_s", "s", "shardfile.bytes_to_stripes", "total"),
    ("shardfile.stripes_to_bytes_s", "s", "shardfile.stripes_to_bytes", "total"),
    ("shardfile.write_shards_s", "s", "shardfile.write_shards", "total"),
    ("shardfile.files_written", "count", "shardfile.write_shards", "files_written"),
    ("shardfile.bytes_written", "bytes", "shardfile.write_shards", "bytes_written"),
    ("shardfile.read_shards_s", "s", "shardfile.read_shards", "total"),
    ("shardfile.files_read", "count", "shardfile.read_shards", "files_read"),
    ("shardfile.bytes_read", "bytes", "shardfile.read_shards", "bytes_read"),
    ("shardfile.shards_skipped", "count", "shardfile.read_shards", "shards_skipped"),
]


class Tracer:
    """Span totals and self times, kept in memory for one round trip."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, seconds covered by child spans]
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            self.total[name] += dur
            self.self_s[name] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur

    def phase(self) -> str:
        for name, _ in reversed(self.stack):
            if name in ("batch.encode", "batch.decode"):
                return name
        return "batch"


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _wrap_function(tr: Tracer, fn, span: str):
    def wrapper(*args, **kwargs):
        if span == "shardfile.read_shards":
            paths = args[0] if args else kwargs["paths"]
            tr.counts["files_read"] += len(paths)
            tr.counts["bytes_read"] += _file_bytes(paths)
        with tr.span(span):
            result = fn(*args, **kwargs)
        if span == "shardfile.write_shards":
            tr.counts["files_written"] += len(result)
            tr.counts["bytes_written"] += _file_bytes(result)
        elif span == "shardfile.read_shards":
            tr.counts["shards_skipped"] += len(result[2])
        return result
    return wrapper


def _wrap_method(tr: Tracer, fn, suffix: str):
    def wrapper(*args, **kwargs):
        name = f"batch.{suffix}" if suffix in ("encode", "decode") else f"{tr.phase()}.{suffix}"
        with tr.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def installed(tr: Tracer):
    """Install every span wrapper that has a target; restore on exit."""
    saved = []
    try:
        for module, name, span in FUNCTION_SPANS:
            if hasattr(module, name):
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, _wrap_function(tr, getattr(module, name), span))
        codec = getattr(batch, "BatchCodec", None)
        for name, suffix in METHOD_SPANS:
            if codec is not None and name in vars(codec):
                saved.append((codec, name, vars(codec)[name]))
                setattr(codec, name, _wrap_method(tr, vars(codec)[name], suffix))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def absent_spans() -> set[str]:
    missing = {span for module, name, span in FUNCTION_SPANS if not hasattr(module, name)}
    codec = vars(getattr(batch, "BatchCodec", object))
    for name, suffix in METHOD_SPANS:
        if name not in codec:
            missing |= {f"batch.{suffix}", f"batch.encode.{suffix}", f"batch.decode.{suffix}"}
    return missing


def transform_counts(w: Workload, data: bytes, erased: list[int]) -> tuple[dict, list[str]]:
    """Field-op counts of one stripe through the public rs.encode/rs.decode.

    Each transform call is checked against the paper's closed forms:
    h lg h adds and (h/2) lg h muls per block, h - 1 fewer of each at
    shift 0.  Returns the counts and the list of mismatches.
    """
    width = w.r // 8
    message = [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(w.k)]
    cp = rs.CodeParams(w.r, w.k)
    ft = tables_for(w.r)
    bt = build_basis_tables(ft, w.n)
    ops = OpCounter()
    blocks: list[tuple[int, int, int, int]] = []  # (h, shift, adds, muls)

    def counted(fn, shift_of):
        def wrapper(*args, **kwargs):
            adds, muls = ops.adds, ops.muls
            result = fn(*args, **kwargs)
            h = len(args[1].data)
            blocks.append((h, shift_of(args, result), ops.adds - adds, ops.muls - muls))
            return result
        return wrapper

    errors: list[str] = []
    counts: dict[str, int] = {}
    originals = {name: getattr(rs, name) for name in ("forward", "inverse") if hasattr(rs, name)}
    try:
        if "forward" in originals:
            rs.forward = counted(originals["forward"], lambda a, res: res.shift)
        if "inverse" in originals:
            rs.inverse = counted(originals["inverse"], lambda a, res: a[1].shift)
        codeword = rs.encode(cp, bt, message, ops)
        counts["transform.encode_adds"], counts["transform.encode_muls"] = ops.adds, ops.muls
        encode_blocks = blocks[:]
        blocks.clear()
        ops.adds = ops.muls = 0
        lost = set(erased)
        received = [0 if j in lost else s for j, s in enumerate(codeword.symbols)]
        if rs.decode(cp, bt, ft, received, rs.ErasurePattern.of(w.n, erased), ops) != message:
            errors.append("scalar rs.decode did not recover the stripe")
        decode_blocks = blocks[:]
    finally:
        for name, fn in originals.items():
            setattr(rs, name, fn)

    lg_k = w.k.bit_length() - 1
    expect_adds = w.k * lg_k - (w.k - 1) + (w.n // w.k - 1) * w.k * lg_k
    expect_muls = w.k // 2 * lg_k - (w.k - 1) + (w.n // w.k - 1) * (w.k // 2) * lg_k
    if (counts["transform.encode_adds"], counts["transform.encode_muls"]) != (expect_adds, expect_muls):
        errors.append(f"encode counts {counts['transform.encode_adds']}/"
                      f"{counts['transform.encode_muls']} != closed form "
                      f"{expect_adds}/{expect_muls}")
    for h, shift, adds, muls in encode_blocks + decode_blocks:
        lg = h.bit_length() - 1
        drop = h - 1 if shift == 0 else 0
        if (adds, muls) != (h * lg - drop, h // 2 * lg - drop):
            errors.append(f"{h}-point block at shift {shift}: {adds}/{muls} ops")
    if decode_blocks:
        counts["transform.decode_adds"] = sum(b[2] for b in decode_blocks)
        counts["transform.decode_muls"] = sum(b[3] for b in decode_blocks)
    return counts, errors


def round_trip(w: Workload, seed: int, paths: dict, in_sha: str,
               tr: Tracer | None) -> tuple[bool, float]:
    """Encode into an empty directory, damage it, decode; (ok, seconds)."""
    shutil.rmtree(paths["shards"], ignore_errors=True)
    span = tr.span if tr else (lambda name: contextlib.nullcontext())
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        t0 = time.perf_counter()
        with span("cli.encode"):
            rc = cli.main(["encode", "--in", paths["input"], "--out", paths["shards"],
                           "--r", str(w.r), "--k", str(w.k)])
        encode_s = time.perf_counter() - t0
        if rc != 0:
            return False, encode_s
        damage(w, seed, paths["shards"])
        t0 = time.perf_counter()
        with span("cli.decode"):
            rc = cli.main(["decode", "--shards", paths["shards"], "--out", paths["output"]])
        decode_s = time.perf_counter() - t0
    ok = rc == 0 and os.path.exists(paths["output"]) and sha256_file(paths["output"]) == in_sha
    return ok, encode_s + decode_s


def layer_values(tr: Tracer, size: int) -> dict[str, float]:
    values = {}
    for metric, _, span, what in LAYER_METRICS:
        source = tr.total if what == "total" else tr.self_s if what == "self" else tr.counts
        values[metric] = source[span if what in ("total", "self") else what]
    values["shardfile.stored_bytes_per_input_byte"] = values["shardfile.bytes_written"] / size
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    paths = {name: os.path.join(args.workdir, name)
             for name in ("input", "output", "shards")}
    data = make_input(w, args.seed)
    with open(paths["input"], "wb") as fh:
        fh.write(data)
    in_sha = hashlib.sha256(data).hexdigest()
    deleted, truncated = lost_shards(w, args.seed)
    counts, errors = transform_counts(w, data, sorted(deleted + truncated))
    del data

    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    ok, _ = round_trip(w, args.seed, paths, in_sha, None)  # warm-up, untimed
    attempted, failed = 1, int(not ok)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not layers:
        ok, seconds = round_trip(w, args.seed, paths, in_sha, None)
        untraced.append(seconds)
        tr = Tracer()
        with installed(tr):
            ok_traced, seconds = round_trip(w, args.seed, paths, in_sha, tr)
        traced.append(seconds)
        layers.append(layer_values(tr, w.size))
        attempted += 2
        failed += (not ok) + (not ok_traced)

    missing = absent_spans()
    metrics = {}
    for metric, unit, span, _ in LAYER_METRICS:
        metrics[metric] = {"value": 0.0 if span in missing else
                           statistics.median(v[metric] for v in layers), "unit": unit}
    metrics["shardfile.stored_bytes_per_input_byte"] = {
        "value": 0.0 if "shardfile.write_shards" in missing else
        statistics.median(v["shardfile.stored_bytes_per_input_byte"] for v in layers),
        "unit": "ratio"}
    for name in ("transform.encode_adds", "transform.encode_muls",
                 "transform.decode_adds", "transform.decode_muls"):
        if name not in counts:
            missing.add(name)
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_roundtrip_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"traced round trips: {len(traced)}, untraced: {len(untraced)}")
    print(f"absent: {sorted(missing)}")
    for error in errors:
        print(f"transform count check FAILED: {error}", file=sys.stderr)
    shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
