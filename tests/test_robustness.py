"""Decode either rebuilds the exact input or fails cleanly, however its shards are damaged.

The property: after any sequence of structural damage to an encode's
shard directory, `decode` returns 0 with the exact input at --out, or
returns nonzero with no --out and no temporary file beside it; it never
raises.  A stray copy of a shard repeats its index, so the decode skips
every file that claims that index and repairs it as an erasure.  In
about half the examples a last step deletes every file but 0 to 20 of
them, so that some examples keep fewer than k usable shards and must
fail.

Damage to a payload byte is left out: a shard whose header is intact
and whose payload is wrong still decodes to wrong bytes with exit 0,
the open silent-corruption defect.  For the same reason the foreign
encode is of a file one byte longer, so its headers disagree with the
real ones: a foreign shard with a matching header, in place of a
missing shard, differs from the real one in its payload alone.
"""

import os
import random
import shutil
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from binfec.cli import main
from binfec.shardfile import HEADER_SIZE, shard_filename

# A few seconds of examples in tier-1; `--hypothesis-profile=robustness`
# (registered in conftest.py) runs the longer profile.
EXAMPLES = 400 if settings.get_current_profile_name() == "robustness" else 38

# most damage lands on the data shards and the lowest parity shards, the
# ones a decode at k <= 16 reads
_INDEX = st.integers(0, 20) | st.integers(0, 255)

_STEP = st.one_of(
    st.tuples(st.just("delete"), _INDEX),
    st.tuples(st.just("truncate"), _INDEX, st.integers(0, 4000)),
    st.tuples(st.just("header only"), _INDEX),
    st.tuples(st.just("append"), _INDEX),
    st.tuples(st.just("flip header"), _INDEX, st.integers(0, HEADER_SIZE - 1),
              st.integers(1, 255)),
    st.tuples(st.just("copy"), _INDEX, _INDEX),
    st.tuples(st.just("foreign"), _INDEX, _INDEX),
    st.tuples(st.just("directory"), _INDEX),
    st.tuples(st.just("stray"), _INDEX, st.none() | st.binary(max_size=64)),
)


def _encode(data: bytes, folder: str, k: int) -> None:
    src = os.path.join(folder, "in.bin")
    with open(src, "wb") as fh:
        fh.write(data)
    assert main(["encode", "--in", src, "--out", os.path.join(folder, "shards"),
                 "--r", "8", "--k", str(k)]) == 0


def _damage(shards: str, foreign: str, step: tuple, number: int) -> None:
    """Apply one damage step; a step whose shard is missing or a directory does nothing."""
    kind, j, *rest = step
    path = os.path.join(shards, shard_filename(j))
    if kind == "stray":  # random bytes, or a copy of shard j, under a name that sorts first
        stray = os.path.join(shards, f"a-stray-{number}.lchs")
        if rest[0] is not None:
            with open(stray, "wb") as fh:
                fh.write(rest[0])
        elif os.path.isfile(path):
            shutil.copyfile(path, stray)
        return
    if kind == "directory":
        if os.path.isfile(path):
            os.remove(path)
        os.makedirs(path, exist_ok=True)
        return
    if kind in ("copy", "foreign"):  # shard j, ours or the foreign encode's, over shard i
        source = os.path.join(foreign if kind == "foreign" else shards, shard_filename(j))
        target = os.path.join(shards, shard_filename(rest[0]))
        if source != target and os.path.isfile(source) and not os.path.isdir(target):
            shutil.copyfile(source, target)
        return
    if not os.path.isfile(path):
        return
    size = os.path.getsize(path)
    if kind == "delete":
        os.remove(path)
    elif kind == "truncate":
        os.truncate(path, rest[0] % max(size, 1))
    elif kind == "header only":
        os.truncate(path, min(size, HEADER_SIZE))
    elif kind == "append":
        with open(path, "ab") as fh:
            fh.write(b"\x5a")
    elif kind == "flip header" and rest[0] < size:
        with open(path, "r+b") as fh:
            fh.seek(rest[0])
            byte = fh.read(1)[0]
            fh.seek(rest[0])
            fh.write(bytes([byte ^ rest[1]]))


# keep's integers come first, so Hypothesis's first example, its simplest,
# deletes every file and must fail
@given(k=st.sampled_from([1, 2, 4, 16]), size=st.integers(0, 3000), seed=st.integers(0, 2**32),
       foreign_k=st.sampled_from([1, 2, 4, 16]), steps=st.lists(_STEP, max_size=6),
       keep=st.integers(0, 20) | st.none())
@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
def test_decode_is_exact_or_fails_cleanly(k, size, seed, foreign_k, steps, keep):
    rng = random.Random(seed)
    data = rng.randbytes(size)
    with tempfile.TemporaryDirectory() as work:
        ours, theirs = os.path.join(work, "ours"), os.path.join(work, "theirs")
        os.mkdir(ours)
        _encode(data, ours, k)
        if any(step[0] == "foreign" for step in steps):
            os.mkdir(theirs)
            _encode(rng.randbytes(size + 1), theirs, foreign_k)
        shards = os.path.join(ours, "shards")
        for number, step in enumerate(steps):
            _damage(shards, os.path.join(theirs, "shards"), step, number)
        if keep is not None:  # the last step: delete every file but `keep` of them
            files = sorted(name for name in os.listdir(shards)
                           if os.path.isfile(os.path.join(shards, name)))
            for name in set(files) - set(rng.sample(files, min(keep, len(files)))):
                os.remove(os.path.join(shards, name))

        out_dir = os.path.join(work, "out")
        os.mkdir(out_dir)
        out = os.path.join(out_dir, "out.bin")
        status = main(["decode", "--shards", shards, "--out", out])
        event(f"decode returned {status}")  # shown by --hypothesis-show-statistics
        if status == 0:
            with open(out, "rb") as fh:
                assert fh.read() == data
        else:
            assert os.listdir(out_dir) == []  # no --out, and no temporary file
