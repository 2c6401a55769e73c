"""Deterministic operation streams for the oracle driver.

The timing workloads (:mod:`repro.workloads`) emit address-only traces
— no data bytes — so they cannot feed a functional end-to-end check.
The oracle instead derives a PUT/DEL op stream *per workload*: the
workload's registered semantics ("dict" or "tree",
:data:`repro.workloads.ORACLE_SEMANTICS`) pick the key pattern and the
golden model, and the workload name salts the RNG so each workload
exercises a distinct stream.

Everything is a pure function of (workload, transactions, seed):
the reference run, every checking execution, and every worker process
regenerate identical streams.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import List

from repro.persistence.commitlog import OP_DEL, OP_PUT
from repro.workloads import ORACLE_SEMANTICS


@dataclass(frozen=True)
class Op:
    """One oracle transaction."""

    seq: int
    kind: int  # OP_PUT or OP_DEL
    key: int
    value: bytes  # b"" for OP_DEL


def _value_bytes(workload: str, seq: int, key: int, length: int) -> bytes:
    """Deterministic, content-unique value bytes."""
    seedm = f"{workload}:{seq}:{key}".encode()
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(
            hashlib.blake2b(
                seedm + counter.to_bytes(4, "little"), digest_size=64
            ).digest()
        )
        counter += 1
    return bytes(out[:length])


def generate_ops(workload: str, transactions: int, seed: int = 0) -> List[Op]:
    """Build the op stream for ``workload`` (deterministic per seed).

    Dict semantics draw keys uniformly from a bounded universe (lots of
    overwrites); tree semantics mix ascending inserts with random keys
    (the pattern tree workloads see).  ~20% of transactions delete a
    currently-live key; values span one or two cachelines so multi-line
    fence ordering is exercised.
    """
    try:
        semantics = ORACLE_SEMANTICS[workload]
    except KeyError:
        raise KeyError(
            f"workload {workload!r} has no oracle semantics; choose from "
            f"{sorted(ORACLE_SEMANTICS)}"
        ) from None
    # crc32, not hash(): str hashing is salted per process.
    salt = zlib.crc32(workload.encode("utf-8")) & 0xFFFFFFFF
    rng = random.Random((seed << 8) ^ salt)
    key_space = max(16, transactions // 2)
    live = set()
    next_tree_key = 0
    ops: List[Op] = []
    for seq in range(transactions):
        if live and rng.random() < 0.2:
            key = rng.choice(sorted(live))
            live.discard(key)
            ops.append(Op(seq, OP_DEL, key, b""))
            continue
        if semantics == "tree" and rng.random() < 0.5:
            key = next_tree_key
            next_tree_key += 1
        else:
            key = rng.randrange(key_space)
        length = 64 if rng.random() < 0.7 else 128
        live.add(key)
        ops.append(Op(seq, OP_PUT, key, _value_bytes(workload, seq, key, length)))
    return ops
