"""Seeded inputs of the benchmark workloads.

An input record is a plain tuple ``(relation, seq, ts, value)``: the
reference join in :mod:`reference` reads these directly, and the drivers
turn them into the program's tuples (one join attribute, ``v`` for the
band join, ``k`` for the equi join).  The same seed always gives the same
records.
"""

from __future__ import annotations

import random

#: Band join: |r.v - s.v| <= BAND with v uniform on [0, 20), and
#: |r.ts - s.ts| <= BAND_WINDOW.  Inter-arrival gaps are uniform on
#: [0.5, 3] ms of event time, so about 340 tuples share a window and each
#: tuple finds about 16 partners (the E17 probe shape).
BAND = 1.0
BAND_VALUE_RANGE = 20.0
BAND_WINDOW = 0.6
BAND_GAP = (0.0005, 0.003)
BAND_TUPLES = 3000

#: Equi join over a large key space: a tuple meets about
#: EQUI_RATE * EQUI_WINDOW / EQUI_KEYS = 2 opposite tuples of its key
#: within +-EQUI_WINDOW, so the join yields about one result per input
#: tuple (fewer at the round's edges).  Event time is the scheduled send
#: offset, ts_i = i / EQUI_RATE.
EQUI_KEYS = 500
EQUI_WINDOW = 2.0
EQUI_RATE = 500.0
EQUI_TUPLES = 2000


def band_records(seed: int, n: int = BAND_TUPLES) -> list[tuple]:
    rng = random.Random(f"band-{seed}")
    records, ts, seqs = [], 0.0, {"R": 0, "S": 0}
    for _ in range(n):
        ts += rng.uniform(*BAND_GAP)
        relation = "R" if rng.random() < 0.5 else "S"
        records.append((relation, seqs[relation], ts,
                        rng.uniform(0.0, BAND_VALUE_RANGE)))
        seqs[relation] += 1
    return records


def equi_records(seed: int, n: int = EQUI_TUPLES) -> list[tuple]:
    rng = random.Random(f"equi-{seed}")
    records, seqs = [], {"R": 0, "S": 0}
    for i in range(n):
        relation = "R" if rng.random() < 0.5 else "S"
        records.append((relation, seqs[relation], i / EQUI_RATE,
                        rng.randrange(EQUI_KEYS)))
        seqs[relation] += 1
    return records
