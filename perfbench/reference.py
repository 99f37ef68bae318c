"""A windowed join computed apart from the program, and result checks.

Records are the plain ``(relation, seq, ts, value)`` tuples of
:mod:`inputs`; a pair is ``(("R", r_seq), ("S", s_seq))``, the same
identity the program gives a result.  The join sorts each relation by
timestamp and, for every R record, scans the S records whose timestamps
lie within the window; the predicate and the window bound are checked
exactly on every candidate.
"""

from __future__ import annotations

import bisect
from collections import Counter


def band_match(r_value: float, s_value: float, band: float) -> bool:
    return abs(r_value - s_value) <= band


def equi_match(r_value, s_value, _band=None) -> bool:
    return r_value == s_value


def windowed_join(records, window: float, match, band=None) -> set:
    """Every pair with ``match(r.value, s.value)`` and
    ``|r.ts - s.ts| <= window``."""
    r_side = sorted((rec for rec in records if rec[0] == "R"),
                    key=lambda rec: rec[2])
    s_side = sorted((rec for rec in records if rec[0] == "S"),
                    key=lambda rec: rec[2])
    s_ts = [rec[2] for rec in s_side]
    pairs = set()
    for _, r_seq, r_ts, r_value in r_side:
        # A slightly wider scan than the window: the exact bound below
        # decides, so rounding in r_ts +- window cannot drop a pair.
        lo = bisect.bisect_left(s_ts, r_ts - window * 1.000001)
        hi = bisect.bisect_right(s_ts, r_ts + window * 1.000001)
        for _, s_seq, s_time, s_value in s_side[lo:hi]:
            if abs(r_ts - s_time) <= window and match(r_value, s_value,
                                                      band):
                pairs.add((("R", r_seq), ("S", s_seq)))
    return pairs


def check_results(produced, expected: set, records, window: float, match,
                  band=None) -> dict:
    """Check produced pairs against the properties and the reference.

    ``produced`` lists the pairs in the order the program emitted them.
    Returns the counts of pairs that break the predicate or the window,
    of duplicate emissions, of spurious pairs (not in ``expected``) and
    of missing pairs, plus the missing pairs themselves.
    """
    by_ident = {(rec[0], rec[1]): rec for rec in records}
    counts = Counter(produced)
    bad_predicate = bad_window = 0
    for (r_ident, s_ident) in counts:
        r, s = by_ident.get(r_ident), by_ident.get(s_ident)
        if r is None or s is None or r_ident[0] != "R" or s_ident[0] != "S":
            bad_predicate += 1
            continue
        if not match(r[3], s[3], band):
            bad_predicate += 1
        if abs(r[2] - s[2]) > window:
            bad_window += 1
    missing = expected - counts.keys()
    return {
        "bad_predicate": bad_predicate,
        "bad_window": bad_window,
        "duplicates": sum(c - 1 for c in counts.values() if c > 1),
        "spurious": len(counts.keys() - expected),
        "missing": missing,
    }
