"""The benchmark's reference join agrees with the program's own reference.

    python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
from repro import (BandJoinPredicate, EquiJoinPredicate,  # noqa: E402
                   StreamTuple, TimeWindow)
from repro.harness import reference_join  # noqa: E402


def program_reference(records, predicate, window: float, attr: str) -> set:
    tuples = [StreamTuple(relation=rel, ts=ts, values={attr: value},
                          seq=seq) for rel, seq, ts, value in records]
    return reference_join([t for t in tuples if t.relation == "R"],
                          [t for t in tuples if t.relation == "S"],
                          predicate, TimeWindow(window))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_band_join_matches_program_reference(seed):
    records = inputs.band_records(seed, 400)
    ours = reference.windowed_join(records, inputs.BAND_WINDOW,
                                   reference.band_match, inputs.BAND)
    theirs = program_reference(records, BandJoinPredicate("v", "v",
                                                          inputs.BAND),
                               inputs.BAND_WINDOW, "v")
    assert ours == theirs
    assert len(ours) > 1000


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equi_join_matches_program_reference(seed):
    records = inputs.equi_records(seed, 600)
    ours = reference.windowed_join(records, inputs.EQUI_WINDOW,
                                   reference.equi_match)
    theirs = program_reference(records, EquiJoinPredicate("k", "k"),
                               inputs.EQUI_WINDOW, "k")
    assert ours == theirs
    assert len(ours) > 100


def test_window_bound_is_inclusive():
    records = [("R", 0, 1.0, 5.0), ("S", 0, 1.5, 5.0), ("S", 1, 1.5000001,
                                                        5.0)]
    pairs = reference.windowed_join(records, 0.5, reference.equi_match)
    assert pairs == {(("R", 0), ("S", 0))}


def test_checks_flag_every_kind_of_bad_output():
    records = [("R", 0, 0.0, 1.0), ("S", 0, 0.1, 1.5), ("S", 1, 5.0, 1.0),
               ("S", 2, 0.2, 9.0)]
    expected = reference.windowed_join(records, 1.0, reference.band_match,
                                       1.0)
    assert expected == {(("R", 0), ("S", 0))}
    produced = [(("R", 0), ("S", 1)),   # outside the window
                (("R", 0), ("S", 2)),   # breaks the predicate
                (("R", 0), ("S", 2))]   # and is emitted twice
    check = reference.check_results(produced, expected, records, 1.0,
                                    reference.band_match, 1.0)
    assert check["bad_window"] == 1
    assert check["bad_predicate"] == 1
    assert check["duplicates"] == 1
    assert check["spurious"] == 2
    assert check["missing"] == expected
