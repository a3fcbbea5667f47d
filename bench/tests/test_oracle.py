"""The oracle is right, and everything it rejects is counted as failed."""

import math
from types import SimpleNamespace

import numpy as np

from bench.oracle import Oracle, count_wrong, count_wrong_replies
from bench.workloads import Outcome, verify_replies

#: 0 -1- 1 -2- 2 -4- 3, a chord 0 -9- 3 that never pays, and an island 4.
EDGES = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (0, 3, 9.0)]


def oracle() -> Oracle:
    return Oracle(5, EDGES)


def future(pairs, distances, epoch=0, served_epoch=0, status="done"):
    return SimpleNamespace(
        pairs=pairs, distances=distances, epoch=epoch,
        served_epoch=served_epoch, status=status,
    )


def test_distances_match_hand_computed_values():
    got = oracle().distances([(0, 3), (3, 0), (1, 3), (2, 2), (0, 4)])
    assert got.tolist() == [7.0, 7.0, 6.0, 0.0, math.inf]


def test_epochs_keep_their_own_weights():
    o = oracle()
    o.new_epoch(1, [((2, 3), 10.0)])      # the chord now pays
    o.new_epoch(2, [((3, 2), 4.0)])       # restored (either orientation)
    assert o.distances([(0, 3)], epoch=0).tolist() == [7.0]
    assert o.distances([(0, 3)], epoch=1).tolist() == [9.0]
    assert o.distances([(0, 3)], epoch=2).tolist() == [7.0]
    assert o.edge_weight(2, 3, epoch=1) == 10.0 and o.edge_weight(2, 3) == 4.0


def test_perturbed_distance_is_wrong_exact_and_inf_are_right():
    want = np.array([7.0, math.inf, 1e9])
    assert count_wrong([7.0, math.inf, 1e9], want) == 0
    assert count_wrong([7.0 + 1e-6, math.inf, 1e9], want) == 1
    assert count_wrong([7.0, 1e12, 1e9 * (1 + 1e-8)], want) == 2
    # below the 1e-9 relative tolerance: float noise, not an error
    assert count_wrong([7.0 * (1 + 1e-12)], np.array([7.0])) == 0


def test_path_validator():
    o = oracle()
    assert o.path_ok((0, 3), 7.0, (7.0, [0, 1, 2, 3]))
    assert not o.path_ok((0, 3), 7.0, (7.0, [0, 2, 3])), "0-2 is not an edge"
    assert not o.path_ok((0, 3), 7.0, (9.0, [0, 3])), "an edge path, but not shortest"
    assert not o.path_ok((0, 3), 7.0, (7.0, [0, 1, 2])), "stops short of the target"
    assert not o.path_ok((0, 3), 7.0, (8.0, [0, 1, 2, 3])), "claims the wrong length"
    assert not o.path_ok((0, 3), 7.0, (7.0, None))
    assert o.path_ok((0, 4), math.inf, (math.inf, None))
    assert not o.path_ok((0, 4), math.inf, (3.0, [0, 4]))


def test_wrong_epoch_stamp_and_stale_distance_are_wrong_replies():
    o = oracle()
    o.new_epoch(1, [((2, 3), 10.0)])
    right0 = ([(0, 3)], [7.0], 0, 0)
    right1 = ([(0, 3)], [9.0], 1, 1)
    stale = ([(0, 3)], [7.0], 1, 1)          # epoch 0's answer served at epoch 1
    misstamped = ([(0, 3)], [9.0], 1, 0)     # right number, wrong epoch stamp
    unanswered = ([(0, 3)], None, 0, None)
    assert count_wrong_replies(o, [right0, right1]) == 0
    assert count_wrong_replies(o, [right0, stale, misstamped, unanswered, right1]) == 3


def test_every_kind_of_error_lands_in_the_failed_count():
    o = oracle()
    o.new_epoch(1, [((2, 3), 10.0)])
    futures = [
        future([(0, 3), (1, 3)], [7.0, 6.0]),                       # right
        future([(0, 3), (1, 3)], [7.0, 6.5]),                       # perturbed
        future([(0, 3)], [9.0], epoch=1, served_epoch=0),           # wrong epoch
        future([(0, 3)], None, status="failed", served_epoch=None),  # no answer
        None,                                                        # refused
    ]
    out = Outcome()
    verify_replies(o, futures, out, refused=1)
    assert (out.attempted, out.failed) == (5, 4)

    # churn sampling: unsampled replies still need a status and an epoch
    out = Outcome()
    sample = np.array([True, False, False, False, False])
    verify_replies(o, futures, out, refused=1, sample=sample)
    assert (out.attempted, out.failed) == (5, 3), "the perturbed one is not sampled"
