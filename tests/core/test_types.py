"""Tests for the task vocabulary: a ``Move`` is checked however it is made.

A ``Move`` is an immutable tuple.  Its constructor refuses a negative
size and a P2P move with neither a peer GPU nor a source task, and
``_replace`` (the late-update ``dW`` in-move, ``DeviceBinding.apply``)
and ``_make`` go through the same checks rather than around them.
"""

import pytest

from repro.core.types import Channel, Move, TensorKind


def _move(**fields) -> Move:
    return Move(**{"tensor": TensorKind.X, "nbytes": 64,
                   "channel": Channel.P2P, "src_task": 3} | fields)


def test_fields_keep_their_order():
    assert Move._fields == ("tensor", "nbytes", "channel", "peer",
                            "src_task", "label")
    move = Move(TensorKind.W, 8, Channel.SHM)
    assert (move.peer, move.src_task, move.label) == (None, None, "")


def test_a_valid_p2p_move_needs_a_peer_or_a_source():
    assert _move().src_task == 3
    assert _move(src_task=None, peer=1).peer == 1


def test_negative_size_is_refused():
    with pytest.raises(ValueError, match="negative move size"):
        Move(TensorKind.W, -1, Channel.SHM)
    with pytest.raises(ValueError, match="negative move size"):
        _move(nbytes=-1)


def test_p2p_without_peer_or_source_is_refused():
    with pytest.raises(ValueError, match="P2P move needs"):
        Move(TensorKind.X, 64, Channel.P2P)
    with pytest.raises(ValueError, match="P2P move needs"):
        _move(src_task=None)


def test_replace_runs_the_constructor_checks():
    move = _move()
    with pytest.raises(ValueError, match="negative move size"):
        move._replace(nbytes=-1)
    with pytest.raises(ValueError, match="P2P move needs"):
        move._replace(src_task=None)
    with pytest.raises(ValueError, match="P2P move needs"):
        Move(TensorKind.X, 64, Channel.SWAP)._replace(channel=Channel.P2P)
    with pytest.raises(ValueError, match="unexpected field names"):
        move._replace(bytes=1)
    assert move._replace(nbytes=0) == _move(nbytes=0)
    assert type(move._replace(label="x")) is Move


def test_make_runs_the_constructor_checks():
    with pytest.raises(ValueError, match="negative move size"):
        Move._make((TensorKind.W, -1, Channel.SHM, None, None, ""))
    assert Move._make(tuple(_move())) == _move()
