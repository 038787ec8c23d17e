"""Tests for the Packet type."""

import math

import pytest

from repro.net.packet import Packet


def test_pids_are_unique_and_increasing():
    a, b = Packet("x", "y", 100), Packet("x", "y", 100)
    assert b.pid > a.pid


def test_default_flow_label():
    packet = Packet("alice", "bob", 100)
    assert packet.flow == "alice->bob"
    labelled = Packet("alice", "bob", 100, flow="flow-7")
    assert labelled.flow == "flow-7"


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        Packet("a", "b", 0)


@pytest.mark.parametrize("size", [-1, math.nan])
def test_negative_or_nan_size_rejected(size):
    # NaN passes `size <= 0`; the link would then compute a NaN
    # transmission time.
    with pytest.raises(ValueError):
        Packet("a", "b", size)


def test_metadata_is_lazy():
    packet = Packet("a", "b", 100)
    assert packet.metadata is None
    packet.note("k", 1)
    assert packet.metadata == {"k": 1}
    packet.note("j", 2)
    assert packet.metadata == {"k": 1, "j": 2}


def test_timestamps_default_unset():
    packet = Packet("a", "b", 100)
    assert packet.created_at == -1.0
    assert packet.enqueued_at == -1.0


def test_slots_prevent_arbitrary_attributes():
    packet = Packet("a", "b", 100)
    with pytest.raises(AttributeError):
        packet.bogus = 1
