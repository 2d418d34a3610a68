"""Signals placed at a chosen distance from a 64-byte cache line, for the
tests that pin where working sets start and that results do not depend
on where their inputs start."""

import numpy as np


def line_offset(a):
    """The byte offset of a's data from the 64-byte line it starts in."""
    return a.ctypes.data % 64


def at_offset(a, offset):
    """A C-ordered copy of a whose data starts offset bytes (a multiple of
    8 below 64) past a 64-byte line."""
    raw = np.empty(a.size + 8)
    skip = (offset - raw.ctypes.data) % 64 // 8
    view = raw[skip:skip + a.size].reshape(a.shape)
    view[...] = a
    assert line_offset(view) == offset
    return view
