"""The comparisons the tests share: arrays bit for bit, and outcomes (a
report, a number or the error a call raises) record for record."""

import numpy as np

from lapbel.errors import LapbelError

ERROR_KEYS = ("residual", "condition", "suggested_index")


def same_bits(a, b) -> bool:
    """Whether ``a`` and ``b`` are arrays (or numbers) of one shape and dtype
    with the same bytes: -0.0 is not 0.0, and nan is nan."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(call):
    """What ``call()`` returns, or the LapbelError it raises."""
    try:
        return call()
    except LapbelError as exc:
        return exc


def same_outcome(a, b) -> bool:
    """Whether two outcomes are one: of one type, and errors with one message
    and the same bits in each attribute they carry, reports (or any tuple)
    field by field and numbers with the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, LapbelError):
        return str(a) == str(b) and all(
            _same_attribute(getattr(a, key, None), getattr(b, key, None)) for key in ERROR_KEYS
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return same_bits(a, b)


def _same_attribute(a, b) -> bool:
    return a is b or (a is not None and b is not None and same_bits(a, b))
