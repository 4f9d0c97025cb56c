"""One float sum that gives the same bits on every Python version.

CPython 3.12 made the builtin ``sum()`` of floats compensated (Neumaier
summation), so one list of floats can sum to different last bits on 3.11
and on 3.12.  :func:`left_sum` adds left to right with one rounded ``+``
per value, as ``sum()`` did before 3.12.  Every float sum whose result
reaches a document or the simulation goes through it; int sums keep
``sum()``, which is exact on every version.
"""

from functools import reduce
from operator import add

__all__ = ["left_sum"]


def left_sum(values):
    """``((0 + v0) + v1) + ...``: the pre-3.12 ``sum()`` on any Python."""
    return reduce(add, values, 0)
