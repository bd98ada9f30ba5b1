"""Process calculus with simultaneous actions, failures equivalence and
linear-logic realizability."""

import sys as _sys

# recursion headroom for stepping and printing deeply nested terms: at the
# default 1000, `step` overflows on `rec X. (X | X)` before its 512 unfoldings
if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)

__version__ = "0.1.0"
