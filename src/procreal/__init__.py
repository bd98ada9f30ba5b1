"""Process calculus with simultaneous actions, failures equivalence and
linear-logic realizability."""

import sys as _sys

# recursion headroom for comparing and printing deeply nested terms near
# the exploration depth cap
if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)

__version__ = "0.1.0"
