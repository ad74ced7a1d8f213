"""The undelayed recursion y <- y + g(y), a test oracle for the superlinear regimes.

There the delayed dynamics shadow it, one delay window per step.
"""

import math

from delaygrowth.errors import HorizonExceeded
from delaygrowth.logdomain import log_add


def undelayed_log_states(g, start, n):
    """log y_0 .. log y_k for y_0 = ``start`` and k <= n steps, and whether the cap cut the run."""
    states = [math.log(start)]
    for _ in range(n):
        try:
            states.append(log_add(states[-1], g.value_log(states[-1])))
        except HorizonExceeded:
            return states, True
    return states, False
