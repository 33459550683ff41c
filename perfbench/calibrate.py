"""Reference speed for timings on a shared, noisy host.

Load from other tenants of the host changes how fast this process runs,
by tens of percent from one minute to the next.  The benchmark therefore
times a fixed burst of stdlib work between requests and scales request
times to the speed at which the burst takes REF_SECONDS.  The burst is the
kind of work qcoh spends its time in: a sparse product of two dicts of
exact rationals keyed by exponent tuples, then sorted JSON output.  A
smaller burst, a product of two 7-term dicts, followed the host's slow
phases less closely.  The burst does not import qcoh, so a change to qcoh
cannot move it.
"""

import json
import random
import time
from fractions import Fraction

# About the median time of one burst on a 2-core Intel Xeon at 2.0 GHz
# under Python 3.11.7; only a unit of scale.
REF_SECONDS = 0.005

_rng = random.Random(20010530)
_LEFT = {(_rng.randrange(8), _rng.randrange(8)): Fraction(_rng.randint(1, 9), _rng.randint(1, 12))
         for _ in range(32)}
_RIGHT = {(_rng.randrange(8), _rng.randrange(8)): Fraction(-_rng.randint(1, 9), _rng.randint(1, 12))
          for _ in range(32)}
del _rng


def reference_burst():
    out = {}
    for (a1, b1), v1 in _LEFT.items():
        for (a2, b2), v2 in _RIGHT.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key, Fraction(0)) + v1 * v2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return len(json.dumps(sorted((list(k), str(v)) for k, v in out.items())))


def reference_time():
    """Wall seconds of one reference burst, now."""
    start = time.perf_counter()
    reference_burst()
    return time.perf_counter() - start
