"""Multi-GPU coherence sanitizer (opt-in correctness layer).

The runtime keeps several GPU memories coherent with four cooperating
mechanisms -- replica dirty-chunk broadcast, distributed halo refresh,
write-miss replay, and delta migration between adaptive splits.  The
sanitizer independently checks all of them while a program runs:

* a **shadow oracle** re-executes every parallel loop single-GPU
  with the run's engine and diffs each written array after the
  communication phase, localizing the first divergent element to the
  owning GPU, dirty chunk, and transfer mechanism;
* an **invariant checker** asserts dirty-bit soundness, halo freshness
  before each launch, replica agreement, write-miss replay
  completeness, and reload-skip validity;
* a **localaccess auditor** records actual per-iteration index spans
  during the shadow pass and flags accesses outside the declared
  window -- an under-declared range is a user-level race the paper's
  model cannot express.

Enable with ``AccProgram.run(..., sanitize=True)`` or the
``REPRO_SANITIZE=1`` environment variable.  Violations raise
:class:`CoherenceViolation`.  When disabled (the default) no sanitizer
object exists and the hot paths pay a single ``is None`` test.
"""

from .audit import LocalAccessAuditor, SpanRecorder
from .core import Sanitizer
from .invariants import InvariantChecker
from .oracle import ShadowOracle, global_view
from .violations import CoherenceViolation

__all__ = [
    "CoherenceViolation",
    "InvariantChecker",
    "LocalAccessAuditor",
    "Sanitizer",
    "ShadowOracle",
    "SpanRecorder",
    "global_view",
]
