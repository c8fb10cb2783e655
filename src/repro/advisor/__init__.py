"""Performance advisor: automated bottleneck diagnosis and directive
recommendation.

The paper's whole point (§1, §5.2) is that interpretive compile-time
prediction should *guide* the HPF programmer — pick distributions, system
sizes and machines without ever running the program.  The workbench shows
the evidence (profiles, per-phase breakdowns); this subsystem closes the
loop from "here is your bottleneck" to "change this directive and expect
this speedup":

* :mod:`~repro.advisor.diagnose`  — walk the interpreted SAAG/metrics tree
  (per-phase and per-line computation/communication/overhead, the static
  load-imbalance estimate) into structured, located :class:`Finding` s,
* :mod:`~repro.advisor.mutations` — typed candidate edits of a scenario:
  distribution swaps, nprocs changes, machine retargets, topology-layout
  pins, each traced to the finding that motivated it,
* :mod:`~repro.advisor.search`    — :func:`advise`: drive the candidates
  through the design-space exploration machinery (deduplicated,
  store-memoised, optionally refined by the ``genetic``/``anneal``
  campaign strategies),
* :mod:`~repro.advisor.report`    — ranked :class:`Recommendation` s with
  predicted speedup, simulator-corroborated confidence and a one-line
  explanation.

>>> from repro import advise
>>> report = advise("finance", nprocs=4, size=256)
>>> print(report.render())
>>> report.best().explanation()
"""

from .diagnose import (
    COMM_SHARE_THRESHOLD,
    IMBALANCE_THRESHOLD,
    Finding,
    diagnose,
)
from .mutations import (
    Mutation,
    directive_alternates,
    generate_mutations,
    register_directive_alternates,
)
from .report import AdvisorReport, Recommendation
from .search import advise

__all__ = [
    "COMM_SHARE_THRESHOLD",
    "IMBALANCE_THRESHOLD",
    "Finding",
    "diagnose",
    "Mutation",
    "directive_alternates",
    "generate_mutations",
    "register_directive_alternates",
    "AdvisorReport",
    "Recommendation",
    "advise",
]
