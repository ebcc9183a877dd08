"""Re-exports of three ``ot_core`` names that perfbench resolves here
(``perfbench/tracer.py`` ``TARGETS`` and ``perfbench/workloads.py``); no
module of the package imports this one.
"""

from .ot_core import clamp_prior, guided_sinkhorn, sinkhorn

__all__ = ["clamp_prior", "guided_sinkhorn", "sinkhorn"]
