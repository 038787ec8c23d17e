"""Analytic congestion-process substrate.

The packet simulator produces *realistic* congestion; this subpackage
produces *exactly specified* congestion: an alternating renewal process over
discrete slots (the precise setting of the paper's §5 consistency proofs)
plus a virtual observer that reports experiment outcomes with the exact miss
probabilities p1/p2 of the paper's assumptions. Estimator unit tests and
property-based tests run here, where the true F and D are known in closed
form.

Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "AlternatingRenewalProcess": "renewal",
        "FixedSlots": "renewal",
        "GeometricSlots": "renewal",
        "UniformSlots": "renewal",
        "VirtualObserver": "observer",
        "GilbertProcess": "gilbert",
        "sample_packet_losses": "gilbert",
    },
)
