"""Ground-truth analysis: loss episodes, slot discretization, statistics.

Names resolve from here but load their submodule on first access
(:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(
    __name__,
    {
        "LossEpisode": "episodes",
        "extract_episodes": "episodes",
        "episodes_from_monitor": "episodes",
        "merge_episode_lists": "episodes",
        "DelayDistribution": "delays",
        "congestion_delay_ratio": "delays",
        "delay_floor": "delays",
        "owd_samples": "delays",
        "queueing_delays": "delays",
        "summarize_delays": "delays",
        "congested_slot_count": "slots",
        "congested_slot_set": "slots",
        "slot_of": "slots",
        "true_frequency": "slots",
        "make_in_episode": "slots",
        "SummaryStats": "stats",
        "summarize": "stats",
        "mean_std": "stats",
    },
)
