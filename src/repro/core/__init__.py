"""The paper's core contribution: distributed distinct sampling protocols."""

from .api import (
    SHARDABLE_VARIANTS,
    SamplerVariant,
    get_variant,
    make_sampler,
    register_sharded_variant,
    register_variant,
    sampler_variants,
)
from .events import EventBatch
from .protocol import Sampler, SampleResult, SamplerConfig, SamplerStats
from .broadcast import BroadcastCoordinator, BroadcastSamplerSystem, BroadcastSite
from .caching import CachingSamplerSystem, CachingSite
from .centralized import CentralizedDistinctSampler, CentralizedWindowSampler
from .infinite import (
    DistinctSamplerSystem,
    InfiniteWindowCoordinator,
    InfiniteWindowSite,
)
from .reductions import (
    with_replacement_from_without,
    without_replacement_from_with,
    without_replacement_needed,
)
from .snapshot import restore, snapshot
from .sliding import SlidingWindowCoordinator, SlidingWindowSite, SlidingWindowSystem
from .sliding_feedback import (
    FeedbackBottomSCoordinator,
    FeedbackBottomSSite,
    SlidingWindowBottomSFeedback,
)
from .sliding_general import LocalPushCoordinator, LocalPushSite, SlidingWindowBottomS
from .with_replacement import SlidingWindowWithReplacement, WithReplacementSampler

__all__ = [
    "EventBatch",
    "Sampler",
    "SampleResult",
    "SamplerConfig",
    "SamplerStats",
    "SamplerVariant",
    "SHARDABLE_VARIANTS",
    "make_sampler",
    "register_variant",
    "register_sharded_variant",
    "sampler_variants",
    "get_variant",
    "DistinctSamplerSystem",
    "InfiniteWindowSite",
    "InfiniteWindowCoordinator",
    "BroadcastSamplerSystem",
    "BroadcastSite",
    "BroadcastCoordinator",
    "CachingSamplerSystem",
    "CachingSite",
    "SlidingWindowSystem",
    "SlidingWindowSite",
    "SlidingWindowCoordinator",
    "SlidingWindowBottomS",
    "LocalPushSite",
    "LocalPushCoordinator",
    "SlidingWindowBottomSFeedback",
    "FeedbackBottomSSite",
    "FeedbackBottomSCoordinator",
    "WithReplacementSampler",
    "SlidingWindowWithReplacement",
    "CentralizedDistinctSampler",
    "CentralizedWindowSampler",
    "snapshot",
    "restore",
    "with_replacement_from_without",
    "without_replacement_from_with",
    "without_replacement_needed",
]
