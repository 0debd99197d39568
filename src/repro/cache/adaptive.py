"""The online adaptation loop: burst → MRC → knee → resize (§III-C).

Each thread's SC technique owns one :class:`AdaptiveController`.  During
the burst the controller records every persistent write (with its FASE
id, so the FASE-semantics renaming applies); when the burst fills it
computes the MRC with the linear-time reuse algorithm, selects a size
with the knee rule, and reports it to the technique, which resizes the
write-combining cache.

Cost accounting mirrors the paper's Fig. 8 overhead study: sampling adds
a small per-write instrumentation cost while the burst is open, and the
one-shot analysis charges cycles linear in the burst length (the
algorithm *is* linear; that is the point of §III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.locality.knee import SelectionPolicy, find_knees
from repro.locality.mrc import MissRatioCurve
from repro.locality.sampling import DEFAULT_BURST_LENGTH, BurstSampler
from repro.obs.trace import EV_BURST_START, EV_KNEE_CANDIDATE, EV_MRC_COMPUTED


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of the online adaptation.

    Attributes
    ----------
    burst_length:
        Writes recorded per burst (the paper uses 64 M on full-scale
        workloads; the default here matches our scaled-down traces).
    hibernation:
        Writes skipped between bursts; ``None`` = adapt once (paper).
    initial_skip:
        Warm-up writes skipped before the burst opens.
    selection:
        Knee-selection policy (default size 8, max 50).
    sample_cost:
        Extra cycles per write while the burst is recording.
    analysis_cost_per_write:
        Cycles charged per recorded write for the linear-time MRC
        computation and knee selection.
    """

    burst_length: int = DEFAULT_BURST_LENGTH
    hibernation: Optional[int] = None
    initial_skip: int = 0
    selection: SelectionPolicy = SelectionPolicy()
    sample_cost: int = 2
    analysis_cost_per_write: int = 3

    def __post_init__(self) -> None:
        if self.sample_cost < 0 or self.analysis_cost_per_write < 0:
            raise ConfigurationError("adaptation costs must be non-negative")


class AdaptiveController:
    """Drives one thread's cache-size adaptation."""

    __slots__ = ("config", "sampler", "last_mrc", "last_size", "analyses", "port")

    def __init__(self, *, config: Optional[AdaptiveConfig] = None) -> None:
        self.config = config or AdaptiveConfig()
        self.sampler = BurstSampler(
            self.config.burst_length,
            self.config.hibernation,
            self.config.initial_skip,
        )
        self.last_mrc: Optional[MissRatioCurve] = None
        self.last_size: Optional[int] = None
        self.analyses = 0
        #: The owning technique's flush port, attached at ``bind`` time;
        #: used only for structured trace events (burst/MRC/knees).
        self.port = None

    @property
    def sampling(self) -> bool:
        """True while the burst is open (per-write cost applies)."""
        return self.sampler.recording

    def observe(self, line: int, fase_id: int) -> Optional[int]:
        """Feed one persistent write; return a new size when one is chosen.

        Returns ``None`` on the (vastly common) path where the burst is
        still filling or the sampler is hibernating.
        """
        sampler = self.sampler
        port = self.port
        if port is not None and sampler.recorded == 0 and sampler.recording:
            port.record_event(EV_BURST_START, self.config.burst_length)
        if not sampler.record(line, fase_id):
            return None
        mrc = sampler.analyze()
        # select_cache_size inlined over find_knees so the candidates
        # themselves are visible to the trace, not just the winner.
        knees = find_knees(mrc, self.config.selection)
        size = max(k.size for k in knees) if knees else self.config.selection.max_size
        self.last_mrc = mrc
        self.last_size = size
        self.analyses += 1
        if port is not None:
            port.record_event(EV_MRC_COMPUTED, self.analysis_cost(), len(knees))
            for knee in knees:
                port.record_event(
                    EV_KNEE_CANDIDATE, knee.size, int(knee.miss_ratio * 1_000_000)
                )
        return size

    def analysis_cost(self) -> int:
        """Cycles to charge for the analysis that just ran."""
        return self.config.analysis_cost_per_write * self.config.burst_length
