"""Seeded event-driven arrival process for the serving layer.

The service's load is a merge of three deterministic-given-seed
generators per cell:

* a **base Poisson** stream of session arrivals (the steady diurnal
  floor);
* **MMPP bursts** via :class:`repro.qos.traffic.MMPPProcess` — long
  quiet stretches punctuated by arrival storms (flash crowds, mMTC
  synchronized wake-ups);
* **handover storms** via the :class:`repro.qos.mobility` Gilbert-
  Elliott chain: when a cell's link-quality chain falls into the BAD
  state, a slug of its sessions hands over into the neighbor cell — the
  spatially correlated burst that pure per-cell Poisson models miss.

Every generator is seeded through :func:`repro.parallel.derive_seed`
keyed by ``(master_seed, cell, salt)``, so the full event stream is a
pure function of the configuration — no wall clock is ever read (time
here is *simulated* time; the service advances it with an injectable
clock, keeping the DT002 "wall-clock feeds control flow" lint clean).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.parallel import derive_seed
from repro.qos.mobility import GilbertElliottConfig
from repro.qos.traffic import MMPPConfig, MMPPProcess, ServiceClass

__all__ = ["ArrivalEvent", "ArrivalConfig", "ArrivalProcess", "RateTrace"]


@dataclass(frozen=True)
class RateTrace:
    """A piecewise-constant arrival-rate modulation trace.

    ``scales[i]`` multiplies the base Poisson rate over the simulated
    interval ``[i * step_s, (i + 1) * step_s)``; times past the end hold
    the last value.  Scenario packs build these through the streaming
    signal front-end (seeded noise -> Doppler-shaped fading envelope ->
    polyphase decimation to the trace rate), so a trace is a pure
    function of its seed and the whole arrival stream stays
    reproducible.  Scales are stored as a tuple: the trace is frozen,
    hashable, and safely shared across processes.
    """

    step_s: float
    scales: Tuple[float, ...]

    def __post_init__(self):
        if self.step_s <= 0:
            raise ConfigurationError("trace step_s must be positive")
        if not self.scales:
            raise ConfigurationError("trace needs at least one scale")
        if any(s < 0 for s in self.scales):
            raise ConfigurationError("trace scales must be nonnegative")
        if max(self.scales) <= 0:
            raise ConfigurationError("trace must have positive mass")

    @property
    def max_scale(self) -> float:
        return max(self.scales)

    @property
    def duration_s(self) -> float:
        return self.step_s * len(self.scales)

    def at(self, t_s: float) -> float:
        """Scale in effect at simulated time ``t_s`` (clamped to range)."""
        if t_s < 0:
            return self.scales[0]
        idx = min(int(t_s / self.step_s), len(self.scales) - 1)
        return self.scales[idx]

#: fixed per-class split applied to every arrival batch (mixed macro cell)
_DEFAULT_MIX = {
    ServiceClass.EMBB: 0.5,
    ServiceClass.URLLC: 0.2,
    ServiceClass.MMTC: 0.3,
}


@dataclass(frozen=True)
class ArrivalEvent:
    """One batch of session arrivals landing on a cell.

    ``n_ues`` sessions of class ``service`` arrive at simulated time
    ``time_s``; ``kind`` records which generator produced the batch
    (``poisson`` / ``burst`` / ``handover``) for shedding-policy
    assertions and reports.
    """

    time_s: float
    cell: int
    service: ServiceClass
    n_ues: int
    kind: str = "poisson"


@dataclass(frozen=True)
class ArrivalConfig:
    """Knobs for the merged per-cell arrival stream.

    ``base_rate_hz`` is each cell's Poisson batch rate; ``batch_ues``
    the mean sessions per batch (geometric, >= 1).  ``mmpp`` enables the
    burst stream; ``handover`` plus ``storm_ues`` enables handover
    storms (a GOOD->BAD transition of cell ``c`` dumps ``storm_ues``
    sessions onto cell ``(c + 1) % n_cells``).  ``mix`` is the
    service-class split applied to every batch.

    ``trace`` — when set — modulates the base Poisson stream by a
    :class:`RateTrace` via Lewis-Shedler thinning: candidates are drawn
    at the trace's peak rate and accepted with probability
    ``scale(t) / max_scale``, so the stream is an exact inhomogeneous
    Poisson process and still a pure function of the seed.  The
    trace-less path is byte-identical to previous releases (the
    modulated generator is a separate code path).
    """

    base_rate_hz: float = 5.0
    batch_ues: int = 20
    mmpp: Optional[MMPPConfig] = None
    handover: Optional[GilbertElliottConfig] = None
    handover_step_s: float = 1.0
    storm_ues: int = 50
    trace: Optional[RateTrace] = None
    mix: Dict[ServiceClass, float] = field(
        default_factory=lambda: dict(_DEFAULT_MIX))

    def __post_init__(self):
        if self.base_rate_hz <= 0:
            raise ConfigurationError("base_rate_hz must be positive")
        if self.batch_ues < 1 or self.storm_ues < 1:
            raise ConfigurationError("batch_ues and storm_ues must be >= 1")
        if self.handover_step_s <= 0:
            raise ConfigurationError("handover_step_s must be positive")
        total = sum(self.mix.values())
        if total <= 0 or any(v < 0 for v in self.mix.values()):
            raise ConfigurationError("mix must have nonnegative positive-mass weights")


class ArrivalProcess:
    """Pre-generates the merged, time-ordered event stream for all cells.

    The service consumes events through :meth:`window`, which returns
    every event with ``t0 <= time_s < t1`` — the per-tick admission
    batch.  Generation is eager (one pass at construction) because a
    soak run's whole event stream for 10^5–10^6 sessions is only a few
    hundred thousand small records; eagerness keeps consumption
    allocation-free and trivially deterministic.
    """

    def __init__(self, n_cells: int, duration_s: float,
                 config: ArrivalConfig | None = None, seed: int = 0):
        if n_cells < 1:
            raise ConfigurationError("need at least one cell")
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        self.n_cells = int(n_cells)
        self.duration_s = float(duration_s)
        self.config = config or ArrivalConfig()
        self.seed = int(seed)
        # the class split's fixed order and normalised weights
        self._classes = sorted(self.config.mix, key=lambda c: c.value)
        weights = np.array([self.config.mix[c] for c in self._classes], dtype=float)
        self._weights = weights / weights.sum()  # numlint: disable=NL002 -- ArrivalConfig.__post_init__ rejects zero-mass mixes
        self.events: List[ArrivalEvent] = self._generate()
        self._cursor = 0

    # ---- generation ----------------------------------------------------------
    def _class_split(self, n_ues: int, rng: np.random.Generator,
                     time_s: float, cell: int, kind: str) -> List[ArrivalEvent]:
        """Split one batch across service classes by the configured mix.

        A multinomial draw keeps totals exact (the split always sums to
        ``n_ues``) and classes are emitted in a fixed order so the event
        stream never depends on dict iteration order.
        """
        counts = rng.multinomial(n_ues, self._weights).tolist()
        return [ArrivalEvent(time_s, cell, svc, k, kind)
                for svc, k in zip(self._classes, counts) if k > 0]

    def _generate(self) -> List[ArrivalEvent]:
        events: List[ArrivalEvent] = []
        cfg = self.config
        for cell in range(self.n_cells):
            # base Poisson batches
            rng = np.random.default_rng(
                derive_seed(self.seed, cell, "serve.arrivals.base"))
            if cfg.trace is None:
                t = 0.0
                while True:
                    t += rng.exponential(1.0 / cfg.base_rate_hz)
                    if t >= self.duration_s:
                        break
                    n = int(rng.geometric(1.0 / cfg.batch_ues))
                    events.extend(
                        self._class_split(n, rng, t, cell, "poisson"))
            else:
                # Lewis-Shedler thinning against the rate trace: draw at
                # the peak rate, accept with scale(t)/max_scale.  The
                # untraced branch above is kept verbatim so existing
                # seeded streams (goldens, soak snapshots) are untouched.
                trace = cfg.trace
                peak_hz = cfg.base_rate_hz * trace.max_scale
                t = 0.0
                while True:
                    t += rng.exponential(1.0 / peak_hz)  # numlint: disable=NL002 -- base_rate_hz > 0 (validated) and max_scale > 0 (RateTrace rejects zero-mass traces)
                    if t >= self.duration_s:
                        break
                    if rng.random() * trace.max_scale > trace.at(t):
                        continue
                    n = int(rng.geometric(1.0 / cfg.batch_ues))
                    events.extend(
                        self._class_split(n, rng, t, cell, "poisson"))
            # MMPP burst stream
            if cfg.mmpp is not None:
                mrng = np.random.default_rng(
                    derive_seed(self.seed, cell, "serve.arrivals.mmpp"))
                proc = MMPPProcess(cfg.mmpp, rng=mrng)
                times, states = proc.arrivals_until(self.duration_s)
                for time_s, state in zip(times, states):
                    n = int(mrng.geometric(1.0 / cfg.batch_ues))
                    kind = "burst" if state == MMPPProcess.BURST else "poisson"
                    events.extend(
                        self._class_split(n, mrng, float(time_s), cell, kind))
        # handover storms: one Gilbert-Elliott chain over cells, stepped on
        # a fixed cadence; each GOOD->BAD transition hands a storm of
        # sessions to the next cell over
        if cfg.handover is not None and self.n_cells > 1:
            hrng = np.random.default_rng(
                derive_seed(self.seed, 0, "serve.arrivals.handover"))
            ge = cfg.handover
            bad = hrng.random(self.n_cells) < ge.steady_state_bad
            t = cfg.handover_step_s
            while t < self.duration_s:
                u = hrng.random(self.n_cells)
                nxt = np.where(bad, u >= ge.p_bad_to_good, u < ge.p_good_to_bad)
                fell = np.flatnonzero(~bad & nxt)
                for cell in fell:
                    target = (int(cell) + 1) % self.n_cells
                    events.extend(self._class_split(
                        cfg.storm_ues, hrng, t, target, "handover"))
                bad = nxt
                t += cfg.handover_step_s
        # (time, cell, class value, kind); ``_value_`` is the member's
        # value without the ``Enum.value`` descriptor call
        events.sort(key=operator.attrgetter("time_s", "cell", "service._value_", "kind"))
        return events

    # ---- consumption ---------------------------------------------------------
    @property
    def total_ues(self) -> int:
        """Total simulated sessions across the whole stream."""
        return sum(e.n_ues for e in self.events)

    def window(self, t0: float, t1: float) -> List[ArrivalEvent]:
        """Events with ``t0 <= time_s < t1``, in time order.

        Windows must be consumed in increasing-time order (the cursor
        only moves forward); the service's tick loop does exactly that.
        """
        if t1 < t0:
            raise ConfigurationError("window end must be >= start")
        # rewind is a config error, not silently wrong output
        if self._cursor > 0 and self.events[self._cursor - 1].time_s >= t1:
            raise ConfigurationError("arrival windows must advance in time")
        out: List[ArrivalEvent] = []
        while self._cursor < len(self.events):
            e = self.events[self._cursor]
            if e.time_s >= t1:
                break
            if e.time_s >= t0:
                out.append(e)
            self._cursor += 1
        return out
