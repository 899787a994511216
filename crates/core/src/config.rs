//! PJoin configuration: the tuning options of the paper's §3.

use punct_trace::TraceSettings;
use serde::{Deserialize, Serialize};

/// When the state purge component runs (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PurgeStrategy {
    /// Purge whenever a punctuation is obtained — minimum memory
    /// overhead, but a full state scan per punctuation.
    Eager,
    /// Purge when `threshold` punctuations have arrived since the last
    /// purge — batches the scan cost. `Lazy { threshold: 1 }` is
    /// equivalent to [`PurgeStrategy::Eager`]; the paper writes both as
    /// `PJoin-1`.
    Lazy {
        /// Punctuations between two state purges.
        threshold: u64,
    },
    /// Never purge (degenerates to XJoin-like state growth; used by
    /// ablation benches).
    Never,
}

impl PurgeStrategy {
    /// The purge threshold, if purging is enabled.
    pub fn threshold(&self) -> Option<u64> {
        match self {
            PurgeStrategy::Eager => Some(1),
            PurgeStrategy::Lazy { threshold } => Some((*threshold).max(1)),
            PurgeStrategy::Never => None,
        }
    }
}

/// When punctuation propagation is invoked (paper §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PropagationTrigger {
    /// Never propagate (the downstream does not need punctuations).
    Disabled,
    /// Push mode, count threshold: propagate after every `count`
    /// punctuations received (across both inputs).
    PushCount {
        /// The count propagation threshold.
        count: u64,
    },
    /// Push mode, time threshold: propagate when `micros` of virtual time
    /// passed since the last propagation.
    PushTime {
        /// The time propagation threshold in microseconds.
        micros: u64,
    },
    /// Propagate when a punctuation arrives whose join-attribute pattern
    /// equals one already present in the opposite set — the "ideal case"
    /// configuration of the paper's §4.4.
    MatchedPair,
    /// Pull mode: propagate only when the downstream operator requests it
    /// via [`PJoin::request_propagation`](crate::PJoin::request_propagation).
    Pull,
}

/// Full PJoin configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PJoinConfig {
    /// Width (attribute count) of stream A tuples — needed to translate
    /// punctuations to the output schema.
    pub width_a: usize,
    /// Width of stream B tuples.
    pub width_b: usize,
    /// Join attribute index in stream A tuples.
    pub join_attr_a: usize,
    /// Join attribute index in stream B tuples.
    pub join_attr_b: usize,
    /// Number of hash buckets per input state.
    pub buckets: usize,
    /// Records per disk page.
    pub page_tuples: usize,
    /// Combined in-memory tuple budget (stores + purge buffers);
    /// exceeding it triggers state relocation. `0` disables spilling.
    pub memory_max_tuples: usize,
    /// Minimum disk pages in a bucket before an idle slot runs the disk
    /// join on it (activation threshold, inherited from XJoin).
    pub activation_pages: u64,
    /// State purge strategy.
    pub purge: PurgeStrategy,
    /// Propagation trigger.
    pub propagation: PropagationTrigger,
    /// Whether arriving tuples already covered by the opposite
    /// punctuation set are dropped on the fly (§4.3). Disable only for
    /// ablation studies.
    pub on_the_fly_drop: bool,
    /// Sliding-window extension (paper §6): when set, stored tuples
    /// expire `window_us` microseconds of virtual time after arrival, in
    /// addition to punctuation-based purging. Windowed configurations
    /// keep their state bounded by construction and therefore do not
    /// support spilling (`memory_max_tuples` must stay 0).
    pub window_us: Option<u64>,
    /// Tracing and latency-histogram recording. Off by default: every
    /// hook is then a single-branch no-op and nothing is allocated.
    pub trace: TraceSettings,
}

impl PJoinConfig {
    /// A configuration for symmetric `(key, payload…)` streams of the
    /// given widths, joining on attribute 0, with the paper's Table 1
    /// style defaults: lazy purge (threshold 10), push-mode propagation
    /// every 10 punctuations.
    pub fn new(width_a: usize, width_b: usize) -> PJoinConfig {
        PJoinConfig {
            width_a,
            width_b,
            join_attr_a: 0,
            join_attr_b: 0,
            buckets: 64,
            page_tuples: 64,
            memory_max_tuples: 0,
            activation_pages: 1,
            purge: PurgeStrategy::Lazy { threshold: 10 },
            propagation: PropagationTrigger::PushCount { count: 10 },
            on_the_fly_drop: true,
            window_us: None,
            trace: TraceSettings::default(),
        }
    }

    /// Width of output (joined) tuples.
    pub fn output_width(&self) -> usize {
        self.width_a + self.width_b
    }

    /// The same configuration with tracing enabled (default ring
    /// capacity).
    pub fn with_tracing(mut self) -> PJoinConfig {
        self.trace = TraceSettings::enabled();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purge_thresholds() {
        assert_eq!(PurgeStrategy::Eager.threshold(), Some(1));
        assert_eq!(PurgeStrategy::Lazy { threshold: 40 }.threshold(), Some(40));
        assert_eq!(PurgeStrategy::Lazy { threshold: 0 }.threshold(), Some(1));
        assert_eq!(PurgeStrategy::Never.threshold(), None);
    }

    #[test]
    fn default_config_shape() {
        let c = PJoinConfig::new(3, 4);
        assert_eq!(c.output_width(), 7);
        assert!(c.on_the_fly_drop);
        assert_eq!(c.memory_max_tuples, 0);
        assert_eq!(c.window_us, None);
        assert_eq!(c.purge, PurgeStrategy::Lazy { threshold: 10 });
        assert!(!c.trace.enabled, "tracing is opt-in");
        assert!(PJoinConfig::new(2, 2).with_tracing().trace.enabled);
    }
}
