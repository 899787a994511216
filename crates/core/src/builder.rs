//! Fluent construction of [`PJoin`] operators.

use crate::config::{PJoinConfig, PropagationTrigger, PurgeStrategy};
use crate::operator::PJoin;

/// Builder for [`PJoin`]; see [`PJoinConfig`] for the semantics of each
/// knob.
///
/// ```
/// use pjoin::PJoinBuilder;
/// let join = PJoinBuilder::new(3, 3)
///     .join_on(0, 0)
///     .lazy_purge(100)
///     .propagate_every(10)
///     .build();
/// assert_eq!(join.config().output_width(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct PJoinBuilder {
    config: PJoinConfig,
}

impl PJoinBuilder {
    /// Starts from the default configuration for streams of the given
    /// tuple widths.
    pub fn new(width_a: usize, width_b: usize) -> PJoinBuilder {
        PJoinBuilder { config: PJoinConfig::new(width_a, width_b) }
    }

    /// Sets the join attributes (defaults: 0, 0).
    pub fn join_on(mut self, attr_a: usize, attr_b: usize) -> Self {
        self.config.join_attr_a = attr_a;
        self.config.join_attr_b = attr_b;
        self
    }

    /// Sets the hash bucket count.
    pub fn buckets(mut self, buckets: usize) -> Self {
        self.config.buckets = buckets;
        self
    }

    /// Sets the disk page capacity in tuples.
    pub fn page_tuples(mut self, page_tuples: usize) -> Self {
        self.config.page_tuples = page_tuples;
        self
    }

    /// Sets the combined in-memory tuple budget (0 = unlimited).
    pub fn memory_max(mut self, tuples: usize) -> Self {
        self.config.memory_max_tuples = tuples;
        self
    }

    /// Sets the disk-join activation threshold in pages.
    pub fn activation_pages(mut self, pages: u64) -> Self {
        self.config.activation_pages = pages;
        self
    }

    /// Eager purge: purge on every punctuation (PJoin-1).
    pub fn eager_purge(mut self) -> Self {
        self.config.purge = PurgeStrategy::Eager;
        self
    }

    /// Lazy purge with the given threshold (PJoin-n).
    pub fn lazy_purge(mut self, threshold: u64) -> Self {
        self.config.purge = PurgeStrategy::Lazy { threshold };
        self
    }

    /// Disable purging entirely (ablation only).
    pub fn never_purge(mut self) -> Self {
        self.config.purge = PurgeStrategy::Never;
        self
    }

    /// Push-mode propagation every `count` punctuations.
    pub fn propagate_every(mut self, count: u64) -> Self {
        self.config.propagation = PropagationTrigger::PushCount { count };
        self
    }

    /// Push-mode propagation every `micros` of virtual time.
    pub fn propagate_every_micros(mut self, micros: u64) -> Self {
        self.config.propagation = PropagationTrigger::PushTime { micros };
        self
    }

    /// Matched-pair propagation (the §4.4 ideal-case configuration).
    pub fn propagate_on_matched_pair(mut self) -> Self {
        self.config.propagation = PropagationTrigger::MatchedPair;
        self
    }

    /// Pull-mode propagation (downstream requests).
    pub fn propagate_on_request(mut self) -> Self {
        self.config.propagation = PropagationTrigger::Pull;
        self
    }

    /// Disable propagation.
    pub fn no_propagation(mut self) -> Self {
        self.config.propagation = PropagationTrigger::Disabled;
        self
    }

    /// Toggle the on-the-fly drop of covered arrivals (ablation).
    pub fn on_the_fly_drop(mut self, enabled: bool) -> Self {
        self.config.on_the_fly_drop = enabled;
        self
    }

    /// Enables the sliding-window extension (§6): stored tuples expire
    /// `micros` of virtual time after arrival. Incompatible with
    /// spilling (`memory_max`).
    pub fn window_micros(mut self, micros: u64) -> Self {
        self.config.window_us = Some(micros);
        self
    }

    /// The accumulated configuration.
    pub fn config(&self) -> &PJoinConfig {
        &self.config
    }

    /// Builds the operator.
    ///
    /// # Panics
    /// If a sliding window is combined with a memory threshold — the
    /// windowed state is bounded by construction and never spills.
    pub fn build(self) -> PJoin {
        assert!(
            self.config.window_us.is_none() || self.config.memory_max_tuples == 0,
            "sliding windows do not combine with spilling"
        );
        PJoin::new(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_knobs() {
        let b = PJoinBuilder::new(3, 4)
            .join_on(1, 2)
            .buckets(8)
            .page_tuples(16)
            .memory_max(1000)
            .activation_pages(3)
            .lazy_purge(50)
            .propagate_every_micros(5_000)
            .on_the_fly_drop(false);
        let c = b.config();
        assert_eq!((c.width_a, c.width_b), (3, 4));
        assert_eq!((c.join_attr_a, c.join_attr_b), (1, 2));
        assert_eq!(c.buckets, 8);
        assert_eq!(c.page_tuples, 16);
        assert_eq!(c.memory_max_tuples, 1000);
        assert_eq!(c.activation_pages, 3);
        assert_eq!(c.purge, PurgeStrategy::Lazy { threshold: 50 });
        assert_eq!(c.propagation, PropagationTrigger::PushTime { micros: 5_000 });
        assert!(!c.on_the_fly_drop);
    }

    #[test]
    fn window_builder() {
        let b = PJoinBuilder::new(2, 2).window_micros(5_000);
        assert_eq!(b.config().window_us, Some(5_000));
    }

    #[test]
    #[should_panic(expected = "windows do not combine")]
    fn window_with_spilling_rejected() {
        let _ = PJoinBuilder::new(2, 2).window_micros(5_000).memory_max(10).build();
    }

    #[test]
    fn strategy_shortcuts() {
        assert_eq!(PJoinBuilder::new(2, 2).eager_purge().config().purge, PurgeStrategy::Eager);
        assert_eq!(PJoinBuilder::new(2, 2).never_purge().config().purge, PurgeStrategy::Never);
        assert_eq!(
            PJoinBuilder::new(2, 2).propagate_on_matched_pair().config().propagation,
            PropagationTrigger::MatchedPair
        );
        assert_eq!(
            PJoinBuilder::new(2, 2).propagate_on_request().config().propagation,
            PropagationTrigger::Pull
        );
        assert_eq!(
            PJoinBuilder::new(2, 2).no_propagation().config().propagation,
            PropagationTrigger::Disabled
        );
    }
}
