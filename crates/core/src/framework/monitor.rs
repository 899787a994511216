//! The monitor: watches runtime parameters and raises events when
//! thresholds are reached (paper §3.6). Thresholds are mutable at
//! runtime.
//!
//! # Per-shard isolation
//!
//! A sharded executor (`punct-exec`) runs one [`Monitor`] (and one
//! [`Registry`](crate::framework::Registry)) per shard, each on its own
//! worker thread. The framework therefore must not hold shared mutable
//! state: monitors are plain owned values (no statics, no interior
//! `Arc`/`Mutex` aliasing), `Clone` produces a fully independent copy,
//! and [`EventKind::ALL`](crate::framework::EventKind::ALL) is an
//! immutable `const`. Edge-triggered counters (punctuations since last
//! purge/propagation, matched-pair flags) are per-instance, so each
//! shard's thresholds fire on *its* punctuation sequence — the
//! broadcast layer above is responsible for feeding every shard the
//! punctuations it must observe.

use punct_types::Timestamp;

use crate::config::{PJoinConfig, PropagationTrigger};
use crate::framework::events::{Event, EventKind};

/// A snapshot of the runtime parameters the monitor evaluates.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitorSnapshot {
    /// In-memory tuples across both states (stores + purge buffers).
    pub memory_tuples: usize,
    /// Whether any bucket's disk portion meets the activation threshold
    /// or has purge-buffer entries waiting on it.
    pub disk_join_ready: bool,
    /// Current virtual time.
    pub now: Timestamp,
}

/// The runtime-parameter monitor.
#[derive(Debug, Clone)]
pub struct Monitor {
    /// Punctuations (across both inputs) since the last state purge.
    puncts_since_purge: u64,
    /// Punctuations since the last propagation.
    puncts_since_propagation: u64,
    /// Virtual time of the last propagation.
    last_propagation: Timestamp,
    /// Pending pull-mode propagation request.
    propagation_requested: bool,
    /// A matched punctuation pair arrived (matched-pair trigger).
    matched_pair_seen: bool,
    /// The purge threshold (None = never purge). Runtime-tunable.
    pub purge_threshold: Option<u64>,
    /// The memory threshold in tuples (0 = unlimited). Runtime-tunable.
    pub memory_threshold: usize,
    /// The count propagation threshold, if push-count mode.
    pub propagate_count: Option<u64>,
    /// The time propagation threshold in µs, if push-time mode.
    pub propagate_time_us: Option<u64>,
}

impl Monitor {
    /// Builds a monitor from the operator configuration.
    pub fn from_config(config: &PJoinConfig) -> Monitor {
        Monitor {
            puncts_since_purge: 0,
            puncts_since_propagation: 0,
            last_propagation: Timestamp::ZERO,
            propagation_requested: false,
            matched_pair_seen: false,
            purge_threshold: config.purge.threshold(),
            memory_threshold: config.memory_max_tuples,
            propagate_count: match config.propagation {
                PropagationTrigger::PushCount { count } => Some(count.max(1)),
                _ => None,
            },
            propagate_time_us: match config.propagation {
                PropagationTrigger::PushTime { micros } => Some(micros.max(1)),
                _ => None,
            },
        }
    }

    /// Records a punctuation arrival; `matched_pair` reports whether it
    /// completed an equivalent pair across the inputs.
    pub fn punctuation_arrived(&mut self, matched_pair: bool) {
        self.puncts_since_purge += 1;
        self.puncts_since_propagation += 1;
        if matched_pair {
            self.matched_pair_seen = true;
        }
    }

    /// Records a pull-mode propagation request.
    pub fn request_propagation(&mut self) {
        self.propagation_requested = true;
    }

    /// Number of punctuations since the last purge (for tests/metrics).
    pub fn puncts_since_purge(&self) -> u64 {
        self.puncts_since_purge
    }

    /// Number of punctuations since the last propagation (for
    /// tests/metrics).
    pub fn puncts_since_propagation(&self) -> u64 {
        self.puncts_since_propagation
    }

    /// Evaluates the thresholds against `snapshot`, returning the raised
    /// events and resetting edge-triggered counters. Each of the four
    /// checks (purge, memory, disk join, propagation) has its slot, in
    /// that order, `None` where it raised nothing: a poll does not
    /// allocate.
    pub fn poll(
        &mut self,
        snapshot: &MonitorSnapshot,
        matched_pair_mode: bool,
    ) -> [Option<Event>; 4] {
        let mut events = [None; 4];

        if let Some(threshold) = self.purge_threshold {
            if self.puncts_since_purge >= threshold {
                events[0] = Some(Event::new(EventKind::PurgeThresholdReach));
                self.puncts_since_purge = 0;
            }
        }

        if self.memory_threshold > 0 && snapshot.memory_tuples > self.memory_threshold {
            events[1] = Some(Event::new(EventKind::StateFull));
        }

        if snapshot.disk_join_ready {
            events[2] = Some(Event::new(EventKind::DiskJoinActivate));
        }

        if self.propagation_requested {
            self.propagation_requested = false;
            events[3] = Some(Event::new(EventKind::PropagateRequest));
            self.note_propagated(snapshot.now);
        } else if matched_pair_mode && self.matched_pair_seen {
            self.matched_pair_seen = false;
            events[3] = Some(Event::new(EventKind::PropagateRequest));
            self.note_propagated(snapshot.now);
        } else if let Some(count) = self.propagate_count {
            if self.puncts_since_propagation >= count {
                events[3] = Some(Event::new(EventKind::PropagateCountReach));
                self.note_propagated(snapshot.now);
            }
        } else if let Some(us) = self.propagate_time_us {
            if snapshot.now.micros_since(self.last_propagation) >= us {
                events[3] = Some(Event::new(EventKind::PropagateTimeExpire));
                self.note_propagated(snapshot.now);
            }
        }

        events
    }

    fn note_propagated(&mut self, now: Timestamp) {
        self.puncts_since_propagation = 0;
        self.last_propagation = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PurgeStrategy;

    fn config(purge: PurgeStrategy, propagation: PropagationTrigger) -> PJoinConfig {
        PJoinConfig { purge, propagation, ..PJoinConfig::new(2, 2) }
    }

    fn fired(m: &mut Monitor, snapshot: &MonitorSnapshot, matched_pair_mode: bool) -> Vec<Event> {
        m.poll(snapshot, matched_pair_mode).into_iter().flatten().collect()
    }

    fn snap(now: u64) -> MonitorSnapshot {
        MonitorSnapshot { memory_tuples: 0, disk_join_ready: false, now: Timestamp(now) }
    }

    #[test]
    fn purge_threshold_fires_and_resets() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Lazy { threshold: 3 },
            PropagationTrigger::Disabled,
        ));
        m.punctuation_arrived(false);
        m.punctuation_arrived(false);
        assert!(fired(&mut m, &snap(0), false).is_empty());
        m.punctuation_arrived(false);
        let events = fired(&mut m, &snap(0), false);
        assert_eq!(events, vec![Event::new(EventKind::PurgeThresholdReach)]);
        // Counter reset.
        assert!(fired(&mut m, &snap(0), false).is_empty());
    }

    #[test]
    fn eager_purge_fires_every_punctuation() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Eager,
            PropagationTrigger::Disabled,
        ));
        for _ in 0..3 {
            m.punctuation_arrived(false);
            let events = fired(&mut m, &snap(0), false);
            assert!(events.contains(&Event::new(EventKind::PurgeThresholdReach)));
        }
    }

    #[test]
    fn never_purge_never_fires() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::Disabled,
        ));
        for _ in 0..100 {
            m.punctuation_arrived(false);
        }
        assert!(fired(&mut m, &snap(0), false).is_empty());
    }

    #[test]
    fn state_full_when_over_threshold() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::Disabled,
        ));
        m.memory_threshold = 10;
        let s = MonitorSnapshot { memory_tuples: 11, ..snap(0) };
        assert_eq!(fired(&mut m, &s, false), vec![Event::new(EventKind::StateFull)]);
        let s = MonitorSnapshot { memory_tuples: 10, ..snap(0) };
        assert!(fired(&mut m, &s, false).is_empty());
    }

    #[test]
    fn count_propagation_threshold() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::PushCount { count: 2 },
        ));
        m.punctuation_arrived(false);
        assert!(fired(&mut m, &snap(0), false).is_empty());
        m.punctuation_arrived(false);
        assert_eq!(
            fired(&mut m, &snap(0), false),
            vec![Event::new(EventKind::PropagateCountReach)]
        );
        assert!(fired(&mut m, &snap(0), false).is_empty());
    }

    #[test]
    fn time_propagation_threshold() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::PushTime { micros: 100 },
        ));
        assert!(fired(&mut m, &snap(50), false).is_empty());
        assert_eq!(
            fired(&mut m, &snap(100), false),
            vec![Event::new(EventKind::PropagateTimeExpire)]
        );
        // Clock resets to the firing time.
        assert!(fired(&mut m, &snap(150), false).is_empty());
        assert!(!fired(&mut m, &snap(200), false).is_empty());
    }

    #[test]
    fn pull_request_fires_once() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::Pull,
        ));
        assert!(fired(&mut m, &snap(0), false).is_empty());
        m.request_propagation();
        assert_eq!(fired(&mut m, &snap(0), false), vec![Event::new(EventKind::PropagateRequest)]);
        assert!(fired(&mut m, &snap(0), false).is_empty());
    }

    #[test]
    fn matched_pair_mode() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::MatchedPair,
        ));
        m.punctuation_arrived(false);
        assert!(fired(&mut m, &snap(0), true).is_empty());
        m.punctuation_arrived(true);
        assert_eq!(fired(&mut m, &snap(0), true), vec![Event::new(EventKind::PropagateRequest)]);
        assert!(fired(&mut m, &snap(0), true).is_empty());
    }

    #[test]
    fn counters_reset_exactly_once_per_fired_event() {
        // Purge and propagation each track their own punctuation count;
        // a poll that fires both must reset each exactly once and leave
        // the other's counter alone on partial fires.
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Lazy { threshold: 2 },
            PropagationTrigger::PushCount { count: 3 },
        ));
        m.punctuation_arrived(false);
        m.punctuation_arrived(false);
        assert_eq!(m.puncts_since_purge(), 2);
        assert_eq!(m.puncts_since_propagation(), 2);
        // Purge fires (2 >= 2); propagation does not (2 < 3).
        let events = fired(&mut m, &snap(0), false);
        assert_eq!(events, vec![Event::new(EventKind::PurgeThresholdReach)]);
        assert_eq!(m.puncts_since_purge(), 0, "fired counter resets");
        assert_eq!(m.puncts_since_propagation(), 2, "unfired counter keeps counting");
        // A quiet poll must not reset anything again.
        assert!(fired(&mut m, &snap(0), false).is_empty());
        assert_eq!(m.puncts_since_propagation(), 2);
        // One more punctuation: propagation fires (3 >= 3), purge does
        // not (1 < 2) — both reset exactly once each across the run.
        m.punctuation_arrived(false);
        let events = fired(&mut m, &snap(0), false);
        assert_eq!(events, vec![Event::new(EventKind::PropagateCountReach)]);
        assert_eq!(m.puncts_since_purge(), 1);
        assert_eq!(m.puncts_since_propagation(), 0);
    }

    #[test]
    fn both_thresholds_firing_in_one_poll_reset_both_counters_once() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Lazy { threshold: 2 },
            PropagationTrigger::PushCount { count: 2 },
        ));
        m.punctuation_arrived(false);
        m.punctuation_arrived(false);
        let events = fired(&mut m, &snap(0), false);
        assert_eq!(
            events,
            vec![
                Event::new(EventKind::PurgeThresholdReach),
                Event::new(EventKind::PropagateCountReach),
            ]
        );
        assert_eq!(m.puncts_since_purge(), 0);
        assert_eq!(m.puncts_since_propagation(), 0);
        // Neither re-fires without new punctuations.
        assert!(fired(&mut m, &snap(0), false).is_empty());
    }

    #[test]
    fn matched_pair_does_not_refire_without_a_new_pair() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::MatchedPair,
        ));
        m.punctuation_arrived(true);
        assert_eq!(fired(&mut m, &snap(0), true), vec![Event::new(EventKind::PropagateRequest)]);
        // Unmatched punctuations after the fire must not re-trigger.
        m.punctuation_arrived(false);
        m.punctuation_arrived(false);
        assert!(fired(&mut m, &snap(0), true).is_empty());
        assert!(fired(&mut m, &snap(0), true).is_empty());
        // A new matched pair fires again — exactly once.
        m.punctuation_arrived(true);
        assert_eq!(fired(&mut m, &snap(0), true), vec![Event::new(EventKind::PropagateRequest)]);
        assert!(fired(&mut m, &snap(0), true).is_empty());
    }

    #[test]
    fn matched_pair_fire_resets_propagation_count() {
        // The matched-pair fire notes a propagation, so a count-based
        // reading of puncts_since_propagation restarts from zero.
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::MatchedPair,
        ));
        m.punctuation_arrived(false);
        m.punctuation_arrived(true);
        assert_eq!(m.puncts_since_propagation(), 2);
        assert_eq!(fired(&mut m, &snap(0), true).len(), 1);
        assert_eq!(m.puncts_since_propagation(), 0);
    }

    #[test]
    fn cloned_monitors_are_fully_independent() {
        // Per-shard monitors start as clones of a template; mutating one
        // (thresholds or edge-triggered counters) must not alias into
        // another — the invariant sharded execution relies on.
        let mut template = Monitor::from_config(&config(
            PurgeStrategy::Lazy { threshold: 3 },
            PropagationTrigger::PushCount { count: 2 },
        ));
        let mut shard0 = template.clone();
        let mut shard1 = template.clone();

        shard0.purge_threshold = Some(1);
        shard0.punctuation_arrived(false);
        assert!(!fired(&mut shard0, &snap(0), false).is_empty());

        // shard1 and the template saw nothing.
        assert_eq!(shard1.puncts_since_purge(), 0);
        assert!(fired(&mut shard1, &snap(0), false).is_empty());
        assert_eq!(template.puncts_since_purge(), 0);
        assert!(fired(&mut template, &snap(0), false).is_empty());
        assert_eq!(template.purge_threshold, Some(3));
    }

    #[test]
    fn event_kind_all_is_shareable_across_threads() {
        // EventKind::ALL is a const lookup table, not mutable state:
        // concurrent enumeration from many shard threads is sound.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    crate::framework::EventKind::ALL
                        .iter()
                        .map(|k| k.to_string().len())
                        .sum::<usize>()
                })
            })
            .collect();
        let sums: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn disk_join_ready_raises_event() {
        let mut m = Monitor::from_config(&config(
            PurgeStrategy::Never,
            PropagationTrigger::Disabled,
        ));
        let s = MonitorSnapshot { disk_join_ready: true, ..snap(0) };
        assert_eq!(fired(&mut m, &s, false), vec![Event::new(EventKind::DiskJoinActivate)]);
    }
}
