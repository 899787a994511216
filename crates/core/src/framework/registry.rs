//! The event-listener registry (paper §3.6, Table 1).
//!
//! "Each entry in the registry lists the event to be generated, the
//! additional conditions to be checked and the listeners (components)
//! which will be executed to handle the event. The registry while
//! initiated at the static query optimization phase can be updated at
//! runtime."

use std::fmt;

use crate::config::{PJoinConfig, PropagationTrigger};
use crate::framework::events::{Component, EventKind};

/// One registry entry: an event and its ordered listeners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The event handled by this entry.
    pub event: EventKind,
    /// Human-readable additional condition (documentation of the check
    /// the monitor performs before raising the event).
    pub condition: String,
    /// Components executed, in order.
    pub listeners: Vec<Component>,
}

/// The event-listener registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Vec<RegistryEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Builds the registry dictated by an operator configuration.
    ///
    /// The paper's §3.6 couples an index build either in front of every
    /// propagation listener (lazy) or to [`EventKind::PunctuationArrive`]
    /// (eager). Here the punctuation index counts stored tuples as they
    /// enter and leave the state, so there is nothing to build and
    /// propagation runs alone; [`Component::IndexBuild`] is never
    /// registered.
    pub fn from_config(config: &PJoinConfig) -> Registry {
        let mut r = Registry::new();

        r.register(
            EventKind::PurgeThresholdReach,
            "new punctuations since last purge >= purge threshold",
            vec![Component::StatePurge],
        );
        r.register(
            EventKind::StateFull,
            "in-memory state size > memory threshold",
            vec![Component::StateRelocation],
        );
        r.register(
            EventKind::DiskJoinActivate,
            "disk portion >= activation threshold, or purge buffer waiting",
            vec![Component::DiskJoin],
        );

        match config.propagation {
            PropagationTrigger::Disabled => {}
            PropagationTrigger::PushCount { count } => r.register(
                EventKind::PropagateCountReach,
                format!("punctuations since last propagation >= {count}"),
                vec![Component::Propagation],
            ),
            PropagationTrigger::PushTime { micros } => r.register(
                EventKind::PropagateTimeExpire,
                format!("time since last propagation >= {micros}us"),
                vec![Component::Propagation],
            ),
            PropagationTrigger::MatchedPair | PropagationTrigger::Pull => r.register(
                EventKind::PropagateRequest,
                "matched punctuation pair received or downstream request",
                vec![Component::Propagation],
            ),
        }

        // Stream end: finish left-over disk joins, final purge (unless
        // purging is disabled outright), then flush propagation.
        let mut end = vec![Component::DiskJoin];
        if config.purge != crate::config::PurgeStrategy::Never {
            end.push(Component::StatePurge);
        }
        if config.propagation != PropagationTrigger::Disabled {
            end.push(Component::Propagation);
        }
        r.register(EventKind::StreamEmpty, "both inputs exhausted", end);

        r
    }

    /// The registry of the paper's **Table 1**: lazy purge and push-mode
    /// count propagation (without the paper's coupled lazy index build;
    /// see [`from_config`](Self::from_config)).
    pub fn table1(purge_threshold: u64, count_threshold: u64) -> Registry {
        let config = PJoinConfig {
            purge: crate::config::PurgeStrategy::Lazy { threshold: purge_threshold },
            propagation: PropagationTrigger::PushCount { count: count_threshold },
            ..PJoinConfig::new(2, 2)
        };
        Registry::from_config(&config)
    }

    /// Registers (appends) an entry at runtime.
    pub fn register(
        &mut self,
        event: EventKind,
        condition: impl Into<String>,
        listeners: Vec<Component>,
    ) {
        self.entries.push(RegistryEntry { event, condition: condition.into(), listeners });
    }

    /// Removes all entries for an event (runtime reconfiguration).
    pub fn unregister(&mut self, event: EventKind) {
        self.entries.retain(|e| e.event != event);
    }

    /// The ordered listeners for an event (concatenated across entries).
    pub fn listeners(&self, event: EventKind) -> impl Iterator<Item = Component> + '_ {
        self.entries
            .iter()
            .filter(move |e| e.event == event)
            .flat_map(|e| e.listeners.iter().copied())
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<28} {:<52} listeners", "event", "condition")?;
        for e in &self.entries {
            let listeners: Vec<String> = e.listeners.iter().map(|l| l.to_string()).collect();
            writeln!(f, "{:<28} {:<52} {}", e.event.to_string(), e.condition, listeners.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PurgeStrategy;

    fn listeners(r: &Registry, event: EventKind) -> Vec<Component> {
        r.listeners(event).collect()
    }

    #[test]
    fn table1_wires_lazy_couplings() {
        let r = Registry::table1(10, 5);
        // Lazy purge on threshold.
        assert_eq!(listeners(&r, EventKind::PurgeThresholdReach), vec![Component::StatePurge]);
        // Propagation on the count event, with no index build coupled in
        // front of it: the index counts stored tuples as they come and go.
        assert_eq!(listeners(&r, EventKind::PropagateCountReach), vec![Component::Propagation]);
        // Nothing runs on punctuation arrival, and nothing ever builds.
        assert!(listeners(&r, EventKind::PunctuationArrive).is_empty());
        assert!(r.entries().iter().all(|e| !e.listeners.contains(&Component::IndexBuild)));
    }

    #[test]
    fn disabled_propagation_registers_nothing() {
        let config = PJoinConfig {
            propagation: PropagationTrigger::Disabled,
            ..PJoinConfig::new(2, 2)
        };
        let r = Registry::from_config(&config);
        assert!(listeners(&r, EventKind::PropagateCountReach).is_empty());
        assert!(listeners(&r, EventKind::PropagateRequest).is_empty());
        // Stream-empty cleanup skips propagation too.
        assert!(!listeners(&r, EventKind::StreamEmpty).contains(&Component::Propagation));
    }

    #[test]
    fn runtime_reconfiguration() {
        let mut r = Registry::table1(10, 5);
        r.unregister(EventKind::PurgeThresholdReach);
        assert!(listeners(&r, EventKind::PurgeThresholdReach).is_empty());
        r.register(EventKind::PurgeThresholdReach, "custom", vec![Component::StatePurge]);
        assert_eq!(listeners(&r, EventKind::PurgeThresholdReach).len(), 1);
    }

    #[test]
    fn never_purge_excludes_stream_empty_purge() {
        let config = PJoinConfig { purge: PurgeStrategy::Never, ..PJoinConfig::new(2, 2) };
        let r = Registry::from_config(&config);
        assert!(!listeners(&r, EventKind::StreamEmpty).contains(&Component::StatePurge));
        // Ordinary configurations keep the final purge.
        let r = Registry::table1(10, 5);
        assert!(listeners(&r, EventKind::StreamEmpty).contains(&Component::StatePurge));
    }

    #[test]
    fn cloned_registries_are_fully_independent() {
        // Per-shard registries are clones of one template; runtime
        // reconfiguration of a shard must not leak into its siblings.
        let template = Registry::table1(10, 5);
        let mut shard0 = template.clone();
        shard0.unregister(EventKind::PurgeThresholdReach);
        shard0.register(EventKind::StateFull, "shard-local", vec![Component::StatePurge]);
        assert!(listeners(&shard0, EventKind::PurgeThresholdReach).is_empty());
        assert_eq!(
            listeners(&template, EventKind::PurgeThresholdReach),
            vec![Component::StatePurge]
        );
        assert_eq!(listeners(&template, EventKind::StateFull), vec![Component::StateRelocation]);
    }

    #[test]
    fn display_renders_table() {
        let r = Registry::table1(10, 5);
        let s = r.to_string();
        assert!(s.contains("PurgeThresholdReachEvent"));
        assert!(s.contains("state-purge"));
        assert!(s.contains("disk-join, state-purge, propagation"));
    }
}
