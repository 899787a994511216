//! Events and components of the PJoin framework.

use std::fmt;

/// The events modelling status changes of monitored runtime parameters
/// (paper §3.6; the listing's missing #4 is the disk-join activation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Both input streams ran out of tuples.
    StreamEmpty,
    /// The purge threshold was reached.
    PurgeThresholdReach,
    /// The in-memory join state reached the memory threshold.
    StateFull,
    /// A disk portion reached the disk-join activation threshold (or a
    /// purge buffer is waiting on one).
    DiskJoinActivate,
    /// A propagation request arrived from a downstream operator (pull
    /// mode).
    PropagateRequest,
    /// The time propagation threshold expired.
    PropagateTimeExpire,
    /// The count propagation threshold was reached.
    PropagateCountReach,
    /// A punctuation arrived (feeds the matched-pair trigger).
    PunctuationArrive,
}

impl EventKind {
    /// All kinds, for registry enumeration.
    pub const ALL: [EventKind; 8] = [
        EventKind::StreamEmpty,
        EventKind::PurgeThresholdReach,
        EventKind::StateFull,
        EventKind::DiskJoinActivate,
        EventKind::PropagateRequest,
        EventKind::PropagateTimeExpire,
        EventKind::PropagateCountReach,
        EventKind::PunctuationArrive,
    ];

    /// The kind's dense index in [`EventKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            EventKind::StreamEmpty => 0,
            EventKind::PurgeThresholdReach => 1,
            EventKind::StateFull => 2,
            EventKind::DiskJoinActivate => 3,
            EventKind::PropagateRequest => 4,
            EventKind::PropagateTimeExpire => 5,
            EventKind::PropagateCountReach => 6,
            EventKind::PunctuationArrive => 7,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::StreamEmpty => "StreamEmptyEvent",
            EventKind::PurgeThresholdReach => "PurgeThresholdReachEvent",
            EventKind::StateFull => "StateFullEvent",
            EventKind::DiskJoinActivate => "DiskJoinActivateEvent",
            EventKind::PropagateRequest => "PropagateRequestEvent",
            EventKind::PropagateTimeExpire => "PropagateTimeExpireEvent",
            EventKind::PropagateCountReach => "PropagateCountReachEvent",
            EventKind::PunctuationArrive => "PunctuationArriveEvent",
        };
        f.write_str(s)
    }
}

/// A raised event instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event.
    pub fn new(kind: EventKind) -> Event {
        Event { kind }
    }
}

/// The executable components of PJoin (paper §3.1) — the listeners the
/// registry binds to events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Purge no-longer-useful data from the join state.
    StatePurge,
    /// Move part of the in-memory state to disk.
    StateRelocation,
    /// Retrieve disk-resident state and finish left-over joins.
    DiskJoin,
    /// The paper's punctuation-index build. Never scheduled: the index
    /// counts stored tuples by join value as they enter and leave the
    /// state. Kept so the profile keeps its row.
    IndexBuild,
    /// Release propagable punctuations to the output stream.
    Propagation,
}

impl Component {
    /// All components, for profiler enumeration.
    pub const ALL: [Component; 5] = [
        Component::StatePurge,
        Component::StateRelocation,
        Component::DiskJoin,
        Component::IndexBuild,
        Component::Propagation,
    ];

    /// The component's dense index in [`Component::ALL`].
    pub fn index(self) -> usize {
        match self {
            Component::StatePurge => 0,
            Component::StateRelocation => 1,
            Component::DiskJoin => 2,
            Component::IndexBuild => 3,
            Component::Propagation => 4,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::StatePurge => "state-purge",
            Component::StateRelocation => "state-relocation",
            Component::DiskJoin => "disk-join",
            Component::IndexBuild => "index-build",
            Component::Propagation => "propagation",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_enumerated_and_displayed() {
        assert_eq!(EventKind::ALL.len(), 8);
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert!(kind.to_string().ends_with("Event"));
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn component_names() {
        assert_eq!(Component::StatePurge.to_string(), "state-purge");
        assert_eq!(Component::Propagation.to_string(), "propagation");
    }

    #[test]
    fn component_indices_are_dense() {
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
