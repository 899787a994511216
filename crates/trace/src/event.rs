//! The typed trace-event taxonomy.
//!
//! One event type covers the whole stack: the six PJoin component
//! lifecycles (memory join, disk join, relocation, purge, index build,
//! propagation), the punctuation lifecycle instants (arrive, emit), the
//! sharded-executor events (route, broadcast, align, merge) and the
//! simulation driver's ingress stamps. Events are `Copy` and fixed-size
//! so a ring-buffer sink can hold them without any per-event allocation.

/// A trace lane: the logical "thread" an event belongs to. Shard workers
/// use their shard index; the router, driver and network threads use
/// reserved high values.
pub type Lane = u32;

/// Lane of the sharded executor's router thread.
pub const LANE_ROUTER: Lane = u32::MAX - 1;
/// Lane of the simulation driver (ingress stamps).
pub const LANE_DRIVER: Lane = u32::MAX - 2;
/// Lane of the networked transport's ingest server threads.
pub const LANE_NET_INGEST: Lane = u32::MAX - 3;
/// Lane of the networked transport's sink server threads.
pub const LANE_NET_SINK: Lane = u32::MAX - 4;
/// Lane of a networked source/consumer client.
pub const LANE_NET_CLIENT: Lane = u32::MAX - 5;

/// Human-readable lane name, used by the exporters.
pub fn lane_name(lane: Lane) -> String {
    match lane {
        LANE_ROUTER => "router".into(),
        LANE_DRIVER => "driver".into(),
        LANE_NET_INGEST => "net-ingest".into(),
        LANE_NET_SINK => "net-sink".into(),
        LANE_NET_CLIENT => "net-client".into(),
        shard => format!("shard-{shard}"),
    }
}

/// What happened. The `a` / `b` payload of a [`TraceEvent`] is
/// kind-specific; the meaning of each slot is documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A memory-join burst: the foreground probe/insert work between
    /// two punctuation-driven component runs, recorded as one span
    /// (`a` = tuples processed, `b` = matches emitted). Aggregated per
    /// burst rather than per tuple so the hot path stays at counter
    /// increments — one wall-clock read pair per burst.
    MemoryJoin,
    /// Disk-join resolution of one bucket (`a` = bucket index, `b` =
    /// results emitted).
    DiskJoin,
    /// State relocation: one bucket spilled to disk (`a` = bucket index,
    /// `b` = pages written).
    Relocation,
    /// State purge run (`a` = tuples removed, `b` = punctuations
    /// applied).
    Purge,
    /// Punctuation-index build run (`a` = tuples scanned, `b` = 0). PJoin
    /// no longer emits it: its index has nothing to build. The kind
    /// keeps its place in the encoding.
    IndexBuild,
    /// Propagation run (`a` = punctuations released, `b` = 0).
    Propagation,
    /// A punctuation arrived at the operator (`a` = punctuation id on
    /// its side, `b` = side index 0/1).
    PunctArrive,
    /// A punctuation was released downstream (`a` = punctuation id,
    /// `b` = arrival→propagation latency in µs of virtual time).
    PunctEmit,
    /// The router sent a punctuation to a strict subset of shards
    /// (`a` = router sequence number, `b` = target shard bitmask).
    Route,
    /// The router broadcast a punctuation to every shard (`a` = router
    /// sequence number, `b` = target shard bitmask).
    Broadcast,
    /// A shard audited one of its propagations, by count or against the
    /// aligner (`a` = outcome: 0 emit, 1 pending, 2 unexpected; `b` =
    /// shard).
    Align,
    /// A shard sent a batch downstream (`a` = batch length, `b` = 0).
    Merge,
    /// An element entered the system (`a` = side index, `b` = 1 if it
    /// was a punctuation).
    Ingress,
    /// The networked transport encoded frames onto a socket (`a` = bytes
    /// encoded, `b` = frames encoded).
    NetEncode,
    /// The networked transport decoded frames off a socket (`a` = bytes
    /// decoded, `b` = frames decoded).
    NetDecode,
    /// A backpressure stall: the transport blocked because credits ran
    /// out (client side) or the downstream channel was full (server
    /// side). Recorded as a span covering the stall (`a` = stream id,
    /// `b` = 0 client-credit stall / 1 server-channel stall).
    NetStall,
    /// A connection (re)establishment after a disconnect (`a` = attempt
    /// number within the backoff schedule, `b` = the sequence number the
    /// peer asked to resume from).
    NetReconnect,
    /// One router batch: the span from the first element staged in a
    /// shard buffer to its flush (`a` = target shard, `b` = elements in
    /// the batch). The batched analogue of the memory-join burst span.
    RouterBatch,
    /// One wire data batch moved as a single frame/syscall (`a` = stream
    /// id, `b` = elements in the batch).
    NetBatch,
}

impl TraceKind {
    /// Every kind, for schema enumeration. Append-only: the telemetry
    /// wire codec encodes kinds by their position here.
    pub const ALL: [TraceKind; 19] = [
        TraceKind::MemoryJoin,
        TraceKind::DiskJoin,
        TraceKind::Relocation,
        TraceKind::Purge,
        TraceKind::IndexBuild,
        TraceKind::Propagation,
        TraceKind::PunctArrive,
        TraceKind::PunctEmit,
        TraceKind::Route,
        TraceKind::Broadcast,
        TraceKind::Align,
        TraceKind::Merge,
        TraceKind::Ingress,
        TraceKind::NetEncode,
        TraceKind::NetDecode,
        TraceKind::NetStall,
        TraceKind::NetReconnect,
        TraceKind::RouterBatch,
        TraceKind::NetBatch,
    ];

    /// The stable wire name (JSONL `kind` field, Chrome trace `name`).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::MemoryJoin => "memory_join",
            TraceKind::DiskJoin => "disk_join",
            TraceKind::Relocation => "relocation",
            TraceKind::Purge => "purge",
            TraceKind::IndexBuild => "index_build",
            TraceKind::Propagation => "propagation",
            TraceKind::PunctArrive => "punct_arrive",
            TraceKind::PunctEmit => "punct_emit",
            TraceKind::Route => "route",
            TraceKind::Broadcast => "broadcast",
            TraceKind::Align => "align",
            TraceKind::Merge => "merge",
            TraceKind::Ingress => "ingress",
            TraceKind::NetEncode => "net_encode",
            TraceKind::NetDecode => "net_decode",
            TraceKind::NetStall => "net_stall",
            TraceKind::NetReconnect => "net_reconnect",
            TraceKind::RouterBatch => "router_batch",
            TraceKind::NetBatch => "net_batch",
        }
    }

    /// Parses a wire name back to the kind.
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The kind's stable position in [`ALL`](Self::ALL) — the compact
    /// integer form used by the telemetry wire codec's per-kind
    /// summaries.
    pub fn index(self) -> u8 {
        TraceKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL") as u8
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(i as usize).copied()
    }

    /// True for kinds recorded as wall-clock spans (`dur_ns` meaningful);
    /// the rest are instants.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            TraceKind::MemoryJoin
                | TraceKind::DiskJoin
                | TraceKind::Relocation
                | TraceKind::Purge
                | TraceKind::IndexBuild
                | TraceKind::Propagation
                | TraceKind::NetEncode
                | TraceKind::NetDecode
                | TraceKind::NetStall
                | TraceKind::RouterBatch
        )
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event. Fixed-size, `Copy`, 64 bytes: the ring-buffer
/// sink preallocates its full capacity and never allocates per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// The logical thread it happened on.
    pub lane: Lane,
    /// Per-lane sequence number (assigned by the sink).
    pub seq: u64,
    /// Virtual time of the event in µs.
    pub vt_us: u64,
    /// Wall-clock time in ns since the process trace epoch
    /// ([`crate::wall_epoch`]). For spans, the span start.
    pub wall_ns: u64,
    /// Span duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub b: u64,
}

impl TraceEvent {
    /// An instant event (no duration) at the given times.
    pub fn instant(
        kind: TraceKind,
        lane: Lane,
        vt_us: u64,
        wall_ns: u64,
        a: u64,
        b: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            lane,
            seq: 0,
            vt_us,
            wall_ns,
            dur_ns: 0,
            a,
            b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TraceKind::from_name("nonsense"), None);
    }

    #[test]
    fn indices_round_trip() {
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index() as usize, i);
            assert_eq!(TraceKind::from_index(i as u8), Some(kind));
        }
        assert_eq!(TraceKind::from_index(TraceKind::ALL.len() as u8), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = TraceKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceKind::ALL.len());
    }

    #[test]
    fn lane_names() {
        assert_eq!(lane_name(0), "shard-0");
        assert_eq!(lane_name(7), "shard-7");
        assert_eq!(lane_name(LANE_ROUTER), "router");
        assert_eq!(lane_name(LANE_DRIVER), "driver");
        assert_eq!(lane_name(LANE_NET_INGEST), "net-ingest");
        assert_eq!(lane_name(LANE_NET_SINK), "net-sink");
        assert_eq!(lane_name(LANE_NET_CLIENT), "net-client");
    }

    #[test]
    fn event_is_small_and_copy() {
        // The hot path writes events by value into a preallocated ring;
        // keep them one cache line.
        assert!(std::mem::size_of::<TraceEvent>() <= 64);
        let e = TraceEvent::instant(TraceKind::Purge, 0, 1, 2, 3, 4);
        let f = e; // Copy
        assert_eq!(e, f);
    }
}
