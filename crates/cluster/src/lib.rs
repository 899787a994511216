//! # punct-cluster
//!
//! Distributed cluster execution for [PJoin](pjoin): the punctuation-
//! exploiting stream join of *Joining Punctuated Streams* (EDBT 2004),
//! scaled across **processes**.
//!
//! ## Architecture
//!
//! ```text
//!                         control plane (Frames over TCP)
//!            ┌───────────────────┬─────────────────────────┐
//!            ▼                   ▼                         ▼
//!      ┌───────────┐      ┌───────────┐             ┌───────────┐
//!      │ worker 0  │      │ worker 1  │      …      │ worker N  │
//!      │ one PJoin │      │ one PJoin │             │ one PJoin │
//!      │over owned │      │over owned │             │over owned │
//!      │  shards   │      │  shards   │             │  shards   │
//!      └─▲───────┬─┘      └─▲───────┬─┘             └─▲───────┬─┘
//!  ingest│       │sink      │       │                 │       │
//!        │       ▼          │       ▼                 │       ▼
//!      ┌─┴──────────────────┴─────────────────────────┴─────────┐
//!      │          coordinator: shard map owner + router +       │
//!      │        cross-worker punctuation aligner + merger       │
//!      └──────────────────────────────────────────────────────┬─┘
//!                                                     outputs ▼
//! ```
//!
//! * The **coordinator** ([`Cluster`]) owns the [`ShardMap`] — the
//!   versioned shard→worker assignment. It routes tuples by join hash
//!   (the partition function is shared with the in-process executor:
//!   [`punct_types::partition`]), multicasts punctuations to the workers
//!   owning the shards they can close, and merges worker sinks into one
//!   stream that carries each punctuation **exactly once**; its aligner
//!   is the cluster's only one.
//! * Each **worker** ([`run_worker`]) hosts one single-threaded
//!   [`PJoin`](pjoin::PJoin) over every global shard it owns — the join
//!   propagates each punctuation once, so the worker aligns nothing —
//!   behind the fault-tolerant `punct-net` transport (sequence-numbered
//!   ingest with credit backpressure and resume, sink with replay).
//! * **Elastic repartitioning** ([`Cluster::repartition`]) changes the
//!   global shard count mid-stream. The barrier is an in-band
//!   Empty-pattern punctuation — ordered, exactly-once, even through a
//!   lossy link — so the epoch switch needs no data-plane quiescing
//!   protocol beyond the streams' own ordering. Join state moves as
//!   `(arrival_us, tuple)` records and is re-imported without probing;
//!   punctuations ingested but not yet fully propagated are re-injected
//!   through the new topology. The output multiset (tuples *and*
//!   punctuations) is identical to a single-threaded PJoin's.
//!
//! [`ShardMap`]: punct_types::ShardMap
//!
//! ## Quick start
//!
//! ```no_run
//! use punct_cluster::{Cluster, ClusterOptions, JoinSpec, WorkerOptions};
//! use punct_types::{Punctuation, Tuple};
//! use stream_sim::Side;
//!
//! let mut cluster = Cluster::bind(ClusterOptions::new(JoinSpec::new(2, 2), 2, 4)).unwrap();
//! let ctrl = cluster.ctrl_addr();
//! // Workers usually run as separate processes (`punct-worker`); threads
//! // work too since workers are self-contained.
//! let workers: Vec<_> = (0..2)
//!     .map(|i| {
//!         std::thread::spawn(move || {
//!             punct_cluster::run_worker(WorkerOptions::new(i, ctrl)).unwrap()
//!         })
//!     })
//!     .collect();
//! cluster.accept_workers().unwrap();
//! for k in 0..8i64 {
//!     cluster.push_tuple(Side::Left, k as u64, Tuple::of((k, 10 * k))).unwrap();
//!     cluster.push_tuple(Side::Right, k as u64, Tuple::of((k, -k))).unwrap();
//! }
//! cluster.repartition(8).unwrap(); // mid-stream resize: 4 → 8 shards
//! cluster.push_punct(Side::Left, 9, Punctuation::close_value(2, 0, 3i64)).unwrap();
//! let report = cluster.finish().unwrap();
//! assert_eq!(report.outputs.iter().filter(|e| e.item.is_tuple()).count(), 8);
//! for w in workers {
//!     w.join().unwrap();
//! }
//! ```

pub mod coordinator;
pub mod error;
pub mod protocol;
pub mod telemetry;
pub mod worker;

pub use coordinator::{
    Cluster, ClusterOptions, ClusterReport, DurabilityOptions, MigrationStats, RespawnFn,
};
pub use error::ClusterError;
pub use protocol::{
    barrier_punct, decode_config, encode_config, is_barrier, sink_marker, CtrlConn,
    HeartbeatSettings, JoinSpec, TelemetrySettings,
};
pub use telemetry::{
    check_exactly_once, validate_cluster_jsonl, ClusterTelemetry, JsonlSummary, PunctSpan,
    WorkerSpan,
};
pub use worker::{run_worker, WorkerOptions, WorkerReport};
