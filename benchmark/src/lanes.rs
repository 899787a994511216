//! Standalone layer lanes of the traced run: `types`, `storage`, `net`
//! and `durable`, each driven through its public functions only and
//! sized from the workload's own elements or resident set.

use std::path::PathBuf;
use std::time::Instant;

use pjoin::PRecord;
use punct_durable::{CheckpointStore, ShardRecords, Snapshot, SnapshotMeta};
use punct_exec::{shard_of_hash, ExecConfig};
use punct_net::{
    collect_all, run_networked_join, spawn_source, BackoffPolicy, ClientOptions, IngestOptions,
    IngestServer, SinkOptions, SinkServer,
};
use punct_types::wire::{get_timestamped, put_timestamped, WireReader};
use punct_types::{Schema, Tuple, Value, ValueType};
use spillstore::{PartitionedStore, SimDisk, StoreConfig};
use stream_sim::Side;

use crate::drive_exec::{self, SHARDS};
use crate::measure::{median, Spans};
use crate::oracle::Resident;
use crate::report::Report;
use crate::workload::{Input, Workload};

/// Elements the `types` lane encodes and decodes, at most.
const TYPES_ELEMS: usize = 100_000;
/// Probes the `storage` lane times, at most.
const STORAGE_PROBES: usize = 50_000;
/// Repetitions of the `net` lane and of its in-process reference.
const NET_REPS: usize = 3;

fn key_hash(tuple: &Tuple) -> Option<u64> {
    tuple.get(0).and_then(Value::join_hash)
}

/// `wire::put_timestamped` / `get_timestamped` over the workload's own
/// elements: what the cluster pays per element on every hop.
pub fn types(stream: &[Input], spans: &mut Spans, report: &mut Report) {
    let elems = &stream[..stream.len().min(TYPES_ELEMS)];
    let mut buf = Vec::with_capacity(elems.len() * 48);
    spans.time("types.encode", || {
        for (_, e) in elems {
            put_timestamped(&mut buf, e);
        }
    });
    let decoded = spans.time("types.decode", || {
        let mut reader = WireReader::new(&buf);
        let mut n = 0usize;
        while reader.remaining() > 0 {
            std::hint::black_box(get_timestamped(&mut reader).expect("own encoding decodes"));
            n += 1;
        }
        n
    });
    assert_eq!(decoded, elems.len(), "wire round trip lost elements");
    let per_elem = |name| spans.seconds(name) * 1e9 / elems.len() as f64;
    report.set("types.encode_ns_per_elem", per_elem("types.encode"));
    report.set("types.decode_ns_per_elem", per_elem("types.decode"));
    report.set(
        "types.wire_bytes_per_elem",
        buf.len() as f64 / elems.len() as f64,
    );
}

/// One shard's store of the fuller side, at the default bucket count,
/// filled with that shard's share of the resident set; probed with the
/// other side's tuples that follow the snapshot point in the stream.
pub fn storage(
    resident: &[Resident],
    stream_after_snapshot: &[Input],
    spans: &mut Spans,
    report: &mut Report,
) {
    let lefts = resident.iter().filter(|r| r.side == Side::Left).count();
    let stored_side = if lefts * 2 >= resident.len() {
        Side::Left
    } else {
        Side::Right
    };
    let on_shard = |t: &Tuple| shard_of_hash(key_hash(t), SHARDS) == 0;
    let records: Vec<&Tuple> = resident
        .iter()
        .filter(|r| r.side == stored_side && on_shard(&r.tuple))
        .map(|r| &r.tuple)
        .collect();
    let probes: Vec<Option<u64>> = stream_after_snapshot
        .iter()
        .filter(|(side, _)| *side != stored_side)
        .filter_map(|(_, e)| e.item.as_tuple())
        .filter(|t| on_shard(t))
        .take(STORAGE_PROBES)
        .map(key_hash)
        .collect();
    let mut keys: Vec<Value> = records.iter().filter_map(|t| t.get(0).cloned()).collect();
    keys.sort();
    keys.dedup();

    let config = StoreConfig::default();
    let buckets = config.buckets;
    let mut store: PartitionedStore<PRecord> =
        PartitionedStore::new(config, Box::new(SimDisk::new()));
    let inserts: Vec<(PRecord, Option<u64>)> = records
        .iter()
        .enumerate()
        .map(|(i, t)| (PRecord::arriving((*t).clone(), i as u64), key_hash(t)))
        .collect();
    spans.time("storage.insert", || {
        for (record, hash) in inserts {
            store.insert_hashed(record, hash);
        }
    });
    let hits = spans.time("storage.probe", || {
        let mut hits = 0usize;
        for &hash in &probes {
            hits += store
                .probe_bucket_hashed(store.bucket_of_hash(hash), hash)
                .count();
        }
        hits
    });
    std::hint::black_box(hits);
    let extracted = spans.time("storage.extract", || {
        let mut n = 0usize;
        for key in &keys {
            n += store.extract_memory_keyed(key, |_| true).len();
        }
        n
    });
    assert_eq!(
        extracted,
        records.len(),
        "extract by key must empty the store"
    );
    let per = |name, n: usize| spans.seconds(name) * 1e9 / n.max(1) as f64;
    report.set("storage.insert_ns", per("storage.insert", records.len()));
    report.set("storage.probe_ns", per("storage.probe", probes.len()));
    report.set("storage.extract_ns", per("storage.extract", keys.len()));
    report.set(
        "storage.resident_per_bucket",
        records.len() as f64 / buckets as f64,
    );
}

fn int_schema(width: usize) -> Schema {
    let names: Vec<String> = (0..width).map(|i| format!("a{i}")).collect();
    let fields: Vec<(&str, ValueType)> =
        names.iter().map(|n| (n.as_str(), ValueType::Int)).collect();
    Schema::of(&fields)
}

/// The stream prefix through two `spawn_source` clients, `IngestServer`,
/// `run_networked_join` and a `SinkServer` subscriber on loopback, next
/// to the same prefix through the executor in process.
pub fn net(workload: &Workload, prefix: &[Input], report: &mut Report) {
    let config = || ExecConfig::new(SHARDS, workload.join_config());
    let (wa, wb) = workload.widths();
    let side_elems = |side: Side| -> Vec<_> {
        prefix
            .iter()
            .filter(|(s, _)| *s == side)
            .map(|(_, e)| e.clone())
            .collect()
    };
    let (mut net_rates, mut exec_rates) = (Vec::new(), Vec::new());
    let (mut wire_bytes, mut credit_stalls, mut ingest_stalls) = (0u64, 0u64, 0u64);
    let mut off = Spans::new(false);
    for _ in 0..NET_REPS {
        let rep = drive_exec::saturated(config(), prefix, &mut off, None).rep;
        exec_rates.push(prefix.len() as f64 / rep.seconds);

        let (left, right) = (side_elems(Side::Left), side_elems(Side::Right));
        let (server, rx) = IngestServer::bind(&[Side::Left, Side::Right], IngestOptions::default())
            .expect("bind ingest server");
        let sink = SinkServer::bind(SinkOptions::default()).expect("bind sink server");
        let sink_addr = sink.addr();
        let options = |seed| ClientOptions {
            policy: BackoffPolicy::fast(),
            seed,
            ..Default::default()
        };
        let start = Instant::now();
        let collector = std::thread::spawn(move || {
            collect_all(sink_addr, BackoffPolicy::fast(), 3, Default::default())
        });
        let sources = [
            spawn_source(
                server.addr(),
                0,
                Side::Left,
                int_schema(wa),
                left,
                options(1),
            ),
            spawn_source(
                server.addr(),
                1,
                Side::Right,
                int_schema(wb),
                right,
                options(2),
            ),
        ];
        let joined = run_networked_join(config(), &server, &rx, Some(&sink));
        let (collected, _) = collector
            .join()
            .expect("collector thread")
            .expect("collect sink");
        net_rates.push(prefix.len() as f64 / start.elapsed().as_secs_f64());
        assert_eq!(joined.fed as usize, prefix.len(), "net lane lost input");
        assert_eq!(
            collected.len(),
            joined.outputs.len(),
            "net lane lost output"
        );
        assert_eq!(
            (rep.counts.tuples + rep.counts.puncts) as usize,
            collected.len(),
            "net lane output differs from the in-process run"
        );
        for source in sources {
            let sent = source
                .join()
                .expect("source thread")
                .expect("source client");
            wire_bytes += sent.bytes_sent;
            credit_stalls += sent.credit_stalls;
        }
        ingest_stalls += server.stats().stalls;
    }
    let elems = (prefix.len() * NET_REPS) as f64;
    let net_rate = median(&mut net_rates);
    report.set("net.elems_per_s", net_rate);
    report.set("net.tax_vs_exec", median(&mut exec_rates) / net_rate);
    report.set("net.wire_bytes_per_elem", wire_bytes as f64 / elems);
    report.set(
        "net.credit_stalls_per_kelem",
        credit_stalls as f64 * 1e3 / elems,
    );
    report.set(
        "net.ingest_stalls_per_kelem",
        ingest_stalls as f64 * 1e3 / elems,
    );
}

/// A directory under `benchmark/results/` that is removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results")).join(name);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/results");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `results/` itself only if something else lives there.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The resident set through `Snapshot::of_records`, a full
/// `CheckpointStore::commit`, a second commit of unchanged state (all
/// sections become references) and `latest_complete`.
pub fn durable(resident: &[Resident], seed: u64, spans: &mut Spans, report: &mut Report) {
    let mut sections: Vec<ShardRecords> = (0..SHARDS as u32)
        .flat_map(|shard| {
            [0u8, 1].map(|side| ShardRecords {
                shard,
                side,
                records: Vec::new(),
            })
        })
        .collect();
    for r in resident {
        let shard = shard_of_hash(key_hash(&r.tuple), SHARDS);
        let side = (r.side == Side::Right) as usize;
        sections[shard * 2 + side]
            .records
            .push((r.arrival_us, r.tuple.clone()));
    }
    let meta = SnapshotMeta {
        config_blob: Vec::new(),
        workers: 1,
        shards: SHARDS as u32,
        input_cursor: 0,
        pushed: 0,
    };
    let dir = ScratchDir::new(&format!("ckpt-{}-{seed}", std::process::id()));
    let mut store = CheckpointStore::open(&dir.0, 2).expect("open checkpoint store");
    let first = Snapshot::of_records(1, meta.clone(), sections.clone());
    spans
        .time("durable.commit", || store.commit(&first))
        .expect("commit");
    let epoch_bytes = store.stats().bytes_written;
    let second = Snapshot::of_records(2, meta, sections);
    spans
        .time("durable.delta_commit", || store.commit(&second))
        .expect("delta commit");
    let loaded = spans
        .time("durable.load", || store.latest_complete())
        .expect("load")
        .expect("an epoch was committed");
    assert_eq!(
        loaded.record_count(),
        resident.len(),
        "checkpoint lost records"
    );
    report.set("durable.commit_ms", spans.seconds("durable.commit") * 1e3);
    report.set(
        "durable.delta_commit_ms",
        spans.seconds("durable.delta_commit") * 1e3,
    );
    report.set("durable.load_ms", spans.seconds("durable.load") * 1e3);
    report.set("durable.epoch_bytes", epoch_bytes as f64);
}
