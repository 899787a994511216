//! The crash-recovery equivalence gate: a multi-process cluster with
//! durable checkpointing has one worker SIGKILLed mid-stream; the
//! coordinator detects the death, respawns a replacement process, rolls
//! every worker back to the last complete epoch on disk, replays its
//! input log — and the run's joined-tuple multiset and propagated-
//! punctuation multiset are **exactly** those of one uninterrupted
//! single-threaded PJoin. On clean links and through seeded fault
//! proxies on every worker's ingest path, and with the kill landing just
//! before a checkpoint, so the crash aborts the cut and the survivor's
//! sink and control link hold that checkpoint's marker, `BarrierReached`
//! and exported state ahead of the rollback's. Three more schedules: the
//! kill lands after the last push and poll, so only `finish` can notice
//! it; a reserved punctuation is refused mid-stream before the kill, so
//! the replay must not meet it again; and worker 1 is SIGSTOPped instead,
//! its sockets left open, so only a missed heartbeat can show it is
//! gone. The replacement's clock is probed, as at assembly. The run's
//! own telemetry artifact must pass the exactly-once audit too: a
//! punctuation keeps its sequence number through the rollback, so the
//! replay re-routes the spans the crash left open instead of opening new
//! ones.
//!
//! A last test pins the inverse invariant: with durability disabled
//! the coordinator ships zero checkpoint frames and writes nothing to
//! disk — the cluster behaves byte-for-byte like it did before the
//! durability plane existed.

use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pjoin::PJoin;
use punct_cluster::{
    barrier_punct, check_exactly_once, run_worker, validate_cluster_jsonl, Cluster, ClusterError,
    ClusterOptions, DurabilityOptions, JoinSpec, WorkerOptions,
};
use punct_net::{BackoffPolicy, ClientOptions, FaultConfig};
use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::{BinaryStreamOp, OpOutput, Side};

fn spec() -> JoinSpec {
    JoinSpec::new(2, 2)
}

/// The same grammatical punctuated workload the resize gate uses:
/// per-key tuples on both sides trailed by closing punctuations
/// (constants and `In` sets), with stream-end wildcards.
fn workload(keys: i64) -> Vec<(Side, u64, StreamElement)> {
    let mut els: Vec<(Side, u64, StreamElement)> = Vec::new();
    let mut ts = 0u64;
    let mut push = |els: &mut Vec<(Side, u64, StreamElement)>, side, el| {
        els.push((side, ts, el));
        ts += 1;
    };
    for k in 0..keys {
        push(&mut els, Side::Left, Tuple::of((k, 10 * k)).into());
        push(&mut els, Side::Right, Tuple::of((k, -k)).into());
        if k % 3 == 0 {
            push(&mut els, Side::Left, Tuple::of((k, 10 * k + 1)).into());
        }
        if k % 4 == 1 {
            push(&mut els, Side::Right, Tuple::of((k, -k - 1000)).into());
        }
        if k >= 4 {
            let c = k - 4;
            match c % 4 {
                0 | 1 => {
                    push(&mut els, Side::Left, Punctuation::close_value(2, 0, c).into());
                    push(&mut els, Side::Right, Punctuation::close_value(2, 0, c).into());
                }
                3 => {
                    let pair = Pattern::In(vec![Value::Int(c - 1), Value::Int(c)]);
                    let p = Punctuation::on_attr(2, 0, pair);
                    push(&mut els, Side::Left, p.clone().into());
                    push(&mut els, Side::Right, p.into());
                }
                _ => {}
            }
        }
    }
    let wild = Punctuation::on_attr(2, 0, Pattern::Wildcard);
    push(&mut els, Side::Left, wild.clone().into());
    push(&mut els, Side::Right, wild.into());
    els
}

/// Sorted-debug-string multisets of (joined tuples, punctuations).
fn multisets(outputs: impl IntoIterator<Item = StreamElement>) -> (Vec<String>, Vec<String>) {
    let mut tuples = Vec::new();
    let mut puncts = Vec::new();
    for el in outputs {
        match &el {
            StreamElement::Tuple(_) => tuples.push(format!("{el:?}")),
            StreamElement::Punctuation(_) => puncts.push(format!("{el:?}")),
        }
    }
    tuples.sort();
    puncts.sort();
    (tuples, puncts)
}

/// The single-threaded reference: one PJoin, same elements, no crash.
fn reference(work: &[(Side, u64, StreamElement)]) -> (Vec<String>, Vec<String>) {
    let mut join = PJoin::new(spec().pjoin_config());
    let mut out = OpOutput::new();
    let mut all: Vec<StreamElement> = Vec::new();
    let mut last = 0u64;
    for (side, ts, el) in work {
        join.on_element(*side, el.clone(), Timestamp(*ts), &mut out);
        all.extend(out.drain());
        last = *ts;
    }
    while join.on_end(Timestamp(last + 1), &mut out) {}
    all.extend(out.drain());
    multisets(all)
}

fn spawn_worker(ctrl: std::net::SocketAddr, idx: u32) -> Child {
    Command::new(env!("CARGO_BIN_EXE_punct-worker"))
        .arg(ctrl.to_string())
        .arg(idx.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn punct-worker")
}

/// Worker processes, killed and reaped on drop, so a gate that fails
/// leaves no stopped worker behind.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn wait_worker(mut child: Child, who: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().expect("wait punct-worker") {
            Some(status) => {
                assert!(status.success(), "{who} exited with {status}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("{who} did not exit in time");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A unique, empty checkpoint directory for one test.
fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pjoin_recovery_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// How worker 1 is lost, and where in the workload, as `(numerator,
/// denominator)` of its length.
#[derive(Debug, Clone, Copy)]
enum Loss {
    /// SIGKILL: its sockets close, so the next call on its links fails.
    Kill(usize, usize),
    /// SIGSTOP: its sockets stay open and it falls silent. The gate then
    /// polls, pushing nothing, for twice the heartbeat deadline, so only
    /// a missed heartbeat can detect the hang.
    Hang(usize, usize),
}

/// Mid-stream, between the two checkpoints.
const KILL_MID_STREAM: Loss = Loss::Kill(11, 20);

/// Immediately before the second checkpoint (cut at four fifths).
const KILL_BEFORE_SECOND_CHECKPOINT: Loss = Loss::Kill(4, 5);

/// After the last push and the last poll: only `finish` can notice.
const KILL_AFTER_LAST_POLL: Loss = Loss::Kill(1, 1);

/// Mid-stream, between the two checkpoints, hung instead of killed.
const HANG_MID_STREAM: Loss = Loss::Hang(11, 20);

/// The heartbeat deadline of a recoverable cluster: a beacon every
/// 100 ms, ten missed (`HEARTBEAT` in `coordinator.rs`).
const HEARTBEAT_DEADLINE: Duration = Duration::from_secs(1);

/// Loses worker 1 (`victim`) as `loss` says, polling `cluster` into
/// `outputs` through a hang.
fn lose_worker_1(
    loss: Loss,
    victim: &mut Child,
    cluster: &mut Cluster,
    outputs: &mut Vec<Timestamped<StreamElement>>,
) {
    match loss {
        Loss::Kill(..) => {
            victim.kill().expect("SIGKILL worker 1");
            victim.wait().expect("reap killed worker");
        }
        Loss::Hang(..) => {
            let pid = victim.id().to_string();
            let stopped = Command::new("kill").args(["-STOP", &pid]).status().expect("run kill");
            assert!(stopped.success(), "SIGSTOP worker 1: {stopped}");
            let until = Instant::now() + 2 * HEARTBEAT_DEADLINE;
            while Instant::now() < until {
                outputs.extend(cluster.poll_outputs().expect("poll through the hang"));
            }
        }
    }
}

/// Drives the crash gate: a 2-worker process cluster with durability on,
/// checkpoints cut at one third and four fifths, worker 1 lost as `loss`
/// says, and a respawned replacement recovered from disk. With
/// `refuse_at_half`, a reserved barrier punctuation is pushed at half the
/// stream and must be refused. Compares multisets against the
/// uninterrupted single-threaded reference.
fn run_crash_gate(tag: &str, fault: Option<FaultConfig>, loss: Loss, refuse_at_half: bool) {
    let work = workload(60);
    let (want_tuples, want_puncts) = reference(&work);
    let dir = ckpt_dir(tag);

    let mut opts = ClusterOptions::new(spec(), 2, 2);
    opts.client = ClientOptions {
        policy: BackoffPolicy::fast(),
        seed: 0xC1F0,
        ..ClientOptions::default()
    };
    opts.fault = fault;
    opts.durability = DurabilityOptions::at(&dir);
    let respawned = Arc::new(Mutex::new(Children(Vec::new())));
    let stash = Arc::clone(&respawned);
    opts.durability.respawn = Some(Arc::new(move |idx, ctrl| {
        stash.lock().unwrap().0.push(spawn_worker(ctrl, idx as u32));
        Ok(())
    }));
    let mut cluster = Cluster::bind(opts).expect("bind coordinator");
    let ctrl = cluster.ctrl_addr();
    let mut children = Children((0..2).map(|i| spawn_worker(ctrl, i)).collect());
    cluster.accept_workers().expect("assemble cluster");

    let checkpoint_at = [work.len() / 3, 4 * work.len() / 5];
    let (Loss::Kill(n, d) | Loss::Hang(n, d)) = loss;
    let lose_at = n * work.len() / d;
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    for (i, (side, ts, el)) in work.iter().enumerate() {
        if i == lose_at {
            lose_worker_1(loss, &mut children.0[1], &mut cluster, &mut outputs);
        }
        if checkpoint_at.contains(&i) {
            cluster.checkpoint().expect("checkpoint");
        }
        if refuse_at_half && i == work.len() / 2 {
            let reserved = barrier_punct(&spec(), Side::Left).into();
            let refused = cluster.push(Side::Left, Timestamped::new(Timestamp(*ts), reserved));
            assert!(matches!(refused, Err(ClusterError::Protocol(_))), "{refused:?}");
        }
        cluster
            .push(*side, Timestamped::new(Timestamp(*ts), el.clone()))
            .expect("push");
        if i % 32 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll"));
        }
    }
    outputs.extend(cluster.poll_outputs().expect("poll"));
    if lose_at == work.len() {
        lose_worker_1(loss, &mut children.0[1], &mut cluster, &mut outputs);
    }
    let report = cluster.finish().expect("finish cluster");
    if let Loss::Hang(..) = loss {
        children.0[1].kill().expect("SIGKILL the stopped worker 1");
        children.0[1].wait().expect("reap the stopped worker 1");
    }
    outputs.extend(report.outputs);
    let puncts_pushed =
        work.iter().filter(|(_, _, el)| matches!(el, StreamElement::Punctuation(_))).count();
    let summary = validate_cluster_jsonl(&report.telemetry.to_jsonl()).expect("valid telemetry");
    check_exactly_once(&summary, puncts_pushed as u64).expect("telemetry exactly-once audit");

    assert_eq!(report.checkpoints, 2, "both explicit cuts must have committed");
    assert_eq!(report.recoveries, 1, "exactly one crash recovery must have run");
    assert!(report.telemetry.clock(1).samples() > 0, "the replacement's clock was probed");
    let replacements = std::mem::take(&mut respawned.lock().unwrap().0);
    assert_eq!(replacements.len(), 1, "the respawn hook must have run once");
    wait_worker(children.0.remove(0), "surviving worker 0");
    for (i, child) in replacements.into_iter().enumerate() {
        wait_worker(child, &format!("replacement worker {i}"));
    }

    let (got_tuples, got_puncts) = multisets(outputs.into_iter().map(|e| e.item));
    assert_eq!(
        got_tuples.len(),
        want_tuples.len(),
        "joined tuple count diverged from the uninterrupted reference"
    );
    assert_eq!(got_tuples, want_tuples, "joined tuple multiset diverged");
    assert_eq!(got_puncts, want_puncts, "punctuation multiset diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_recovery_preserves_join_and_punctuation_multisets() {
    run_crash_gate("clean", None, KILL_MID_STREAM, false);
}

#[test]
fn sigkill_recovery_preserves_multisets_through_faulty_links() {
    // Every worker's ingest path drops frames and forces disconnects
    // (independently seeded per link) *on top of* the SIGKILL; the
    // rollback barrier, the re-installed state, and the replayed data
    // must still arrive exactly once.
    let fault = Some(FaultConfig::lossy(7, 10, 3, 60, 0xFA11));
    run_crash_gate("faulty", fault, KILL_MID_STREAM, false);
}

#[test]
fn sigkill_that_aborts_a_checkpoint_preserves_multisets() {
    // The second checkpoint finds worker 1 dead after arming worker 0:
    // the cut aborts, worker 0 publishes that checkpoint's marker and
    // exports ahead of the rollback's, and the retried cut commits on the
    // recovered cluster.
    run_crash_gate("abort_checkpoint", None, KILL_BEFORE_SECOND_CHECKPOINT, false);
}

#[test]
fn sigkill_after_the_last_poll_is_recovered_by_finish() {
    // Every push and poll has returned before worker 1 dies: `finish`
    // must notice the loss before its first `Fin`, roll back and replay.
    run_crash_gate("after_last_poll", None, KILL_AFTER_LAST_POLL, false);
}

#[test]
fn a_refused_reserved_punctuation_is_not_replayed_by_recovery() {
    // The refusal happens before the input log sees the punctuation, so
    // the replay after the kill routes only what was accepted.
    run_crash_gate("refused_reserved", None, KILL_MID_STREAM, true);
}

#[test]
fn a_hung_worker_is_recovered_by_its_missed_heartbeat() {
    // SIGSTOP leaves worker 1's sockets open: no link call fails, so only
    // the heartbeat deadline can declare it lost.
    run_crash_gate("hung", None, HANG_MID_STREAM, false);
}

#[test]
fn disabled_durability_ships_no_checkpoint_frames_and_no_disk_writes() {
    // Thread workers so their `WorkerReport`s are observable: with
    // durability off, no worker may see a single state-export frame and
    // the coordinator must write nothing anywhere.
    let work = workload(40);
    let (want_tuples, want_puncts) = reference(&work);

    let opts = ClusterOptions::new(spec(), 2, 2);
    assert!(!opts.durability.enabled(), "durability must default to off");
    assert!(opts.durability.dir.is_none(), "no directory means no disk writes");
    let mut cluster = Cluster::bind(opts).expect("bind coordinator");
    let ctrl = cluster.ctrl_addr();
    let handles: Vec<_> = (0..2u32)
        .map(|i| std::thread::spawn(move || run_worker(WorkerOptions::new(i, ctrl))))
        .collect();
    cluster.accept_workers().expect("assemble cluster");
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    for (i, (side, ts, el)) in work.iter().enumerate() {
        cluster
            .push(*side, Timestamped::new(Timestamp(*ts), el.clone()))
            .expect("push");
        if i % 32 == 0 {
            outputs.extend(cluster.poll_outputs().expect("poll"));
        }
    }
    let report = cluster.finish().expect("finish cluster");
    outputs.extend(report.outputs);
    assert_eq!(report.checkpoints, 0, "no epochs may be cut with durability off");
    assert_eq!(report.recoveries, 0);
    for h in handles {
        let wr = h.join().expect("worker thread").expect("worker");
        // Zero checkpoint frames reached the workers: nothing armed a
        // cut, nothing asked for a state export.
        assert_eq!(
            wr.records_exported, 0,
            "worker {} exported state without durability or a resize",
            wr.worker
        );
        assert_eq!(wr.migrations, 0);
    }
    let (got_tuples, got_puncts) = multisets(outputs.into_iter().map(|e| e.item));
    assert_eq!(got_tuples, want_tuples, "joined tuple multiset diverged");
    assert_eq!(got_puncts, want_puncts, "punctuation multiset diverged");
}
