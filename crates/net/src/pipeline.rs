//! Glue from the ingest channel through the sharded executor to the
//! sink server: the process-side half of a networked join deployment.

use std::time::Duration;

use crossbeam::channel::RecvTimeoutError;
use punct_exec::{ExecConfig, ExecStats, ShardedPJoin};
use punct_types::{StreamElement, Timestamped};

use crate::server::{IngestMsg, IngestReceiver, IngestServer};
use crate::sink::SinkServer;

/// Accounting for one networked join run.
#[derive(Debug)]
pub struct NetJoinReport {
    /// The joined output stream (tuples + punctuations, emission order).
    /// Also published to the sink, when one was attached.
    pub outputs: Vec<Timestamped<StreamElement>>,
    /// Elements fed into the executor.
    pub fed: u64,
    /// The executor's final statistics.
    pub stats: ExecStats,
}

/// Runs a sharded join fed from an [`IngestServer`]'s channel until
/// every source stream delivered its `Fin`, streaming outputs into
/// `sink` (when given) as they emerge. Returns the complete output and
/// the executor's accounting; the sink (if any) is closed on return.
///
/// The feed loop drains outputs while feeding, so the executor's
/// bounded channels exert backpressure on the sockets (via the ingest
/// channel) instead of deadlocking.
pub fn run_networked_join(
    config: ExecConfig,
    server: &IngestServer,
    rx: &IngestReceiver,
    sink: Option<&SinkServer>,
) -> NetJoinReport {
    let exec = ShardedPJoin::spawn(config);
    let mut outputs: Vec<Timestamped<StreamElement>> = Vec::new();
    let mut fed: u64 = 0;
    let publish = |batch: Vec<Timestamped<StreamElement>>,
                       outputs: &mut Vec<Timestamped<StreamElement>>| {
        if batch.is_empty() {
            return;
        }
        if let Some(s) = sink {
            s.publish_batch(&batch);
        }
        outputs.extend(batch);
    };
    // Feeds one ingest message: a decoded `DataBatch` frame's vector is
    // handed to the router whole — the elements move channel → router
    // staging with no per-element copy or re-tagging.
    let feed = |IngestMsg::Batch(side, batch): IngestMsg, fed: &mut u64| {
        *fed += batch.len() as u64;
        exec.push_side_batch(side, batch);
    };
    loop {
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(msg) => {
                // Opportunistically drain whatever else is queued so the
                // channel frees up in bursts (one router wakeup per
                // message burst, not per element).
                feed(msg, &mut fed);
                while let Ok(next) = rx.try_recv() {
                    feed(next, &mut fed);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // A handler forwards a stream's elements before marking
                // it finished, so once all streams are finished one
                // final drain below empties the channel for good.
                if server.all_finished() {
                    while let Ok(next) = rx.try_recv() {
                        feed(next, &mut fed);
                    }
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        publish(exec.poll_outputs(), &mut outputs);
    }
    publish(exec.poll_outputs(), &mut outputs);
    let (rest, stats) = exec.finish();
    publish(rest, &mut outputs);
    if let Some(s) = sink {
        s.close();
    }
    NetJoinReport { outputs, fed, stats }
}
