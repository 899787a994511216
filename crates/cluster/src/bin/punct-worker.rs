//! Cluster worker process: hosts one PJoin over the shards the
//! coordinator's shard map assigns to it, through any number of
//! repartitions.
//!
//! ```text
//! punct-worker <coordinator-addr> <worker-index>
//! ```
//!
//! Exits 0 once both input streams finished and every output was
//! published; exits 1 with a message on any protocol or transport error.

use std::process::ExitCode;

use punct_cluster::{run_worker, WorkerOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(addr), Some(idx)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: punct-worker <coordinator-addr> <worker-index>");
        return ExitCode::FAILURE;
    };
    let Ok(coordinator) = addr.parse() else {
        eprintln!("punct-worker: bad coordinator address {addr}");
        return ExitCode::FAILURE;
    };
    let Ok(worker) = idx.parse() else {
        eprintln!("punct-worker: bad worker index {idx}");
        return ExitCode::FAILURE;
    };
    match run_worker(WorkerOptions::new(worker, coordinator)) {
        Ok(report) => {
            println!(
                "worker {} done: {} elements in, {} out, {} records exported, \
                 {} imported, {} migrations, final epoch {}",
                report.worker,
                report.elements,
                report.outputs,
                report.records_exported,
                report.records_imported,
                report.migrations,
                report.final_epoch
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("punct-worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}
