//! Wall-clock scaling of the zero-copy hot path across shard counts.
//!
//! Where `shard_scaling` measures *modeled* (virtual-time) speedup,
//! this bench measures real elapsed time: the full in-process pipeline
//! (caller → router → shards → merger → caller) fed the same
//! timestamp-interleaved workload as `batch_scaling`'s in-process lane
//! at batch 256, swept over shard counts {1, 2, 4, available
//! parallelism}. Shards = 4 lines up exactly with the committed
//! `BENCH_batch.json` in-process row at batch 256, so the summary can
//! report the hot-path rework (slab tuple storage, moved — not cloned —
//! batches, recycled buffers, atomic metrics, punctuation-granular
//! locking) as a before/after at equal shards and batch.
//!
//! Alongside elements/s, every row records the two quantities the
//! rework drives toward zero on the tuple path, measured for the whole
//! run by a counting allocator and the executor's aligner-acquisition
//! counter:
//!
//! * **allocs/element** — heap allocations per input element, split
//!   into an *output path* (one allocation per emitted result tuple —
//!   the single-allocation concat, ~9.5 per input here and
//!   irreducible) and a *probe path* (everything else: routing,
//!   staging, probing, state). The probe-path share is the number the
//!   `hotpath_allocs` gate in `punct-exec` holds under 0.25 — splitting
//!   it out keeps the gate visible at every shard count instead of
//!   drowning in the output-tuple floor.
//! * **mutex acquisitions/element** — acquisitions of the shared
//!   aligner mutex, the only lock on the data path, bounded by the
//!   punctuation count (never the tuple count).
//!
//! One further axis rides along since the probe-kernel rework: one
//! recorded **tag-scan kernel sweep** (kernel x occupancy, from
//! `pjoin_bench::kernel_sweep` — shared with the `probe_kernel` bench so
//! this file stays the summary's single writer).
//!
//! Results land in `BENCH_multicore.json`. On a single-core host the
//! summary carries a `cores_warning`: the shard sweep then prices
//! coordination overhead, not speedup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use pjoin::PJoinConfig;
use pjoin_bench::host::{cores_json_fields, warn_if_single_core};
use pjoin_bench::kernel_sweep::{probe_kernel_sweep, sweep_json_rows};
use punct_exec::{ExecConfig, ShardedPJoin, MAX_SHARDS};
use punct_types::{BatchConfig, StreamElement, Timestamped};
use stream_sim::Side;
use streamgen::{generate_pair, interleave_sides, PunctScheme, StreamConfig};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const BATCH: usize = 256;
const TUPLES_PER_SIDE: usize = 3_000;
/// The `BENCH_batch.json` row this bench compares against (in-process
/// lane, batch 256): shard count must match for an apples-to-apples
/// before/after.
const BASELINE_SHARDS: usize = 4;

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Swept shard counts: 1 and 2 for the scaling shape, the baseline's 4,
/// and whatever the machine actually has.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, BASELINE_SHARDS, cores().min(MAX_SHARDS)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Identical workload to `batch_scaling`'s in-process lane, so the
/// shards = 4 row is directly comparable to the committed baseline.
fn feed() -> Vec<(Side, Timestamped<StreamElement>)> {
    let config = StreamConfig {
        tuples: TUPLES_PER_SIDE,
        key_window: 16,
        punct_scheme: PunctScheme::ConstantPerKey,
        punct_mean_tuples: 20.0,
        seed: 17,
        ..StreamConfig::default()
    };
    let (left, right) = generate_pair(&config, 20.0, 20.0);
    interleave_sides(&left.elements, &right.elements)
}

struct RunStats {
    outputs: usize,
    /// Result tuples among `outputs` — each one is exactly one heap
    /// allocation (the single-allocation concat), which is how the
    /// summary splits output-path from probe-path allocations.
    output_tuples: usize,
    /// Heap allocations over the run (push → finish, spawn excluded).
    allocs: u64,
    /// Aligner mutex acquisitions over the whole run.
    acquisitions: u64,
}

fn run_once(shards: usize, feed: &[(Side, Timestamped<StreamElement>)], count: bool) -> RunStats {
    let config = ExecConfig::new(shards, PJoinConfig::new(2, 2))
        .with_batch(BatchConfig::with_elems(BATCH));
    let exec = ShardedPJoin::spawn(config);
    if count {
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
    }
    let mut outputs = 0usize;
    let mut output_tuples = 0usize;
    for chunk in feed.chunks(512) {
        exec.push_batch(chunk.to_vec());
        for e in exec.poll_outputs() {
            outputs += 1;
            output_tuples += e.item.is_tuple() as usize;
        }
    }
    let (rest, stats) = exec.finish();
    if count {
        COUNTING.store(false, Ordering::SeqCst);
    }
    for e in &rest {
        outputs += 1;
        output_tuples += e.item.is_tuple() as usize;
    }
    RunStats {
        outputs,
        output_tuples,
        allocs: ALLOCS.load(Ordering::SeqCst),
        acquisitions: stats.aligner_acquisitions,
    }
}

fn bench_multicore(c: &mut Criterion) {
    let feed = feed();
    let mut g = c.benchmark_group("multicore");
    g.throughput(Throughput::Elements(feed.len() as u64));
    for shards in shard_counts() {
        g.bench_with_input(BenchmarkId::new("wall", shards), &shards, |b, &n| {
            b.iter(|| black_box(run_once(n, &feed, false)).outputs)
        });
    }
    g.finish();
}

/// The committed `BENCH_batch.json` in-process elements/s at batch 256
/// (the PR-5 baseline the acceptance bar compares against), if present.
fn baseline_eps() -> Option<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    let text = std::fs::read_to_string(path).ok()?;
    let row = text
        .lines()
        .find(|l| l.contains("\"lane\": \"in_process\"") && l.contains("\"batch\": 256"))?;
    let key = "\"elements_per_sec\": ";
    let rest = &row[row.find(key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// One measurement row: the shared fields every sweep reports. The
/// alloc split uses the single-allocation-concat invariant: each output
/// tuple costs exactly one allocation, so `allocs - output_tuples` is
/// the probe-path remainder the `hotpath_allocs` gate bounds.
fn row_fields(r: &RunStats, elements: usize, eps: f64) -> String {
    let output_allocs = r.output_tuples as u64;
    let probe_allocs = r.allocs.saturating_sub(output_allocs);
    format!(
        "\"elements\": {}, \"elements_per_sec\": {:.1}, \"allocs_per_element\": {:.3}, \"allocs_per_element_output_path\": {:.3}, \"allocs_per_element_probe_path\": {:.3}, \"mutex_acquisitions_per_element\": {:.4}, \"outputs\": {}",
        elements,
        eps,
        r.allocs as f64 / elements as f64,
        output_allocs as f64 / elements as f64,
        probe_allocs as f64 / elements as f64,
        r.acquisitions as f64 / elements as f64,
        r.outputs,
    )
}

fn write_summary(c: &Criterion) {
    let feed = feed();
    let elements = feed.len();
    let eps = |id: String| {
        c.measurements()
            .iter()
            .find(|m| m.group == "multicore" && m.id == id)
            .and_then(|m| m.per_second())
            .unwrap_or(0.0)
    };

    let baseline = baseline_eps();
    let mut rows = String::new();
    let mut baseline_row = String::new();
    for shards in shard_counts() {
        let r = run_once(shards, &feed, true);
        let e = eps(format!("wall/{shards}"));
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let vs_baseline = match baseline {
            Some(base) if shards == BASELINE_SHARDS && base > 0.0 => {
                let speedup = e / base;
                baseline_row = format!(
                    "shards={shards} batch={BATCH}: before {base:.1} el/s -> after {e:.1} el/s \
                     ({speedup:.2}x)"
                );
                format!("{speedup:.3}")
            }
            _ => "null".into(),
        };
        let _ = write!(
            rows,
            "    {{\"shards\": {}, \"batch\": {}, \"speedup_vs_shard1\": {:.2}, \"speedup_vs_pr5_batch_bench\": {}, {}}}",
            shards,
            BATCH,
            if eps("wall/1".into()) > 0.0 { e / eps("wall/1".into()) } else { 0.0 },
            vs_baseline,
            row_fields(&r, elements, e),
        );
    }

    println!("recording tag-scan kernel sweep…");
    let kernel_rows = sweep_json_rows(&probe_kernel_sweep(20_000_000));

    if baseline_row.is_empty() {
        baseline_row = "BENCH_batch.json baseline unavailable".into();
    }
    let json = format!(
        "{{\n  \"bench\": \"multicore_scaling\",\n  {}\n  \"batch\": {BATCH},\n  \"note\": \"wall-clock elements/s of the in-process pipeline vs shard count, same workload as BENCH_batch.json's in_process lane. Before/after at equal shards and batch, PR-5 batch bench vs this run: {}. allocs_per_element counts every heap allocation push->finish, split by the single-allocation-concat invariant: output_path is one allocation per result tuple (~8.7 per input here, irreducible), probe_path is everything else (routing, staging, probe, state and punctuation machinery) — the share whose no-match steady state the hotpath_allocs gate holds under 0.25 at any shard count; here it also carries purge and punctuation-alignment work, so ~1 per element on this match- and punctuation-heavy workload. mutex_acquisitions_per_element counts the shared aligner mutex, the data path's only lock, acquired at punctuation granularity only. probe_kernels is one recorded tag-scan sweep (see crates/bench/src/kernel_sweep.rs), shared with the probe_kernel bench; the acceptance bar is >= 1.5x over scalar at 10k+ occupancy for the best supported kernel. With cores=1 the shard sweep cannot show wall-clock speedup; the scaling shape is meaningful on multicore hosts\",\n  \"measurements\": [\n{}\n  ],\n  \"probe_kernels\": [\n{}\n  ]\n}}\n",
        cores_json_fields(true),
        baseline_row,
        rows,
        kernel_rows,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multicore.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    warn_if_single_core("multicore_scaling");
    let mut c = Criterion::default();
    bench_multicore(&mut c);
    c.final_summary();
    // Keep `cargo test` runs side-effect free; only a real bench run
    // refreshes the summary file.
    if !std::env::args().any(|a| a == "--test") {
        write_summary(&c);
    }
}
