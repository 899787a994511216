//! Shared experiment machinery: the paper's workload defaults, operator
//! constructors, series extraction and reporting.

use std::path::PathBuf;

use pjoin::{PJoin, PJoinBuilder};
use punct_types::{StreamElement, Timestamped};
use stream_metrics::csv::write_csv_files;
use stream_metrics::{ascii_chart, ChartOptions, Recorder, Series};
use stream_sim::{BinaryStreamOp, CostModel, Driver, DriverConfig, RunStats};
use streamgen::{generate_pair, StreamConfig};
use xjoin::{XJoin, XJoinConfig};

/// Number of hash buckets used by both operators in every experiment.
pub const BUCKETS: usize = 8;

/// Tuples per stream (override with `PJOIN_BENCH_TUPLES`).
pub fn default_tuples() -> usize {
    std::env::var("PJOIN_BENCH_TUPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000)
}

/// Workload seed (override with `PJOIN_BENCH_SEED`).
pub fn default_seed() -> u64 {
    std::env::var("PJOIN_BENCH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// A generated two-stream workload.
pub struct JoinWorkload {
    /// Stream A.
    pub left: Vec<Timestamped<StreamElement>>,
    /// Stream B.
    pub right: Vec<Timestamped<StreamElement>>,
    /// Punctuations embedded in A.
    pub puncts_a: usize,
    /// Punctuations embedded in B.
    pub puncts_b: usize,
}

/// The paper's benchmark workload (§4): Poisson tuple inter-arrival with
/// a 2 ms mean on both inputs, many-to-many join over a sliding key
/// window, constant-pattern punctuations with Poisson inter-arrival of
/// `punct_a` / `punct_b` tuples per punctuation. Pass `f64::INFINITY` to
/// disable punctuations on a side.
pub fn paper_workload(tuples: usize, punct_a: f64, punct_b: f64, seed: u64) -> JoinWorkload {
    let mut base = StreamConfig {
        tuples,
        key_window: 10,
        seed,
        ..StreamConfig::default()
    };
    if punct_a.is_infinite() && punct_b.is_infinite() {
        base = base.without_punctuations();
    }
    let (a, b) = generate_pair(
        &base,
        if punct_a.is_finite() { punct_a } else { 1e18 },
        if punct_b.is_finite() { punct_b } else { 1e18 },
    );
    JoinWorkload {
        left: a.elements,
        right: b.elements,
        puncts_a: a.punctuations,
        puncts_b: b.punctuations,
    }
}

/// The cost model used by every figure. Calibrated so a *scan-bound*
/// operator runs near saturation at the paper's 2 ms tuple
/// inter-arrival — the regime the paper's Java-1.4-on-Pentium-IV
/// testbed ran in. XJoin (state-size-dependent probes) and the
/// range-pattern purge path still saturate under these prices; PJoin's
/// indexed probe/purge paths pay only per-lookup and per-match costs
/// and keep pace with arrivals (see the deviation notes in
/// EXPERIMENTS.md for Figs. 9/11/12). Per-operation prices are
/// era-plausible: ~1 µs per hash or key lookup, a few µs per candidate
/// comparison, tens of µs to materialize a result object, and a purge
/// scan that pays pattern evaluation plus state compaction per tuple.
pub fn experiment_cost_model() -> CostModel {
    CostModel {
        hash_ns: 1_000,
        key_lookup_ns: 1_000,
        probe_cmp_ns: 3_000,
        insert_ns: 3_000,
        output_ns: 25_000,
        purge_scan_ns: 20_000,
        purged_ns: 3_000,
        index_eval_ns: 3_000,
        punct_overhead_ns: 5_000,
        propagate_ns: 3_000,
        page_read_ns: 10_000_000,
        page_write_ns: 10_000_000,
    }
}

/// A PJoin with the experiment defaults: `PJoin-n` (lazy purge with
/// threshold `n`; 1 = eager). Propagation is disabled — the paper
/// evaluates purge strategies (§4.1–§4.3) and propagation (§4.4)
/// separately, and fig14 configures its own propagating operator.
pub fn pjoin_n(purge_threshold: u64) -> PJoin {
    let mut b = PJoinBuilder::new(2, 2)
        .buckets(BUCKETS)
        .no_propagation();
    b = if purge_threshold <= 1 { b.eager_purge() } else { b.lazy_purge(purge_threshold) };
    b.build()
}

/// Tuples per stream for the *asymmetric crossover* experiments
/// (Figs. 12/13): a shorter horizon than the state/throughput figures,
/// because the crossover the paper reports — eager purge lagging XJoin —
/// exists only while XJoin's ever-growing probe cost has not yet
/// overtaken PJoin's purge overhead.
pub fn crossover_tuples() -> usize {
    (default_tuples() * 3 / 20).max(2_000)
}

/// The baseline XJoin with the experiment defaults.
pub fn xjoin_baseline() -> XJoin {
    XJoin::new(XJoinConfig { buckets: BUCKETS, ..XJoinConfig::default() })
}

/// Runs an operator over a workload under the experiment cost model,
/// sampling every 500 virtual milliseconds.
pub fn run_operator(op: &mut dyn BinaryStreamOp, workload: &JoinWorkload) -> RunStats {
    let driver = Driver::new(DriverConfig {
        cost: experiment_cost_model(),
        sample_every_micros: 500_000,
        collect_outputs: false,
        ..DriverConfig::default()
    });
    driver.run(op, &workload.left, &workload.right)
}

/// State-size-over-time series (x: virtual seconds, y: tuples in state).
pub fn state_series(name: &str, stats: &RunStats) -> Series {
    Series::from_points(
        name,
        stats.samples.iter().map(|s| (s.ts.as_secs_f64(), s.state_total as f64)).collect(),
    )
}

/// Per-side state series `(left, right)`.
pub fn side_state_series(name: &str, stats: &RunStats) -> (Series, Series) {
    let a = Series::from_points(
        format!("{name}_A"),
        stats.samples.iter().map(|s| (s.ts.as_secs_f64(), s.state_left as f64)).collect(),
    );
    let b = Series::from_points(
        format!("{name}_B"),
        stats.samples.iter().map(|s| (s.ts.as_secs_f64(), s.state_right as f64)).collect(),
    );
    (a, b)
}

/// State size vs *progress* (x: input elements consumed, y: tuples in
/// state). Fair for comparing configurations that process at different
/// speeds: state at the same point of the input sequence.
pub fn state_vs_consumed_series(name: &str, stats: &RunStats) -> Series {
    let mut points: Vec<(f64, f64)> = stats
        .samples
        .iter()
        .map(|s| (s.consumed as f64, s.state_total as f64))
        .collect();
    points.dedup_by(|a, b| a.0 == b.0);
    Series::from_points(name, points)
}

/// Cumulative-output-over-time series (x: virtual seconds, y: tuples).
pub fn output_series(name: &str, stats: &RunStats) -> Series {
    Series::from_points(
        name,
        stats.samples.iter().map(|s| (s.ts.as_secs_f64(), s.out_tuples as f64)).collect(),
    )
}

/// Cumulative-propagated-punctuations series.
pub fn punct_series(name: &str, stats: &RunStats) -> Series {
    Series::from_points(
        name,
        stats.samples.iter().map(|s| (s.ts.as_secs_f64(), s.out_puncts as f64)).collect(),
    )
}

/// Where CSV outputs land.
pub fn results_dir() -> PathBuf {
    std::env::var("PJOIN_BENCH_RESULTS").map(PathBuf::from).unwrap_or_else(|_| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
    })
}

/// Prints the chart and summary for a figure and writes its CSVs.
pub fn report(fig: &str, title: &str, x_label: &str, y_label: &str, recorder: &Recorder) {
    let opts = ChartOptions {
        width: 76,
        height: 20,
        title: title.to_string(),
        x_label: x_label.to_string(),
        y_label: y_label.to_string(),
    };
    println!("{}", ascii_chart::render(recorder, &opts));
    println!("{:<28} {:>12} {:>12} {:>12} {:>12}", "series", "mean", "max", "last", "n");
    for s in recorder.iter() {
        let sum = s.summary();
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>12.1} {:>12}",
            s.name,
            sum.mean,
            sum.max,
            s.last_y().unwrap_or(0.0),
            s.len()
        );
    }
    let dir = results_dir();
    match write_csv_files(recorder, &dir, fig) {
        Ok(()) => println!("\nwrote {}/{{{fig}_long.csv, {fig}_wide.csv}}", dir.display()),
        Err(e) => eprintln!("could not write CSVs: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_shapes() {
        let w = paper_workload(500, 10.0, 20.0, 1);
        assert_eq!(w.left.iter().filter(|e| e.item.is_tuple()).count(), 500);
        assert!(w.puncts_a > w.puncts_b, "A punctuates more often");
        let w = paper_workload(200, f64::INFINITY, f64::INFINITY, 1);
        assert_eq!(w.puncts_a + w.puncts_b, 0);
    }

    #[test]
    fn run_operator_produces_samples() {
        let w = paper_workload(2_000, 40.0, 40.0, 2);
        let mut op = pjoin_n(1);
        let stats = run_operator(&mut op, &w);
        assert!(stats.total_out_tuples > 0);
        assert!(stats.samples.len() > 3);
        let series = state_series("s", &stats);
        assert_eq!(series.len(), stats.samples.len());
    }

    #[test]
    fn xjoin_and_pjoin_agree_on_results() {
        let w = paper_workload(2_000, 40.0, 40.0, 3);
        let mut p = pjoin_n(1);
        let sp = run_operator(&mut p, &w);
        let mut x = xjoin_baseline();
        let sx = run_operator(&mut x, &w);
        assert_eq!(sp.total_out_tuples, sx.total_out_tuples, "same join result cardinality");
        // ... but radically different state sizes. The exact ratio is a
        // property of the generated punctuation cadence (observed 3.9-6x
        // across seeds with the vendored RNG), so assert a 3x floor
        // rather than a point estimate.
        assert!(sp.peak_state() * 3 < sx.peak_state());
    }
}
