//! Figure 9: output tuples over time for purge thresholds 1, 100, 400
//! and 800 (punctuation inter-arrival 10 tuples/punctuation).
//!
//! The paper's chart shows a crossover: moderate thresholds beat eager
//! purge (each purge pass cost a full state scan), while very large
//! thresholds lose again to state-size-dependent probe costs ("the
//! same problem as encountered by XJoin"). Both sides of that
//! trade-off are artifacts of scan-based state access. With the
//! per-bucket key index, a constant-pattern purge pass costs one
//! lookup per closed value and probes examine only matching records —
//! neither cost grows with the purge backlog — so every threshold now
//! produces the same output at the same rate. This binary asserts the
//! flattened shape (identical results, rates within 2%); the paper's
//! original crossover survives only for scan-bound pattern shapes
//! (ranges/wildcards, see `purge_state`).

use pjoin_bench::*;
use stream_metrics::Recorder;

fn main() {
    let tuples = default_tuples();
    let workload = paper_workload(tuples, 10.0, 10.0, default_seed());

    let mut r = Recorder::new();
    let mut finals = Vec::new();
    for threshold in [1u64, 100, 400, 800] {
        let mut op = pjoin_n(threshold);
        let stats = run_operator(&mut op, &workload);
        let name = format!("PJoin-{threshold}");
        // Output *rate*: cumulative tuples over elapsed virtual time.
        let rate = stats.total_out_tuples as f64 / stats.end_time.as_secs_f64();
        finals.push((threshold, rate, stats.end_time.as_secs_f64(), stats.total_out_tuples));
        r.insert(output_series(&name, &stats));
    }

    report(
        "fig09",
        "Fig. 9 — purge threshold vs cumulative output (punct inter-arrival 10)",
        "virtual seconds",
        "output tuples",
        &r,
    );

    println!("\nthreshold   output rate (tuples/s)   finished at (s)");
    for (threshold, rate, end, _) in &finals {
        println!("{threshold:>9}   {rate:>22.0}   {end:>15.1}");
    }
    // Every threshold joins the same tuples...
    assert!(
        finals.iter().all(|f| f.3 == finals[0].3),
        "all thresholds must produce identical outputs"
    );
    // ...and with O(values + matches) purges and O(matches) probes no
    // threshold pays a state-size-dependent cost: rates are flat.
    let rates: Vec<f64> = finals.iter().map(|f| f.1).collect();
    let (lo, hi) = (rates.iter().cloned().fold(f64::MAX, f64::min),
                    rates.iter().cloned().fold(f64::MIN, f64::max));
    assert!(
        hi <= lo * 1.02,
        "purge threshold must no longer move the output rate (got {lo:.0}..{hi:.0} t/s)"
    );
}
