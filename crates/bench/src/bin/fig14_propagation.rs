//! Figure 14: punctuation propagation over time in the ideal case —
//! both inputs carry constant-pattern punctuations of the same
//! granularity arriving in the same order (inter-arrival 40
//! tuples/punctuation); PJoin propagates once an equivalent pair has
//! been received from both inputs.
//!
//! Expected shape: a steady, near-linear punctuation output rate.

use pjoin::PJoinBuilder;
use pjoin_bench::*;
use stream_metrics::Recorder;

fn main() {
    let tuples = default_tuples();
    let workload = paper_workload(tuples, 40.0, 40.0, default_seed());

    let mut op = PJoinBuilder::new(2, 2)
        .buckets(BUCKETS)
        .eager_purge()
        .propagate_on_matched_pair()
        .build();
    let stats = run_operator(&mut op, &workload);

    let series = punct_series("punctuations-propagated", &stats);
    let mut r = Recorder::new();
    r.insert(series.clone());
    report(
        "fig14",
        "Fig. 14 — punctuations propagated over time (matched pairs, inter-arrival 40)",
        "virtual seconds",
        "punctuations out",
        &r,
    );

    let inserted = (workload.puncts_a + workload.puncts_b) as u64;
    println!("\npunctuations embedded: {inserted}   propagated: {}", stats.total_out_puncts);

    // Steadiness: the rate over each third of the run stays within 40%
    // of the overall mean (the paper: "a steady punctuation propagation
    // rate in the ideal case").
    let t_end = series.points().last().unwrap().0;
    let y = |t: f64| series.interpolate(t).unwrap();
    let overall = y(t_end) / t_end;
    for k in 0..3 {
        let (t0, t1) = (t_end * k as f64 / 3.0, t_end * (k + 1) as f64 / 3.0);
        let rate = (y(t1) - y(t0)) / (t1 - t0);
        println!("rate in third {}: {rate:.2} puncts/s (overall {overall:.2})", k + 1);
        assert!(
            (rate - overall).abs() < overall * 0.4,
            "propagation rate must stay steady"
        );
    }
    assert!(stats.total_out_puncts >= inserted * 9 / 10, "almost all punctuations propagate");
}
