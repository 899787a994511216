//! End-to-end correctness of the PJoin operator: for well-formed
//! punctuated inputs, the join result must be *exactly* the reference
//! nested-loop join (punctuations optimize, never change semantics), and
//! every emitted punctuation must be honoured by every later result.

use pjoin::{PJoin, PJoinBuilder};
use punct_types::{StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::{BinaryStreamOp, CostModel, Driver, DriverConfig, RunStats};
use streamgen::{generate_pair, validate_stream, PunctScheme, StreamConfig};

fn driver() -> Driver {
    Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 1_000_000,
        collect_outputs: true,
        ..DriverConfig::default()
    })
}

fn run(
    op: &mut PJoin,
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
) -> RunStats {
    driver().run(op, left, right)
}

fn output_tuples(stats: &RunStats) -> Vec<Tuple> {
    let mut v: Vec<Tuple> = stats
        .outputs
        .iter()
        .filter_map(|o| o.item.as_tuple().cloned())
        .collect();
    v.sort();
    v
}

/// Reference: nested-loop join over the tuple payloads.
fn reference_join(
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left.iter().filter_map(|e| e.item.as_tuple()) {
        for r in right.iter().filter_map(|e| e.item.as_tuple()) {
            if l.get(0).zip(r.get(0)).is_some_and(|(a, b)| a.join_eq(b)) {
                out.push(l.concat(r));
            }
        }
    }
    out.sort();
    out
}

fn workload(tuples: usize, punct_every: f64, seed: u64) -> (
    Vec<Timestamped<StreamElement>>,
    Vec<Timestamped<StreamElement>>,
) {
    let cfg = StreamConfig {
        tuples,
        punct_scheme: PunctScheme::ConstantPerKey,
        key_window: 5,
        seed,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, punct_every, punct_every);
    assert!(validate_stream(&a.elements, 0).is_well_formed());
    assert!(validate_stream(&b.elements, 0).is_well_formed());
    (a.elements, b.elements)
}

#[test]
fn matches_reference_eager_purge() {
    let (left, right) = workload(1_000, 10.0, 1);
    let mut op = PJoinBuilder::new(2, 2).eager_purge().eager_index_build().propagate_every(5).build();
    let stats = run(&mut op, &left, &right);
    assert_eq!(output_tuples(&stats), reference_join(&left, &right));
    assert!(op.stats().purge_runs > 0, "eager purge must have run");
    assert!(op.stats().tuples_purged > 0, "some tuples must have been purged");
}

#[test]
fn matches_reference_lazy_purge() {
    let (left, right) = workload(1_000, 10.0, 2);
    for threshold in [10, 100] {
        let mut op = PJoinBuilder::new(2, 2).lazy_purge(threshold).build();
        let stats = run(&mut op, &left, &right);
        assert_eq!(
            output_tuples(&stats),
            reference_join(&left, &right),
            "threshold {threshold}"
        );
    }
}

#[test]
fn matches_reference_never_purge() {
    let (left, right) = workload(600, 10.0, 3);
    let mut op = PJoinBuilder::new(2, 2).never_purge().no_propagation().build();
    let stats = run(&mut op, &left, &right);
    assert_eq!(output_tuples(&stats), reference_join(&left, &right));
    assert_eq!(op.stats().tuples_purged, 0);
}

#[test]
fn matches_reference_without_on_the_fly_drop() {
    let (left, right) = workload(800, 10.0, 4);
    let mut a = PJoinBuilder::new(2, 2).eager_purge().on_the_fly_drop(false).build();
    let sa = run(&mut a, &left, &right);
    let mut b = PJoinBuilder::new(2, 2).eager_purge().on_the_fly_drop(true).build();
    let sb = run(&mut b, &left, &right);
    let reference = reference_join(&left, &right);
    assert_eq!(output_tuples(&sa), reference);
    assert_eq!(output_tuples(&sb), reference);
    assert!(b.stats().dropped_on_fly > 0, "symmetric workload produces on-the-fly drops");
}

#[test]
fn matches_reference_with_heavy_spilling() {
    let (left, right) = workload(800, 20.0, 5);
    let mut op = PJoinBuilder::new(2, 2)
        .eager_purge()
        .buckets(4)
        .page_tuples(4)
        .memory_max(16)
        .propagate_every(5)
        .build();
    let stats = run(&mut op, &left, &right);
    assert_eq!(output_tuples(&stats), reference_join(&left, &right));
    assert!(op.stats().relocations > 0, "tiny memory budget must force spills");
    assert!(op.stats().disk_join_runs > 0, "disk joins must resolve the spills");
}

#[test]
fn matches_reference_with_spilling_and_lazy_everything() {
    let (left, right) = workload(600, 15.0, 6);
    let mut op = PJoinBuilder::new(2, 2)
        .lazy_purge(40)
        .lazy_index_build()
        .buckets(2)
        .page_tuples(8)
        .memory_max(32)
        .propagate_every(20)
        .build();
    let stats = run(&mut op, &left, &right);
    assert_eq!(output_tuples(&stats), reference_join(&left, &right));
}

#[test]
fn matches_reference_asymmetric_punctuation_rates() {
    let cfg = StreamConfig {
        tuples: 800,
        key_window: 5,
        seed: 7,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, 10.0, 40.0);
    let mut op = PJoinBuilder::new(2, 2).eager_purge().build();
    let stats = run(&mut op, &a.elements, &b.elements);
    assert_eq!(output_tuples(&stats), reference_join(&a.elements, &b.elements));
}

#[test]
fn matches_reference_range_punctuations() {
    let cfg = StreamConfig {
        tuples: 800,
        punct_scheme: PunctScheme::RangeBatch { batch: 4 },
        key_window: 5,
        seed: 8,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, 10.0, 10.0);
    let mut op = PJoinBuilder::new(2, 2).eager_purge().propagate_every(3).build();
    let stats = run(&mut op, &a.elements, &b.elements);
    assert_eq!(output_tuples(&stats), reference_join(&a.elements, &b.elements));
}

#[test]
fn emitted_punctuations_are_never_violated() {
    let (left, right) = workload(1_200, 8.0, 9);
    let mut op = PJoinBuilder::new(2, 2)
        .eager_purge()
        .eager_index_build()
        .propagate_every(1)
        .build();
    let stats = run(&mut op, &left, &right);
    // The output stream (tuples + punctuations in emission order) must be
    // well-formed: no result tuple may match an earlier punctuation.
    let report = validate_stream(&stats.outputs, 0);
    assert!(
        report.violations.is_empty(),
        "results violated propagated punctuations at indices {:?}",
        report.violations
    );
    assert!(stats.total_out_puncts > 0, "propagation must have emitted punctuations");
}

#[test]
fn all_punctuations_eventually_propagate() {
    let (left, right) = workload(600, 10.0, 10);
    let inserted = left
        .iter()
        .chain(right.iter())
        .filter(|e| e.item.is_punctuation())
        .count() as u64;
    let mut op = PJoinBuilder::new(2, 2).eager_purge().eager_index_build().propagate_every(1).build();
    let stats = run(&mut op, &left, &right);
    // The end-of-stream flush releases everything that was still pending.
    assert_eq!(stats.total_out_puncts, inserted);
}

#[test]
fn punctuated_state_stays_bounded() {
    let (left, right) = workload(4_000, 10.0, 11);
    let mut punct = PJoinBuilder::new(2, 2).eager_purge().build();
    let sp = driver().run(&mut punct, &left, &right);
    let mut never = PJoinBuilder::new(2, 2).never_purge().no_propagation().build();
    let sn = driver().run(&mut never, &left, &right);
    // Without purging the state is the whole input (minus nothing);
    // with eager purge it must be dramatically smaller.
    assert!(
        (sp.peak_state() as f64) < (sn.peak_state() as f64) * 0.2,
        "peak {} vs unpurged {}",
        sp.peak_state(),
        sn.peak_state()
    );
}

#[test]
fn asymmetric_b_state_is_tiny_via_on_the_fly_drops() {
    // §4.3: when A punctuates much faster, most B tuples are covered by
    // an A punctuation on arrival and never enter the B state.
    let cfg = StreamConfig { tuples: 3_000, key_window: 5, seed: 12, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, 5.0, 50.0);
    let mut op = PJoinBuilder::new(2, 2).eager_purge().build();
    let stats = run(&mut op, &a.elements, &b.elements);
    let last = stats.samples.last().unwrap();
    assert!(op.stats().dropped_on_fly > 0);
    // The A side dominates the state.
    assert!(
        last.state_left > last.state_right * 3,
        "A state {} should dwarf B state {}",
        last.state_left,
        last.state_right
    );
}

#[test]
fn pull_mode_propagates_on_request() {
    let mut op = PJoinBuilder::new(2, 2)
        .eager_purge()
        .eager_index_build()
        .propagate_on_request()
        .build();
    let mut out = stream_sim::OpOutput::new();
    use stream_sim::Side;
    op.on_element(Side::Left, Tuple::of((1i64, 0i64)).into(), Timestamp(1), &mut out);
    op.on_element(
        Side::Right,
        punct_types::Punctuation::close_value(2, 0, 1i64).into(),
        Timestamp(2),
        &mut out,
    );
    // A punctuation with no matching A tuple pending: propagable, but
    // pull mode waits for a request.
    op.on_element(
        Side::Left,
        punct_types::Punctuation::close_value(2, 0, 1i64).into(),
        Timestamp(3),
        &mut out,
    );
    let before: Vec<StreamElement> = out.drain().collect();
    assert!(before.iter().all(|e| !e.is_punctuation()), "no propagation before request");
    op.request_propagation();
    op.on_idle(Timestamp(4), &mut out);
    let after: Vec<StreamElement> = out.drain().collect();
    assert!(after.iter().any(|e| e.is_punctuation()), "request must trigger propagation");
}

#[test]
fn matched_pair_mode_propagates_on_pairs() {
    let mut op = PJoinBuilder::new(2, 2)
        .eager_purge()
        .eager_index_build()
        .propagate_on_matched_pair()
        .build();
    let mut out = stream_sim::OpOutput::new();
    use stream_sim::Side;
    // Punctuation on A only: no pair yet.
    op.on_element(
        Side::Left,
        punct_types::Punctuation::close_value(2, 0, 7i64).into(),
        Timestamp(1),
        &mut out,
    );
    assert!(out.drain().all(|e| !e.is_punctuation()));
    // The matching B punctuation completes the pair: both propagate.
    op.on_element(
        Side::Right,
        punct_types::Punctuation::close_value(2, 0, 7i64).into(),
        Timestamp(2),
        &mut out,
    );
    let puncts = out.drain().filter(|e| e.is_punctuation()).count();
    assert_eq!(puncts, 2);
}

#[test]
fn deterministic_across_runs() {
    let (left, right) = workload(500, 10.0, 13);
    let build = || PJoinBuilder::new(2, 2).eager_purge().propagate_every(5).build();
    let mut op1 = build();
    let s1 = run(&mut op1, &left, &right);
    let mut op2 = build();
    let s2 = run(&mut op2, &left, &right);
    assert_eq!(s1.outputs, s2.outputs);
    assert_eq!(s1.total_work, s2.total_work);
    assert_eq!(op1.stats(), op2.stats());
}

/// A tuple too short to carry the join attribute and a punctuation of
/// the wrong width are counted drops — no panic in a debug build, no
/// effect on the result — identically in debug and release.
#[test]
fn malformed_elements_are_counted_drops() {
    let (left, right) = workload(300, 8.0, 21);
    let build = || PJoinBuilder::new(2, 2).eager_purge().propagate_every(3).build();
    let mut clean = build();
    let expected = run(&mut clean, &left, &right);

    let mut dirty_left = left.clone();
    let mid = dirty_left.len() / 2;
    let ts = dirty_left[mid].ts;
    let short = Tuple::new(Vec::new());
    let wide = punct_types::Punctuation::close_value(3, 0, 1i64);
    dirty_left.insert(mid, Timestamped::new(ts, wide.into()));
    dirty_left.insert(mid, Timestamped::new(ts, short.into()));
    let mut dirty = build();
    let got = run(&mut dirty, &dirty_left, &right);

    assert_eq!(got.outputs, expected.outputs);
    assert_eq!(dirty.stats().malformed_dropped, 2, "one count per malformed element");
    assert_eq!(clean.stats().malformed_dropped, 0);
    let mut rest = *dirty.stats();
    rest.malformed_dropped = 0;
    assert_eq!(&rest, clean.stats(), "a drop must leave no other trace");
}
