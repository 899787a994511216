//! The sliding-window extension of §6: tuple invalidation by window,
//! combined with punctuation-based purging.
//!
//! Window semantics: a pair `(a, b)` joins iff the keys match and the
//! later tuple arrives within `window_us` of the earlier one (expiry
//! happens at probe time, so the check is one-sided per arrival —
//! standard symmetric sliding-window join semantics).

use pjoin::PJoinBuilder;
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped, Tuple};
use stream_sim::{BinaryStreamOp, CostModel, Driver, DriverConfig, OpOutput, RunStats, Side};
use streamgen::{generate_pair, StreamConfig};

fn tup(us: u64, k: i64, p: i64) -> Timestamped<StreamElement> {
    Timestamped::new(Timestamp(us), StreamElement::Tuple(Tuple::of((k, p))))
}

fn run(
    op: &mut dyn BinaryStreamOp,
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
) -> RunStats {
    let driver = Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 1_000_000,
        collect_outputs: true,
        ..DriverConfig::default()
    });
    driver.run(op, left, right)
}

fn sorted_tuples(stats: &RunStats) -> Vec<Tuple> {
    let mut v: Vec<Tuple> =
        stats.outputs.iter().filter_map(|o| o.item.as_tuple().cloned()).collect();
    v.sort();
    v
}

/// Band-join reference: keys match and |ta - tb| <= window.
fn reference_window_join(
    left: &[Timestamped<StreamElement>],
    right: &[Timestamped<StreamElement>],
    window_us: u64,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left {
        let Some(lt) = l.item.as_tuple() else { continue };
        for r in right {
            let Some(rt) = r.item.as_tuple() else { continue };
            let gap = l.ts.as_micros().abs_diff(r.ts.as_micros());
            if gap <= window_us
                && lt.get(0).zip(rt.get(0)).is_some_and(|(a, b)| a.join_eq(b))
            {
                out.push(lt.concat(rt));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn window_drops_stale_matches() {
    let window = 1_000u64;
    let left = vec![tup(0, 7, 1)];
    // Within the window: joins; outside: does not.
    let right = vec![tup(500, 7, 2), tup(5_000, 7, 3)];
    let mut op = PJoinBuilder::new(2, 2).window_micros(window).no_propagation().build();
    let stats = run(&mut op, &left, &right);
    assert_eq!(
        sorted_tuples(&stats),
        vec![Tuple::of((7i64, 1i64, 7i64, 2i64))]
    );
    assert!(op.stats().tuples_expired >= 1);
}

#[test]
fn window_join_matches_band_reference() {
    let window = 10_000u64; // 10 ms on a 2 ms-mean arrival process
    let cfg = StreamConfig { tuples: 1_500, key_window: 5, seed: 3, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, 10.0, 10.0);
    let mut op = PJoinBuilder::new(2, 2)
        .window_micros(window)
        .eager_purge()
        .propagate_every(5)
        .build();
    let stats = run(&mut op, &a.elements, &b.elements);
    assert_eq!(
        sorted_tuples(&stats),
        reference_window_join(&a.elements, &b.elements, window)
    );
}

#[test]
fn window_without_punctuations_bounds_state() {
    let cfg = StreamConfig { tuples: 4_000, key_window: 10, seed: 4, ..StreamConfig::default() }
        .without_punctuations();
    let (a, b) = generate_pair(&cfg, 1e18, 1e18);

    let mut unbounded = PJoinBuilder::new(2, 2).never_purge().no_propagation().build();
    let su = run(&mut unbounded, &a.elements, &b.elements);

    let mut windowed = PJoinBuilder::new(2, 2)
        .window_micros(50_000)
        .never_purge()
        .no_propagation()
        .build();
    let sw = run(&mut windowed, &a.elements, &b.elements);

    assert!(
        sw.peak_state() * 10 < su.peak_state(),
        "windowed state {} must be far below unbounded {}",
        sw.peak_state(),
        su.peak_state()
    );
    assert_eq!(
        sorted_tuples(&sw),
        reference_window_join(&a.elements, &b.elements, 50_000)
    );
}

#[test]
fn window_and_punctuations_compose() {
    // Punctuations purge keys the window has not expired yet, and vice
    // versa; results obey *both* constraints.
    let window = 20_000u64;
    let cfg = StreamConfig { tuples: 2_000, key_window: 5, seed: 5, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, 8.0, 8.0);
    let mut both = PJoinBuilder::new(2, 2)
        .window_micros(window)
        .eager_purge()
        .no_propagation()
        .build();
    let sb = run(&mut both, &a.elements, &b.elements);
    assert_eq!(
        sorted_tuples(&sb),
        reference_window_join(&a.elements, &b.elements, window)
    );
    assert!(both.stats().tuples_purged > 0, "punctuations still purge");

    // And the combination yields (weakly) less state than window alone.
    let mut window_only = PJoinBuilder::new(2, 2)
        .window_micros(window)
        .never_purge()
        .no_propagation()
        .build();
    let sw = run(&mut window_only, &a.elements, &b.elements);
    assert!(sb.mean_state() <= sw.mean_state() + 1.0);
}

#[test]
fn window_expiry_enables_early_propagation() {
    // §6: "the interaction between punctuations and windows may enable
    // further optimization such as early punctuation propagation". A
    // punctuation whose matching tuples all *expired* becomes propagable
    // without any opposite-side punctuation.
    let mut op = PJoinBuilder::new(2, 2)
        .window_micros(1_000)
        .eager_purge()
        .propagate_every(1)
        .build();
    let mut out = OpOutput::new();
    op.on_element(Side::Left, Tuple::of((7i64, 0i64)).into(), Timestamp(0), &mut out);
    // The left punctuation for key 7 arrives while the tuple is live:
    // count = 1, not propagable.
    op.on_element(
        Side::Left,
        Punctuation::close_value(2, 0, 7i64).into(),
        Timestamp(100),
        &mut out,
    );
    assert!(out.drain().all(|e| !e.is_punctuation()));
    // Much later, a probe into the same bucket expires the tuple; the
    // count drops to zero and the punctuation propagates.
    op.on_element(Side::Right, Tuple::of((7i64, 1i64)).into(), Timestamp(10_000), &mut out);
    op.on_element(
        Side::Left,
        Punctuation::close_value(2, 0, 8i64).into(),
        Timestamp(10_001),
        &mut out,
    );
    let puncts: Vec<StreamElement> = out.drain().filter(|e| e.is_punctuation()).collect();
    assert!(
        !puncts.is_empty(),
        "expiry must make the stranded punctuation propagable"
    );
    assert_eq!(op.stats().tuples_expired, 1);
}
