//! Property-based equivalence: over randomized well-formed punctuated
//! stream pairs and randomized PJoin configurations, the operator's
//! output must equal the reference nested-loop join, the output stream
//! must honour its own punctuations, and the operator must never
//! under-count its state. Besides plain closes, the scripts send
//! duplicate constants, enumeration lists and closes of values only one
//! side ever closes, so forgotten pairs meet shadowed duplicates and
//! punctuations that pin the front of the index window.

use proptest::prelude::*;

use pjoin::{PJoin, PJoinConfig, PropagationTrigger, PurgeStrategy};
use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::{CostModel, Driver, DriverConfig};
use streamgen::validate_stream;

/// What a script step sends after its tuple.
#[derive(Debug, Clone, Copy)]
enum Close {
    /// Nothing.
    None,
    /// Closes the lowest open key.
    Low,
    /// Closes the last closed key again (a redundant duplicate).
    Again,
    /// Closes the two lowest open keys with one enumeration list.
    Pair,
    /// Closes a key no tuple has and the other side never closes.
    OneSided,
}

/// One generated stream: a script of (gap, key-draw, close) steps,
/// interpreted over a sliding key window so the stream is well-formed by
/// construction.
#[derive(Debug, Clone)]
struct Script {
    steps: Vec<(u8, u8, Close)>,
}

fn arb_script(max_len: usize) -> impl Strategy<Value = Script> {
    let close = (0u8..21).prop_map(|k| match k {
        0..=14 => Close::None,
        15..=17 => Close::Low,
        18 => Close::Again,
        19 => Close::Pair,
        _ => Close::OneSided,
    });
    proptest::collection::vec((0u8..5, any::<u8>(), close), 1..max_len)
        .prop_map(|steps| Script { steps })
}

/// Renders a script; `side` keeps the two sides' one-sided keys apart.
fn render(script: &Script, window: u64, side: i64) -> Vec<Timestamped<StreamElement>> {
    let mut out = Vec::new();
    let mut low = 0u64;
    let mut one_sided = 10_000 * (side + 1);
    let mut ts = 0u64;
    for &(gap, draw, close) in &script.steps {
        ts += 1 + gap as u64;
        let key = low + (draw as u64) % window;
        out.push(Timestamped::new(
            Timestamp(ts),
            StreamElement::Tuple(Tuple::of((key as i64, ts as i64))),
        ));
        let pattern = match close {
            Close::None => continue,
            Close::Low => {
                low += 1;
                Pattern::Constant(Value::Int(low as i64 - 1))
            }
            Close::Again if low > 0 => Pattern::Constant(Value::Int(low as i64 - 1)),
            Close::Again => continue,
            Close::Pair => {
                low += 2;
                Pattern::enumeration(vec![Value::Int(low as i64 - 2), Value::Int(low as i64 - 1)])
            }
            Close::OneSided => {
                one_sided += 1;
                Pattern::Constant(Value::Int(one_sided))
            }
        };
        out.push(Timestamped::new(
            Timestamp(ts),
            StreamElement::Punctuation(Punctuation::on_attr(2, 0, pattern)),
        ));
    }
    out
}

fn arb_config() -> impl Strategy<Value = PJoinConfig> {
    (
        prop_oneof![
            Just(PurgeStrategy::Eager),
            (1u64..20).prop_map(|threshold| PurgeStrategy::Lazy { threshold }),
            Just(PurgeStrategy::Never),
        ],
        prop_oneof![
            Just(PropagationTrigger::Disabled),
            (1u64..10).prop_map(|count| PropagationTrigger::PushCount { count }),
            Just(PropagationTrigger::MatchedPair),
        ],
        any::<bool>(),
        // memory budget: 0 (unlimited) or tiny (forces spills).
        prop_oneof![Just(0usize), 4usize..32],
        1usize..8, // buckets
    )
        .prop_map(|(purge, propagation, otf, memory, buckets)| PJoinConfig {
            purge,
            propagation,
            on_the_fly_drop: otf,
            memory_max_tuples: memory,
            buckets,
            page_tuples: 4,
            ..PJoinConfig::new(2, 2)
        })
}

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn pjoin_equals_reference(
        sa in arb_script(60),
        sb in arb_script(60),
        config in arb_config(),
        window in 1u64..6,
    ) {
        let left = render(&sa, window, 0);
        let right = render(&sb, window, 1);
        prop_assume!(validate_stream(&left, 0).is_well_formed());
        prop_assume!(validate_stream(&right, 0).is_well_formed());

        let mut op = PJoin::new(config);
        let driver = Driver::new(DriverConfig {
            cost: CostModel::free(),
            sample_every_micros: 1_000_000,
            collect_outputs: true,
            ..DriverConfig::default()
        });
        let stats = driver.run(&mut op, &left, &right);

        let mut got: Vec<Tuple> =
            stats.outputs.iter().filter_map(|o| o.item.as_tuple().cloned()).collect();
        got.sort();
        prop_assert_eq!(&got, &reference_join(&left, &right));

        // Propagated punctuations are honoured by later results.
        let report = validate_stream(&stats.outputs, 0);
        prop_assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
    }

    #[test]
    fn idle_slots_change_nothing(
        sa in arb_script(40),
        sb in arb_script(40),
        config in arb_config(),
    ) {
        // Running with a cost model (which creates idle slots and thus
        // disk-join scheduling differences) must not change the result
        // multiset.
        let left = render(&sa, 4, 0);
        let right = render(&sb, 4, 1);
        prop_assume!(validate_stream(&left, 0).is_well_formed());
        prop_assume!(validate_stream(&right, 0).is_well_formed());

        let collect = |cost: CostModel| {
            let mut op = PJoin::new(config.clone());
            let driver = Driver::new(DriverConfig {
                cost,
                sample_every_micros: 1_000_000,
                collect_outputs: true,
                ..DriverConfig::default()
            });
            let stats = driver.run(&mut op, &left, &right);
            let mut got: Vec<Tuple> =
                stats.outputs.iter().filter_map(|o| o.item.as_tuple().cloned()).collect();
            got.sort();
            got
        };
        prop_assert_eq!(collect(CostModel::free()), collect(CostModel::default()));
    }
}
