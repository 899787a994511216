//! Property-based equivalence for the n-ary extension: over randomized
//! stream scripts and arities, [`NaryPJoin`] must produce exactly the
//! n-way nested-loop join, and its propagated punctuations must hold.
//! A left-deep chain of binary [`PJoin`]s, which purges join *k*+1's
//! state only through the punctuations join *k* propagates, must too.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pjoin::{
    run_nary, NaryConfig, NaryPJoin, PJoin, PJoinConfig, PropagationTrigger, PurgeStrategy,
};
use punct_types::{Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::{BinaryStreamOp, OpOutput, Side};

#[derive(Debug, Clone)]
struct Script {
    steps: Vec<(u8, u8, bool)>,
}

fn arb_script() -> impl Strategy<Value = Script> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), proptest::bool::weighted(0.25)), 0..30)
        .prop_map(|steps| Script { steps })
}

fn render(script: &Script, window: u64, base_ts: u64) -> Vec<Timestamped<StreamElement>> {
    let mut low = 0u64;
    let mut ts = base_ts;
    let mut out = Vec::new();
    for &(draw, payload, punct) in &script.steps {
        ts += 3;
        let key = (low + (draw as u64) % window) as i64;
        out.push(Timestamped::new(
            Timestamp(ts),
            StreamElement::Tuple(Tuple::of((key, payload as i64))),
        ));
        if punct {
            out.push(Timestamped::new(
                Timestamp(ts),
                StreamElement::Punctuation(Punctuation::close_value(2, 0, low as i64)),
            ));
            low += 1;
        }
    }
    out
}

fn reference(inputs: &[Vec<Timestamped<StreamElement>>]) -> Vec<Tuple> {
    fn rec(
        inputs: &[Vec<Timestamped<StreamElement>>],
        i: usize,
        key: Option<&Value>,
        acc: &mut Vec<Value>,
        out: &mut Vec<Tuple>,
    ) {
        if i == inputs.len() {
            out.push(Tuple::new(acc.clone()));
            return;
        }
        for e in &inputs[i] {
            let Some(t) = e.item.as_tuple() else { continue };
            let k = t.get(0).unwrap();
            if key.is_none_or(|key| key.join_eq(k)) {
                let len = acc.len();
                acc.extend_from_slice(t.values());
                rec(inputs, i + 1, Some(key.unwrap_or(k)), acc, out);
                acc.truncate(len);
            }
        }
    }
    let mut out = Vec::new();
    rec(inputs, 0, None, &mut Vec::new(), &mut out);
    out.sort();
    out
}

/// The joined tuples of `out`, sorted, having checked that none follows
/// a propagated punctuation it matches.
fn results(out: &[StreamElement]) -> Result<Vec<Tuple>, TestCaseError> {
    let (mut seen, mut got) = (Vec::<&Punctuation>::new(), Vec::new());
    for e in out {
        match e {
            StreamElement::Punctuation(p) => seen.push(p),
            StreamElement::Tuple(t) => {
                prop_assert!(
                    !seen.iter().any(|p| p.matches(t)),
                    "result {} violates a propagated punctuation",
                    t
                );
                got.push(t.clone());
            }
        }
    }
    got.sort();
    Ok(got)
}

/// Hands `e` to join `j` of a left-deep chain on `side`, and what it
/// emits to join `j + 1` as its left input, or to `sink` after the last.
fn chain_push(
    joins: &mut [PJoin],
    j: usize,
    side: Side,
    e: Option<StreamElement>,
    ts: Timestamp,
    sink: &mut Vec<StreamElement>,
) {
    let mut out = OpOutput::new();
    match e {
        Some(e) => joins[j].on_element(side, e, ts, &mut out),
        None => while joins[j].on_end(ts, &mut out) {},
    }
    let emitted: Vec<StreamElement> = out.drain().collect();
    for e in emitted {
        if j + 1 < joins.len() {
            chain_push(joins, j + 1, Side::Left, Some(e), ts, sink);
        } else {
            sink.push(e);
        }
    }
}

/// Runs `(..(A ⋈ B) ⋈ C ..)`: join *k* joins the first *k* + 1 inputs,
/// all on attribute 0, with eager purge and propagation on every
/// punctuation. Inputs merge by timestamp, ties by input index.
fn run_chain(inputs: &[Vec<Timestamped<StreamElement>>]) -> Vec<StreamElement> {
    let mut joins: Vec<PJoin> = (1..inputs.len())
        .map(|k| {
            PJoin::new(PJoinConfig {
                purge: PurgeStrategy::Eager,
                propagation: PropagationTrigger::PushCount { count: 1 },
                ..PJoinConfig::new(2 * k, 2)
            })
        })
        .collect();
    let mut merged: Vec<(Timestamp, usize, &StreamElement)> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.iter().map(move |e| (e.ts, i, &e.item)))
        .collect();
    merged.sort_by_key(|&(ts, i, _)| (ts, i));
    let mut sink = Vec::new();
    let mut end = Timestamp(0);
    for (ts, i, e) in merged {
        let (j, side) = if i == 0 { (0, Side::Left) } else { (i - 1, Side::Right) };
        chain_push(&mut joins, j, side, Some(e.clone()), ts, &mut sink);
        end = ts;
    }
    for j in 0..joins.len() {
        chain_push(&mut joins, j, Side::Left, None, end, &mut sink);
    }
    sink
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Join *k* propagates input B's close of `v` as `<*, *, v, *>`: it
    /// closes no join value of join *k* + 1's left input, whose join
    /// attribute is A's. The chain and the n-ary operator agree with the
    /// reference, and every punctuation either emits holds.
    #[test]
    fn binary_chain_and_nary_equal_reference(
        scripts in proptest::collection::vec(arb_script(), 3..5),
        window in 1u64..5,
    ) {
        let inputs: Vec<Vec<Timestamped<StreamElement>>> = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| render(s, window, i as u64))
            .collect();
        let expected = reference(&inputs);
        prop_assert_eq!(&results(&run_chain(&inputs))?, &expected);
        let mut op = NaryPJoin::new(NaryConfig::symmetric(inputs.len(), 2));
        prop_assert_eq!(&results(&run_nary(&mut op, &inputs))?, &expected);
    }

    #[test]
    fn nary_equals_reference(
        scripts in proptest::collection::vec(arb_script(), 2..5),
        window in 1u64..5,
        purge in prop_oneof![
            Just(PurgeStrategy::Eager),
            (1u64..8).prop_map(|threshold| PurgeStrategy::Lazy { threshold }),
            Just(PurgeStrategy::Never),
        ],
        on_the_fly in any::<bool>(),
    ) {
        let inputs: Vec<Vec<Timestamped<StreamElement>>> = scripts
            .iter()
            .enumerate()
            .map(|(i, s)| render(s, window, i as u64))
            .collect();
        let config = NaryConfig {
            purge,
            on_the_fly_drop: on_the_fly,
            propagate_every: Some(1),
            ..NaryConfig::symmetric(inputs.len(), 2)
        };
        let mut op = NaryPJoin::new(config);
        let out = run_nary(&mut op, &inputs);
        prop_assert_eq!(&results(&out)?, &reference(&inputs));
    }
}
