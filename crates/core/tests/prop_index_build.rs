//! Property: the index build's choice of *which tuples to look at*
//! never changes what it computes. Over random interleavings of tuple
//! inserts, punctuations of every shape, keyed purges (with and without
//! a move to the purge buffer), purge-buffer drops, propagations and
//! index builds, every build must leave each record with the pid — and
//! each punctuation with the count — that evaluating every unindexed
//! record against the new punctuations (`assign_pid_new`, the paper's
//! nested loop) gives.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pjoin::components::{propagate_side, purge_state};
use pjoin::{JoinState, PRecord};
use punct_types::{Pattern, PunctId, Punctuation, Value};
use stream_sim::{OpOutput, Work};

const KEYS: u8 = 6;
const BUCKETS: usize = 4;

/// A join key from a small domain in which `Int(k)`, the join-equal
/// `Float(k.0)` and the unrelated `Float(k.5)` all occur.
fn key(draw: u8) -> Value {
    let k = i64::from(draw % KEYS);
    match (draw / KEYS) % 3 {
        0 => Value::Int(k),
        1 => Value::Float(k as f64),
        _ => Value::Float(k as f64 + 0.5),
    }
}

/// A punctuation over `(key, payload)` tuples; `payload` is 0..3.
fn punctuation(shape: u8, a: u8, b: u8) -> Punctuation {
    let join = match shape % 7 {
        // Constants dominate so duplicates of one value are common.
        0 | 1 => Pattern::Constant(key(a)),
        2 => Pattern::enumeration(vec![key(a), key(b), key(a.wrapping_add(b))]),
        3 => {
            let (lo, hi) = (i64::from(a % KEYS), i64::from(b % KEYS));
            Pattern::int_range(lo.min(hi), lo.max(hi))
        }
        4 => Pattern::Wildcard,
        5 => Pattern::Empty,
        // Closes a key for one payload value only.
        _ => {
            return Punctuation::new(vec![
                Pattern::Constant(key(a)),
                Pattern::Constant(Value::Int(i64::from(b % 3))),
            ])
        }
    };
    let payload = if shape % 7 == 4 {
        // A non-join-attribute punctuation (or, one time in three, the
        // all-wildcard one).
        match b % 3 {
            0 => Pattern::Wildcard,
            p => Pattern::Constant(Value::Int(i64::from(p))),
        }
    } else {
        Pattern::Wildcard
    };
    Punctuation::new(vec![join, payload])
}

/// Every record of the state — memory portions and purge buffer — by its
/// (unique) arrival instant.
fn pids(state: &JoinState) -> BTreeMap<u64, Option<PunctId>> {
    let mut out = BTreeMap::new();
    state.store.for_each_memory(|r| {
        out.insert(r.ats, r.pid);
    });
    for r in state.purge_buffer.iter().flatten() {
        out.insert(r.ats, r.pid);
    }
    out
}

fn counts(state: &JoinState) -> Vec<u64> {
    (0..state.index.next_id()).map(|id| state.index.count(PunctId(id))).collect()
}

/// What a build must produce: the full scan of the paper's Index-Build.
fn reference_build(state: &JoinState) -> (BTreeMap<u64, Option<PunctId>>, Vec<u64>) {
    let mut expected_pids = BTreeMap::new();
    let mut expected_counts = counts(state);
    let mut visit = |r: &PRecord| {
        let pid = r.pid.or_else(|| {
            let assigned = state.index.assign_pid_new(&r.tuple);
            if let Some(id) = assigned {
                expected_counts[id.0 as usize] += 1;
            }
            assigned
        });
        expected_pids.insert(r.ats, pid);
    };
    state.store.for_each_memory(&mut visit);
    state.purge_buffer.iter().flatten().for_each(&mut visit);
    (expected_pids, expected_counts)
}

fn check_build(state: &mut JoinState) -> Result<(), TestCaseError> {
    let (expected_pids, expected_counts) = reference_build(state);
    let mut work = Work::ZERO;
    state.index_build(&mut work);
    prop_assert_eq!(pids(state), expected_pids);
    prop_assert_eq!(counts(state), expected_counts);
    prop_assert_eq!(state.index.unindexed_punctuations(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn index_build_equals_the_full_scan(
        ops in proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
    ) {
        let mut state = JoinState::new(2, 0, BUCKETS, 4);
        let mut work = Work::ZERO;
        let mut instant = 0u64;
        for (op, a, b, c) in ops {
            instant += 1;
            match op {
                0..=5 => {
                    let tuple = punct_types::Tuple::of((key(a), Value::Int(i64::from(b % 3))));
                    state.store.insert(PRecord::arriving(tuple, instant));
                }
                6..=9 => {
                    state.index.insert(punctuation(a, b, c));
                }
                10 | 11 => {
                    // A keyed purge by the opposite stream; odd draws
                    // park the victims in the purge buffer instead.
                    let closed = Pattern::Constant(key(a));
                    purge_state(&mut state, [&closed], |_| b % 2 == 1, instant, &mut work);
                }
                12 => {
                    state.drop_purge_buffer(usize::from(a) % BUCKETS);
                }
                13 => {
                    let mut out = OpOutput::new();
                    propagate_side(&mut state, 0, 4, &mut out, &mut work);
                }
                _ => check_build(&mut state)?,
            }
        }
        check_build(&mut state)?;
    }
}
