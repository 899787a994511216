//! Property: the punctuation index's count of stored tuples per join
//! value, and the propagable set it derives, never drift from the state.
//! Over random interleavings of tuple inserts and parks, punctuations of
//! every shape, purges (keyed and scanning, with and without a move to
//! the purge buffer), purge-buffer drops, spills, disk joins, window
//! expiry and propagations with the forgetting of closed pairs, after
//! every step and on each side:
//!
//! * the per-value counts equal a recount of memory, disk and purge
//!   buffer;
//! * the propagable punctuations are exactly the live ones whose
//!   join-attribute pattern no stored tuple's join value satisfies, in
//!   arrival order.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pjoin::components::{propagate_side, purge_state, resolve_bucket};
use pjoin::dedup::DiskDiskMark;
use pjoin::{JoinState, PRecord};
use punct_types::{Pattern, PunctId, Punctuation, Tuple, Value};
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

/// The join values of every stored tuple: memory, disk and purge buffer.
fn stored_values(state: &mut JoinState) -> Vec<Value> {
    let mut values = Vec::new();
    state
        .store
        .for_each_memory(|r| values.extend(r.tuple.get(0).cloned()));
    for bucket in 0..BUCKETS {
        let (disk, _) = state.store.read_disk(bucket);
        values.extend(disk.iter().filter_map(|r| r.tuple.get(0).cloned()));
    }
    values.extend(
        state
            .purge_buffer
            .iter()
            .flatten()
            .filter_map(|r| r.tuple.get(0).cloned()),
    );
    values
}

fn check(state: &mut JoinState) -> Result<(), TestCaseError> {
    let values = stored_values(state);
    // Keyed by `Value`'s exact equality: `Int(3)` and `Float(3.0)` apart.
    let mut recount: HashMap<Value, u32> = HashMap::new();
    for v in &values {
        *recount.entry(v.clone()).or_default() += 1;
    }
    let counts: HashMap<Value, u32> = state.index.counts().map(|(v, n)| (v.clone(), n)).collect();
    prop_assert_eq!(counts, recount);
    let expected: Vec<PunctId> = state
        .index
        .live_ids()
        .into_iter()
        .filter(|&id| {
            let p = state.index.get(id).expect("live ids resolve");
            let join = p.pattern(0).unwrap_or(&Pattern::Wildcard);
            !values.iter().any(|v| join.matches(v))
        })
        .collect();
    prop_assert_eq!(state.index.propagable().collect::<Vec<_>>(), expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn value_counts_and_the_propagable_set_match_a_recount(
        ops in proptest::collection::vec((0u8..20, any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
    ) {
        let mut sides = [JoinState::new(2, 0, BUCKETS, 2), JoinState::new(2, 0, BUCKETS, 2)];
        let mut marks: Vec<Option<DiskDiskMark>> = vec![None; BUCKETS];
        let mut work = Work::ZERO;
        let mut instant = 0u64;
        for (op, a, b, c) in ops {
            instant += 1;
            let side = usize::from(c % 2);
            let bucket = usize::from(a) % BUCKETS;
            let [left, right] = &mut sides;
            let (own, other) = if side == 0 { (left, right) } else { (right, left) };
            match op {
                0..=4 => {
                    let tuple = Tuple::of((key(a), Value::Int(i64::from(b % 3))));
                    own.insert(PRecord::arriving_at(tuple, instant, instant));
                }
                5 => {
                    // The on-the-fly park of an arriving covered tuple.
                    let tuple = Tuple::of((key(a), Value::Int(i64::from(b % 3))));
                    let mut rec = PRecord::arriving_at(tuple, instant, instant);
                    rec.dts = instant + 1;
                    let bucket = own.store.bucket_index(&key(a));
                    own.park_record(bucket, rec);
                }
                6..=8 => {
                    own.index.insert(punctuation(a, b, c / 2), 0);
                }
                9 | 10 => {
                    // A purge by the other stream's pattern: keyed for a
                    // constant or a list, a scan otherwise. Victims whose
                    // bucket the other side holds on disk are buffered.
                    let closed = punctuation(a, b, 0).pattern(0).cloned().expect("width 2");
                    let has_disk = |k: usize| other.store.bucket(k).has_disk_portion();
                    purge_state(own, [&closed], has_disk, instant, &mut work);
                }
                11 => {
                    own.drop_purge_buffer(bucket);
                }
                12 | 13 => {
                    own.spill_bucket(bucket, instant, &mut work);
                }
                14 => {
                    let mut out = OpOutput::new();
                    let [left, right] = &mut sides;
                    resolve_bucket(bucket, left, right, &mut marks[bucket], instant, &mut out, &mut work);
                }
                15 => {
                    // Window expiry: the tuples older than `b` instants.
                    own.expire_bucket(bucket, instant.saturating_sub(u64::from(b % 16)), &mut work);
                }
                _ => {
                    let mut out = OpOutput::new();
                    let mut ids = Vec::new();
                    propagate_side(own, 0, 4, &mut out, &mut work, &mut ids);
                    for id in ids {
                        if let Some(pair) = own.index.closes(id).and_then(|v| other.index.closer_of(v)) {
                            own.index.forget(id);
                            other.index.forget(pair);
                        }
                    }
                }
            }
            for state in &mut sides {
                check(state)?;
            }
        }
    }
}
