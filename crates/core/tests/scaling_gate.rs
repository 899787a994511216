//! Scaling gate: punctuation bookkeeping costs O(new punctuations +
//! tuples they match), never O(punctuations ever received) or
//! O(resident state). One default-configured `PJoin` is driven over a
//! punctuation-heavy stream (two tuples per punctuation and side, keys
//! from a sliding window of 64 — the benchmark's `punct_heavy` shape)
//! of 4 k and of 64 k punctuations; the key window, and so the resident
//! state, is the same for both, so the work per element has to be too,
//! and so does the memory: the punctuation indexes hold the values still
//! open, not every punctuation received.

use pjoin::{PJoin, PJoinConfig};
use punct_types::{Punctuation, StreamElement, Timestamp, Tuple};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

const KEY_WINDOW: u64 = 64;
const TUPLES_PER_PUNCT: u64 = 2;

/// The stream, one step per closed key: each side sends its tuples with
/// keys from `[low, low + KEY_WINDOW)`, then closes key `low`. The two
/// sides' windows advance together, as in the benchmark.
fn stream(punctuations: u64) -> Vec<(Side, StreamElement)> {
    let mut out = Vec::new();
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    for low in 0..punctuations / 2 {
        for side in [Side::Left, Side::Right] {
            for _ in 0..TUPLES_PER_PUNCT {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let key = low + (lcg >> 33) % KEY_WINDOW;
                let tuple = Tuple::of((key as i64, out.len() as i64));
                out.push((side, StreamElement::Tuple(tuple)));
            }
        }
        for side in [Side::Left, Side::Right] {
            let close = Punctuation::close_value(2, 0, low as i64);
            out.push((side, StreamElement::Punctuation(close)));
        }
    }
    out
}

/// Runs the stream up to its end; returns the work done, the wall time
/// of each quarter of the elements and the punctuations each side's
/// index holds after the last element (before the end-of-stream flush).
fn run(input: &[(Side, StreamElement)]) -> (Work, [f64; 4], [usize; 2]) {
    let mut op = PJoin::new(PJoinConfig::new(2, 2));
    let mut out = OpOutput::new();
    let mut quarters = [0.0; 4];
    for (q, chunk) in input.chunks(input.len().div_ceil(4)).enumerate() {
        let start = std::time::Instant::now();
        for (i, (side, element)) in chunk.iter().enumerate() {
            op.on_element(*side, element.clone(), Timestamp(i as u64), &mut out);
            out.drain().for_each(drop);
        }
        quarters[q] = start.elapsed().as_secs_f64();
    }
    let held = [op.state_a().index.held(), op.state_b().index.held()];
    while op.on_end(Timestamp(input.len() as u64), &mut out) {}
    (op.take_work(), quarters, held)
}

#[test]
fn work_per_element_does_not_grow_with_stream_length() {
    let (short, long) = (stream(4_000), stream(64_000));
    let (work_short, _, _) = run(&short);
    let (work_long, _, _) = run(&long);
    for (name, short_count, long_count) in [
        ("index_evals", work_short.index_evals, work_long.index_evals),
        ("key_lookups", work_short.key_lookups, work_long.key_lookups),
    ] {
        let per_short = short_count as f64 / short.len() as f64;
        let per_long = long_count as f64 / long.len() as f64;
        assert!(per_short > 0.0, "{name}: the stream exercises it");
        let ratio = per_long / per_short;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{name} per element: {per_short:.3} over 4 k punctuations, \
             {per_long:.3} over 64 k (x{ratio:.3})"
        );
    }
    // Nor with the resident state: a build that visited every stored
    // tuple (a hundred or so here) for each batch of ten punctuations
    // would charge over 20 evaluations per element.
    let evals_per_element = work_long.index_evals as f64 / long.len() as f64;
    assert!(evals_per_element < 5.0, "index_evals per element: {evals_per_element:.2}");
}

/// Wall time is only meaningful optimized; the host is noisy, so the
/// best of three runs counts.
#[cfg(not(debug_assertions))]
#[test]
fn last_quarter_runs_as_fast_as_the_first() {
    let input = stream(64_000);
    let best = (0..3)
        .map(|_| {
            let (_, quarters, _) = run(&input);
            quarters[0] / quarters[3]
        })
        .fold(0.0, f64::max);
    assert!(
        best >= 0.6,
        "rate over the last quarter of the stream is {best:.2} of the rate over the first"
    );
}

/// A value both inputs closed leaves both punctuation sets, so what the
/// indexes hold follows the open key window, not the 32 k punctuations
/// each side sent.
#[test]
fn punctuations_held_follow_the_open_key_window() {
    let (_, _, held) = run(&stream(64_000));
    for (side, held) in ["left", "right"].into_iter().zip(held) {
        assert!(
            held as u64 <= 4 * KEY_WINDOW,
            "{side} index holds {held} punctuations after 32 000 closed values"
        );
    }
}
