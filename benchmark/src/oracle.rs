//! The oracle: one single-threaded `PJoin` over the same stream. Its
//! output multiset is what every workload must reproduce, and its own
//! cost is the `core` layer's measurement.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::time::Instant;

use pjoin::framework::FrameworkProfile;
use pjoin::{PJoin, PJoinConfig, PJoinStats};
use punct_types::{Punctuation, StreamElement, Timestamp, Tuple};
use stream_sim::{BinaryStreamOp, OpOutput, Side, Work};

use crate::workload::Input;

/// An order-independent digest of an output stream: joined tuples as a
/// count plus a wrapping sum of per-tuple hashes (a multiset digest),
/// punctuations as an exact multiset so that "exactly once" is checked.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digest {
    pub tuples: u64,
    tuple_sum: u64,
    puncts: HashMap<Punctuation, u32>,
}

impl Digest {
    pub fn add(&mut self, element: &StreamElement) {
        match element {
            StreamElement::Tuple(t) => {
                self.tuples += 1;
                let h = BuildHasherDefault::<DefaultHasher>::default().hash_one(t);
                self.tuple_sum = self.tuple_sum.wrapping_add(h);
            }
            StreamElement::Punctuation(p) => *self.puncts.entry(p.clone()).or_default() += 1,
        }
    }

    pub fn puncts(&self) -> u64 {
        self.puncts.values().map(|&n| n as u64).sum()
    }

    pub fn elements(&self) -> u64 {
        self.tuples + self.puncts()
    }

    /// Output elements of `expected` that `self` misses, has extra or has
    /// duplicated, after printing what differs. A tuple digest that
    /// differs at equal counts fails the whole stream: the sum cannot say
    /// how many tuples are wrong.
    pub fn failed_against(&self, expected: &Digest, what: &str) -> u64 {
        let mut failed = self.tuples.abs_diff(expected.tuples);
        if failed > 0 {
            eprintln!(
                "{what}: {} joined tuples, oracle has {}",
                self.tuples, expected.tuples
            );
        } else if self.tuple_sum != expected.tuple_sum {
            eprintln!(
                "{what}: joined-tuple digest {:#x} differs from the oracle's {:#x}",
                self.tuple_sum, expected.tuple_sum
            );
            return expected.elements();
        }
        let mut shown = 0;
        let mut differ = |p: &Punctuation, got: u32, want: u32| {
            if shown < 10 {
                eprintln!("{what}: punctuation {p} seen {got}x, oracle {want}x");
                shown += 1;
            }
            got.abs_diff(want) as u64
        };
        for (p, &want) in &expected.puncts {
            let got = self.puncts.get(p).copied().unwrap_or(0);
            if got != want {
                failed += differ(p, got, want);
            }
        }
        for (p, &got) in &self.puncts {
            if !expected.puncts.contains_key(p) {
                failed += differ(p, got, 0);
            }
        }
        failed
    }
}

/// One record of the oracle's join state at the snapshot point.
pub struct Resident {
    pub side: Side,
    pub arrival_us: u64,
    pub tuple: Tuple,
}

/// What the oracle produced and what producing it cost.
pub struct OracleRun {
    pub digest: Digest,
    pub seconds: f64,
    /// Seconds spent on each quarter of the stream, in order.
    pub quarter_seconds: [f64; 4],
    pub work: Work,
    pub stats: PJoinStats,
    /// Empty unless `config` has tracing on.
    pub profile: FrameworkProfile,
    pub state_peak: usize,
    /// The join state after `snapshot_at` elements, if asked for.
    pub resident: Vec<Resident>,
}

/// Runs the oracle. With `snapshot_at`, the state is exported (outside
/// the quarter timings' interest: callers that time do not snapshot).
pub fn run(config: PJoinConfig, stream: &[Input], snapshot_at: Option<usize>) -> OracleRun {
    // Cloned up front, like the drivers do, so that the timed loop pays
    // for the operator and not for building its input.
    let inputs = stream.to_vec();
    let n = inputs.len();
    let mut join = PJoin::new(config);
    let mut out = OpOutput::new();
    let mut digest = Digest::default();
    let mut state_peak = 0usize;
    let mut quarter_seconds = [0.0; 4];
    let start = Instant::now();
    let mut quarter_start = start;
    let mut quarter = 0;
    let mut resident = Vec::new();
    for (i, (side, e)) in inputs.into_iter().enumerate() {
        if snapshot_at == Some(i) {
            for side in [Side::Left, Side::Right] {
                let records = join
                    .export_records(side)
                    .expect("workloads keep state in memory");
                resident.extend(records.into_iter().map(|(arrival_us, tuple)| Resident {
                    side,
                    arrival_us,
                    tuple,
                }));
            }
        }
        join.on_element(side, e.item, e.ts, &mut out);
        for o in out.drain() {
            digest.add(&o);
        }
        if i % 64 == 0 {
            state_peak = state_peak.max(join.state_tuples());
        }
        if i + 1 == (quarter + 1) * n / 4 && quarter < 3 {
            let now = Instant::now();
            quarter_seconds[quarter] = (now - quarter_start).as_secs_f64();
            quarter_start = now;
            quarter += 1;
        }
    }
    quarter_seconds[3] = quarter_start.elapsed().as_secs_f64();
    let end = Timestamp(n as u64);
    while join.on_end(end, &mut out) {}
    for o in out.drain() {
        digest.add(&o);
    }
    let seconds = start.elapsed().as_secs_f64();
    OracleRun {
        digest,
        seconds,
        quarter_seconds,
        work: join.take_work(),
        stats: *join.stats(),
        profile: *join.profile(),
        state_peak,
        resident,
    }
}
