//! The four workloads: what each streams, how big, how fast, and why.
//!
//! Every input comes from `--seed`; nothing else is random. Elements are
//! re-stamped `ts = element index`, so an output's timestamp names the
//! newest input that produced it (the drivers turn it into a due time).

use pjoin::PJoinConfig;
use punct_cluster::JoinSpec;
use punct_types::{Pattern, Punctuation, StreamElement, Timestamp, Timestamped, Tuple, Value};
use stream_sim::Side;
use streamgen::{generate_pair, PunctScheme, StreamConfig};

/// One input element with the side it arrives on.
pub type Input = (Side, Timestamped<StreamElement>);

/// Which system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `punct_exec::ShardedPJoin` in this process.
    Exec,
    /// `punct_cluster::Cluster` with in-thread workers over loopback TCP.
    Cluster,
}

/// How a workload's stream is built.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `streamgen::generate_pair`, constant punctuation per key.
    Pair {
        tuples_per_side: usize,
        key_window: u64,
        punct_every: f64,
    },
    /// The first `elements` elements of another pair stream.
    PairPrefix {
        tuples_per_side: usize,
        key_window: u64,
        punct_every: f64,
        elements: usize,
    },
    /// The auction shape (see [`auction`]).
    Auction {
        items: usize,
        open_at_once: usize,
        bids_per_item: usize,
    },
}

/// A workload definition. The sizes are part of the benchmark: a change
/// to them re-bases every number.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub target: Target,
    pub shape: Shape,
    /// Open-loop rate of the paced phase, elements per second.
    pub paced_rate: f64,
    /// An output (a joined tuple, or the closing of a key) is on time if
    /// the driver has it this long after its input was due, at most:
    /// several times the median latency on a quiet host in process, twice
    /// through the cluster (where the slowest output then takes 65 ms), so
    /// that a dip in host speed keeps outputs on time while a backlog, a
    /// stall or a lost output does not.
    pub latency_limit_ms: f64,
}

/// Elements of the `match_heavy` stream that `cluster_loopback` replays.
const CLUSTER_PREFIX: usize = 10_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "match_heavy",
        why: "about 10 joined tuples per input: probe, Tuple::concat, merge and the consumer do the work; purge, index and propagation are a small share",
        target: Target::Exec,
        shape: Shape::Pair { tuples_per_side: 200_000, key_window: 16, punct_every: 20.0 },
        paced_rate: 100_000.0,
        latency_limit_ms: 5.0,
    },
    Workload {
        name: "punct_heavy",
        why: "one punctuation per 2 tuples and about 1 output per input: purge, propagation, index build and the aligner dominate, and cost grows with stream length",
        target: Target::Exec,
        shape: Shape::Pair { tuples_per_side: 100_000, key_window: 64, punct_every: 2.0 },
        paced_rate: 60_000.0,
        latency_limit_ms: 5.0,
    },
    Workload {
        name: "large_state",
        why: "auction shape with tens of thousands of resident tuples and bids skewed to closing items: tag scan, bucket layout and cache behaviour dominate",
        target: Target::Exec,
        shape: Shape::Auction { items: 48_000, open_at_once: 32_000, bids_per_item: 8 },
        paced_rate: 80_000.0,
        latency_limit_ms: 5.0,
    },
    Workload {
        name: "cluster_loopback",
        why: "a prefix of the match_heavy stream through a 2-worker cluster over loopback TCP: wire codec, frames and credit, coordinator routing, worker loop, sink",
        target: Target::Cluster,
        shape: Shape::PairPrefix {
            tuples_per_side: 200_000,
            key_window: 16,
            punct_every: 20.0,
            elements: CLUSTER_PREFIX,
        },
        paced_rate: 2_500.0,
        latency_limit_ms: 80.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Tuple widths `(left, right)`.
    pub fn widths(&self) -> (usize, usize) {
        match self.shape {
            Shape::Auction { .. } => (3, 3),
            _ => (2, 2),
        }
    }

    /// The join configuration the system under test runs, which is also
    /// the oracle's: the executor's default, or the cluster spec's pins.
    pub fn join_config(&self) -> PJoinConfig {
        let (wa, wb) = self.widths();
        match self.target {
            Target::Exec => PJoinConfig::new(wa, wb),
            Target::Cluster => JoinSpec::new(wa, wb).pjoin_config(),
        }
    }

    /// Builds the stream. `scale` divides the sizes (1 = full size).
    pub fn generate(&self, seed: u64, scale: usize) -> Vec<Input> {
        let scale = scale.max(1);
        let mut stream = match self.shape {
            Shape::Pair {
                tuples_per_side,
                key_window,
                punct_every,
            } => pair(seed, tuples_per_side / scale, key_window, punct_every),
            Shape::PairPrefix {
                tuples_per_side,
                key_window,
                punct_every,
                elements,
            } => {
                // The prefix only needs as many tuples as it has elements.
                let tuples = (tuples_per_side / scale).min(elements);
                let mut s = pair(seed, tuples, key_window, punct_every);
                s.truncate(elements / scale);
                s
            }
            Shape::Auction {
                items,
                open_at_once,
                bids_per_item,
            } => auction(seed, items / scale, open_at_once / scale, bids_per_item),
        };
        restamp(&mut stream);
        stream
    }

    /// The stream the `net` lane replays: the first `max` elements of
    /// `stream`, or for a prefix workload of the stream it is a prefix of.
    pub fn net_lane_stream(
        &self,
        seed: u64,
        scale: usize,
        stream: &[Input],
        max: usize,
    ) -> Vec<Input> {
        let max = max / scale.max(1);
        match self.shape {
            Shape::PairPrefix {
                key_window,
                punct_every,
                elements,
                ..
            } if elements < max => {
                let mut longer = pair(seed, max, key_window, punct_every);
                longer.truncate(max);
                restamp(&mut longer);
                longer
            }
            _ => stream[..stream.len().min(max)].to_vec(),
        }
    }
}

fn restamp(stream: &mut [Input]) {
    for (i, (_, e)) in stream.iter_mut().enumerate() {
        e.ts = Timestamp(i as u64);
    }
}

fn pair(seed: u64, tuples: usize, key_window: u64, punct_every: f64) -> Vec<Input> {
    let cfg = StreamConfig {
        tuples,
        key_window,
        punct_scheme: PunctScheme::ConstantPerKey,
        punct_mean_tuples: punct_every,
        payload_attrs: 1,
        seed,
        ..StreamConfig::default()
    };
    let (a, b) = generate_pair(&cfg, punct_every, punct_every);
    interleave_by_progress(a.elements, b.elements)
}

/// Merges the two sides so that their key windows advance together: the
/// next element comes from the side that has closed fewer keys (the left
/// one on a tie). `streamgen::interleave_sides` merges by arrival time,
/// and since each side draws its own punctuation gaps the two windows
/// then drift apart like a random walk; how far decides state size and
/// match rate, so every number would hang on the seed rather than on
/// the system.
fn interleave_by_progress(
    left: Vec<Timestamped<StreamElement>>,
    right: Vec<Timestamped<StreamElement>>,
) -> Vec<Input> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut left, mut right) = (left.into_iter().peekable(), right.into_iter().peekable());
    let (mut closed_left, mut closed_right) = (0u64, 0u64);
    loop {
        let take_left = match (left.peek(), right.peek()) {
            (Some(_), Some(_)) => closed_left <= closed_right,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return out,
        };
        let (side, e, closed) = if take_left {
            (Side::Left, left.next(), &mut closed_left)
        } else {
            (Side::Right, right.next(), &mut closed_right)
        };
        let e = e.expect("peeked");
        *closed += e.item.is_punctuation() as u64;
        out.push((side, e));
    }
}

/// SplitMix64: the benchmark's only source of randomness besides
/// `streamgen`, which is seeded from the same `--seed`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The auction shape (`streamgen` has no skew). One item opens per slot:
/// an Open tuple `(item, seller, reserve)` and at once the Open-side
/// punctuation closing that item (item ids are unique). Each slot also
/// carries `bids_per_item` Bid tuples `(item, bidder, amount)` on items
/// still open, of age `open - 1 - floor(u^3 * open)` slots (`open` =
/// items open now, at most `span`): bids pile onto the items nearest
/// closing. The Bid-side punctuation closes an
/// item `span` slots after it opened. So the Open side holds about
/// `span` resident tuples that every bid probes, and every bid is
/// dropped on the fly because its item's Open punctuation already came.
fn auction(seed: u64, items: usize, span: usize, bids_per_item: usize) -> Vec<Input> {
    let span = span.max(1);
    let mut rng = SplitMix(seed ^ 0x00A0_C710);
    let mut out = Vec::with_capacity(items * (bids_per_item + 3));
    let ts = Timestamp(0);
    let mut push = |side: Side, e: StreamElement| out.push((side, Timestamped::new(ts, e)));
    for slot in 0..items {
        let item = slot as i64;
        let seller = (rng.next() % 10_000) as i64;
        let reserve = (rng.next() % 1_000) as i64;
        push(Side::Left, Tuple::of((item, seller, reserve)).into());
        push(Side::Left, Punctuation::close_value(3, 0, item).into());
        for _ in 0..bids_per_item {
            let open = (slot + 1).min(span);
            let u = rng.unit();
            let age = open - 1 - ((u * u * u) * open as f64) as usize;
            let target = (slot - age) as i64;
            let bidder = (rng.next() % 100_000) as i64;
            let amount = (rng.next() % 5_000) as i64;
            push(Side::Right, Tuple::of((target, bidder, amount)).into());
        }
        if slot >= span {
            let closed = (slot - span) as i64;
            push(Side::Right, Punctuation::close_value(3, 0, closed).into());
        }
    }
    out
}

/// The join key a constant punctuation closes, if it is one on `attr`.
pub fn closed_key(p: &Punctuation, attr: usize) -> Option<i64> {
    match p.pattern(attr)? {
        Pattern::Constant(Value::Int(k)) => Some(*k),
        _ => None,
    }
}
