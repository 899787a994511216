//! The open-loop schedule and the latency bookkeeping both drivers share.
//!
//! Chunk `j` of `chunk` elements is due `j * chunk / rate` seconds after
//! the phase starts, whether or not the system keeps up. Latencies are
//! taken from the due time, so a stall also charges the inputs that had
//! to wait behind it.

use punct_types::{StreamElement, Timestamped};
use stream_sim::Side;

use crate::measure::{median, percentile};
use crate::workload::{closed_key, Input};

/// Latency samples are grouped by the half second they were received in;
/// a metric is the median over windows of the window's percentile, which
/// a few slow windows cannot move.
const WINDOW_NS: u64 = 500_000_000;
/// A window with fewer samples than this has no percentile of its own.
const MIN_WINDOW_SAMPLES: usize = 50;

#[derive(Clone, Copy)]
pub struct Schedule {
    pub chunk: usize,
    pub rate: f64,
}

impl Schedule {
    /// Due time of the chunk holding element `index`, ns from phase start.
    pub fn due_ns(&self, index: usize) -> u64 {
        ((index / self.chunk * self.chunk) as f64 / self.rate * 1e9) as u64
    }
}

/// A latency percentile pair with the sample counts behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub windows: usize,
}

pub struct LatencyLog {
    schedule: Schedule,
    /// Per join key: index of the later of the two input punctuations
    /// closing it (`u32::MAX` while a side has not closed it).
    closer: Vec<u32>,
    measured: Vec<bool>,
    right_offset: usize,
    limit_ns: u64,
    /// Outputs received within the limit, per pass.
    on_time: Vec<u64>,
    result: Vec<Vec<u32>>,
    punct: Vec<Vec<u32>>,
}

impl LatencyLog {
    pub fn new(
        schedule: Schedule,
        stream: &[Input],
        left_width: usize,
        limit_ms: f64,
    ) -> LatencyLog {
        let mut last = [Vec::<u32>::new(), Vec::<u32>::new()];
        for (i, (side, e)) in stream.iter().enumerate() {
            let Some(k) = e.item.as_punctuation().and_then(|p| closed_key(p, 0)) else {
                continue;
            };
            let per_side = &mut last[(*side == Side::Right) as usize];
            let k = usize::try_from(k).expect("workload keys are non-negative");
            if per_side.len() <= k {
                per_side.resize(k + 1, u32::MAX);
            }
            per_side[k] = i as u32;
        }
        let [left, right] = last;
        let closer: Vec<u32> = left
            .iter()
            .zip(&right)
            .map(|(&l, &r)| {
                if l == u32::MAX || r == u32::MAX {
                    u32::MAX
                } else {
                    l.max(r)
                }
            })
            .collect();
        LatencyLog {
            schedule,
            measured: vec![false; closer.len()],
            closer,
            right_offset: left_width,
            limit_ns: (limit_ms * 1e6) as u64,
            on_time: Vec::new(),
            result: Vec::new(),
            punct: Vec::new(),
        }
    }

    /// Starts another pass over the same stream: keys may be measured
    /// again, windows keep accumulating.
    pub fn next_pass(&mut self) {
        self.measured.fill(false);
        self.on_time.push(0);
    }

    /// Books outputs the driver received `now_ns` after `pass_start_ns`
    /// (both on the log's own clock, which only orders windows).
    pub fn record(
        &mut self,
        outputs: &[Timestamped<StreamElement>],
        pass_start_ns: u64,
        now_ns: u64,
    ) {
        let window = (now_ns / WINDOW_NS) as usize;
        if self.result.len() <= window {
            self.result.resize_with(window + 1, Vec::new);
            self.punct.resize_with(window + 1, Vec::new);
        }
        let since_start = now_ns - pass_start_ns;
        let as_sample =
            |due: u64| u32::try_from(since_start.saturating_sub(due)).unwrap_or(u32::MAX);
        let on_time = self.on_time.last_mut().expect("next_pass starts a pass");
        for o in outputs {
            match &o.item {
                StreamElement::Tuple(_) => {
                    let due = self.schedule.due_ns(o.ts.0 as usize);
                    *on_time += (since_start.saturating_sub(due) <= self.limit_ns) as u64;
                    self.result[window].push(as_sample(due));
                }
                StreamElement::Punctuation(p) => {
                    let key = closed_key(p, 0).or_else(|| closed_key(p, self.right_offset));
                    let Some(k) = key.and_then(|k| usize::try_from(k).ok()) else {
                        continue;
                    };
                    let Some(&closer) = self.closer.get(k) else {
                        continue;
                    };
                    if closer == u32::MAX || self.measured[k] {
                        continue;
                    }
                    let due = self.schedule.due_ns(closer as usize);
                    // One side's punctuation can propagate before the
                    // other side's has even arrived; the key closes with
                    // the first propagation after both are in.
                    if since_start >= due {
                        self.measured[k] = true;
                        *on_time += (since_start - due <= self.limit_ns) as u64;
                        self.punct[window].push(as_sample(due));
                    }
                }
            }
        }
    }

    /// Share of the outputs a pass owes (the joined tuples the oracle
    /// expects and one closing per key that both sides punctuate) that
    /// came within the latency limit of their due time: the median over
    /// the passes. An output that never came is a late one.
    pub fn on_time_share(&self, expected_tuples: u64) -> f64 {
        let closable = self.closer.iter().filter(|&&c| c != u32::MAX).count() as u64;
        let owed = (expected_tuples + closable) as f64;
        let mut shares: Vec<f64> = self.on_time.iter().map(|&n| n as f64 / owed).collect();
        median(&mut shares)
    }

    pub fn result_latency(&mut self) -> Latency {
        summarize(&mut self.result)
    }

    pub fn punct_latency(&mut self) -> Latency {
        summarize(&mut self.punct)
    }
}

fn summarize(windows: &mut [Vec<u32>]) -> Latency {
    let samples = windows.iter().map(Vec::len).sum();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for w in windows.iter_mut().filter(|w| w.len() >= MIN_WINDOW_SAMPLES) {
        p50s.push(percentile(w, 0.50) as f64 / 1e6);
        p99s.push(percentile(w, 0.99) as f64 / 1e6);
    }
    if p50s.is_empty() {
        // Too few samples anywhere: one percentile over all of them.
        let mut all: Vec<u32> = windows.iter().flatten().copied().collect();
        if all.is_empty() {
            return Latency::default();
        }
        p50s.push(percentile(&mut all, 0.50) as f64 / 1e6);
        p99s.push(percentile(&mut all, 0.99) as f64 / 1e6);
    }
    Latency {
        p50_ms: median(&mut p50s),
        p99_ms: median(&mut p99s),
        samples,
        windows: p50s.len(),
    }
}
