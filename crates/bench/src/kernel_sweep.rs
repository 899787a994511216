//! Tag-scan kernel sweep: throughput of `ProbeKernel::scan_tags` per
//! kernel and bucket occupancy.
//!
//! Driven by the `probe_kernel` criterion bench (interactive display
//! and smoke testing), which prints the sweep as a table.
//!
//! The measured operation is the storage hot loop: scanning a bucket's
//! packed tag array for slots whose tag equals the probe tag. Arrays
//! are synthesized to look like live buckets — mostly occupied slots
//! with a sprinkle of `TAG_FREE` holes and `TAG_UNKEYED` residents —
//! and the probe tag matches about one slot in 256, so the bit-popping
//! path is exercised without dominating the scan.

use std::time::Instant;

use spillstore::{tag_of_hash, ProbeKernel, TAG_FREE, TAG_UNKEYED};

/// Swept occupancies (slots per scanned tag array). The acceptance bar
/// for the kernels is ≥ 1.5x over scalar at the 10k row and above.
pub const OCCUPANCIES: [usize; 3] = [1_000, 10_000, 100_000];

/// Fraction of slots holding the probed tag (one in this many).
const MATCH_ONE_IN: u64 = 256;
/// Fraction of slots left as `TAG_FREE` holes.
const HOLE_ONE_IN: u64 = 32;
/// Fraction of slots holding the unkeyed sentinel.
const UNKEYED_ONE_IN: u64 = 64;

/// One measured cell of the sweep.
pub struct KernelRow {
    /// Kernel name (`scalar`, `swar`, `avx2`).
    pub kernel: &'static str,
    /// Slots in the scanned tag array.
    pub occupancy: usize,
    /// Tags scanned per second (array length x repetitions / elapsed).
    pub tags_per_sec: f64,
    /// Throughput relative to the scalar kernel at the same occupancy.
    pub speedup_vs_scalar: f64,
}

/// Deterministic xorshift64* — keeps the sweep reproducible without
/// depending on a specific RNG crate API.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A bucket-shaped tag array: `occupancy` slots, mostly live distinct
/// tags, with holes, unkeyed residents and a ~1/256 sprinkle of the
/// probed tag. Returns the array and the probe tag.
pub fn build_tags(occupancy: usize, seed: u64) -> (Vec<u64>, u64) {
    let probe = tag_of_hash(Some(0xDEAD_BEEF_F00D_u64));
    let mut state = seed | 1;
    let tags = (0..occupancy)
        .map(|_| {
            let r = next(&mut state);
            let (matched, hole, unkeyed) = (r % MATCH_ONE_IN, r % HOLE_ONE_IN, r % UNKEYED_ONE_IN);
            if matched == 0 {
                probe
            } else if hole == 1 {
                TAG_FREE
            } else if unkeyed == 2 {
                TAG_UNKEYED
            } else {
                tag_of_hash(Some(r))
            }
        })
        .collect();
    (tags, probe)
}

/// Tags scanned per second for one kernel over one array: repeats the
/// scan until ~`target_tags` tags have been visited, three rounds, best
/// round wins (minimum-noise estimator, standard for microbenches).
pub fn scan_throughput(kernel: ProbeKernel, tags: &[u64], probe: u64, target_tags: usize) -> f64 {
    let reps = (target_tags / tags.len()).max(1);
    let mut hits = Vec::with_capacity(tags.len() / MATCH_ONE_IN as usize + 8);
    // Warm-up: fault pages, settle the branch predictor.
    kernel.scan_tags(tags, probe, &mut hits);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut total_hits = 0usize;
        for _ in 0..reps {
            hits.clear();
            kernel.scan_tags(tags, probe, &mut hits);
            total_hits += hits.len();
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(total_hits);
        best = best.max((tags.len() * reps) as f64 / secs);
    }
    best
}

/// The full sweep: every kernel the host supports x [`OCCUPANCIES`].
/// `target_tags` bounds each cell's work (tags visited per round);
/// 20 million gives stable numbers in well under a second per cell,
/// smaller values make a fast smoke pass.
pub fn probe_kernel_sweep(target_tags: usize) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for &occupancy in &OCCUPANCIES {
        let (tags, probe) = build_tags(occupancy, 0x5EED + occupancy as u64);
        let scalar = scan_throughput(ProbeKernel::Scalar, &tags, probe, target_tags);
        for kernel in ProbeKernel::supported() {
            let tps = if kernel == ProbeKernel::Scalar {
                scalar
            } else {
                scan_throughput(kernel, &tags, probe, target_tags)
            };
            rows.push(KernelRow {
                kernel: kernel.name(),
                occupancy,
                tags_per_sec: tps,
                speedup_vs_scalar: if scalar > 0.0 { tps / scalar } else { 0.0 },
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_arrays_are_bucket_shaped() {
        let (tags, probe) = build_tags(10_000, 1);
        assert_eq!(tags.len(), 10_000);
        let matches = tags.iter().filter(|&&t| t == probe).count();
        assert!(matches > 0, "probe tag must appear");
        assert!(matches < tags.len() / 64, "matches stay sparse");
        assert!(tags.contains(&TAG_FREE));
        assert!(tags.contains(&TAG_UNKEYED));
        // Deterministic across calls.
        assert_eq!(tags, build_tags(10_000, 1).0);
    }

    #[test]
    fn sweep_covers_all_supported_kernels() {
        // A tiny target keeps this a smoke test, not a benchmark.
        let rows = probe_kernel_sweep(OCCUPANCIES[0]);
        let kernels = ProbeKernel::supported().len();
        assert_eq!(rows.len(), kernels * OCCUPANCIES.len());
        assert!(rows.iter().all(|r| r.tags_per_sec > 0.0));
        assert!(rows.iter().any(|r| r.kernel == "scalar"));
    }
}
