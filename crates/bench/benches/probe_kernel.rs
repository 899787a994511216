//! Tag-scan kernel microbench: `ProbeKernel::scan_tags` throughput per
//! kernel (scalar / SWAR / AVX2 where supported) and bucket occupancy.
//!
//! This is the storage layer's innermost probe loop — the scan that
//! finds every slot whose tag matches a probe tag inside a bucket's
//! packed tag array. The data-parallel kernels reduce 64-tag windows to
//! a `u64` match bitmask and pop hits with `trailing_zeros`, so their
//! advantage grows with occupancy; the acceptance bar for the rework is
//! at least 1.5x over the scalar reference at 10k+ occupancy for the
//! best kernel the host supports.
//!
//! The criterion sweep below is for interactive display; a final stdout
//! table reports the `pjoin_bench::kernel_sweep` speedups for quick
//! eyeballing. What the kernels buy end to end is `storage.probe_ns` in
//! the repository benchmark (`BENCHMARK.json`).

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use pjoin_bench::kernel_sweep::{build_tags, probe_kernel_sweep, OCCUPANCIES};
use spillstore::ProbeKernel;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_kernel");
    for &occupancy in &OCCUPANCIES {
        let (tags, probe) = build_tags(occupancy, 0x5EED + occupancy as u64);
        g.throughput(Throughput::Elements(occupancy as u64));
        let mut hits = Vec::with_capacity(occupancy / 64 + 8);
        for kernel in ProbeKernel::supported() {
            g.bench_with_input(
                BenchmarkId::new(kernel.name(), occupancy),
                &occupancy,
                |b, _| {
                    b.iter(|| {
                        hits.clear();
                        kernel.scan_tags(black_box(&tags), black_box(probe), &mut hits);
                        hits.len()
                    })
                },
            );
        }
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_kernels(&mut c);
    c.final_summary();

    // Smoke mode (`-- --test`, used by CI and `cargo test --benches`)
    // skips the recorded sweep; a real run prints it for eyeballing.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    println!("\nkernel sweep:");
    println!(
        "{:<8} {:>10} {:>16} {:>10}",
        "kernel", "occupancy", "tags/s", "vs scalar"
    );
    let rows = probe_kernel_sweep(20_000_000);
    for r in &rows {
        println!(
            "{:<8} {:>10} {:>16.0} {:>9.2}x",
            r.kernel, r.occupancy, r.tags_per_sec, r.speedup_vs_scalar
        );
    }
    let best_at_10k = rows
        .iter()
        .filter(|r| r.occupancy >= 10_000)
        .map(|r| r.speedup_vs_scalar)
        .fold(0.0f64, f64::max);
    println!(
        "\nbest kernel at >=10k occupancy: {best_at_10k:.2}x vs scalar (acceptance bar: 1.5x)"
    );
    if best_at_10k < 1.5 {
        eprintln!("WARNING: best kernel under the 1.5x bar on this host");
    }
}
