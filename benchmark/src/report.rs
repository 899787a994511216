//! The metric tables (the single place a metric's name, unit, direction
//! and bound are defined; `BENCHMARK.json` is printed from them) and the
//! result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workload::WORKLOADS;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// What a user of the join sees. Printed by every untraced run. The
/// time-based bounds are as wide as the driver allows because the
/// reference host slows down by a third for a run at a time (see
/// README.md); CPU time per element spreads past even that bound on the
/// cluster and is a per-layer metric.
pub const END_TO_END: &[MetricDef] = &[
    e2e("elems_per_s", "1/s", true, 0.25),
    e2e("on_time_share", "ratio", true, 0.15),
    e2e("state_mean_tuples", "tuples", false, 0.20),
    e2e("setup_s", "s", false, 0.25),
];

/// One layer each, named `<crate directory>.<what>`. Printed by every
/// traced run; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("streamgen.gen_s", "s", false),
    layer("streamgen.elems", "count", true),
    layer("streamgen.punct_share", "ratio", false),
    layer("streamgen.sched_lag_max_ms", "ms", false),
    layer("types.encode_ns_per_elem", "ns", false),
    layer("types.decode_ns_per_elem", "ns", false),
    layer("types.wire_bytes_per_elem", "bytes", false),
    layer("storage.insert_ns", "ns", false),
    layer("storage.probe_ns", "ns", false),
    layer("storage.extract_ns", "ns", false),
    layer("storage.resident_per_bucket", "tuples", false),
    layer("core.single_thread_elems_per_s", "1/s", true),
    layer("core.memory_join_s", "s", false),
    layer("core.purge_s", "s", false),
    layer("core.index_build_s", "s", false),
    layer("core.propagation_s", "s", false),
    layer("core.probe_cmps_per_elem", "count", false),
    layer("core.index_evals_per_elem", "count", false),
    layer("core.purge_scanned_per_elem", "count", false),
    layer("core.outputs_per_elem", "count", true),
    layer("core.dropped_on_fly_share", "ratio", true),
    layer("core.state_peak_tuples", "tuples", false),
    layer("core.late_vs_early_rate", "ratio", true),
    layer("exec.push_s", "s", false),
    layer("exec.recv_s", "s", false),
    layer("exec.finish_s", "s", false),
    layer("exec.speedup_vs_core", "ratio", true),
    layer("exec.shard_imbalance", "ratio", false),
    layer("exec.aligner_acq_per_elem", "count", false),
    layer("exec.allocs_per_elem", "count", false),
    layer("exec.peak_heap_mb", "MB", false),
    layer("exec.backlog_max_elems", "count", false),
    layer("exec.late_vs_early_rate", "ratio", true),
    layer("exec.cpu_us_per_elem", "us", false),
    layer("exec.result_latency_p50_ms", "ms", false),
    layer("exec.result_latency_p99_ms", "ms", false),
    layer("exec.punct_latency_p50_ms", "ms", false),
    layer("exec.punct_latency_p99_ms", "ms", false),
    layer("net.elems_per_s", "1/s", true),
    layer("net.tax_vs_exec", "ratio", false),
    layer("net.wire_bytes_per_elem", "bytes", false),
    layer("net.credit_stalls_per_kelem", "count", false),
    layer("net.ingest_stalls_per_kelem", "count", false),
    layer("cluster.push_s", "s", false),
    layer("cluster.poll_s", "s", false),
    layer("cluster.finish_s", "s", false),
    layer("cluster.poll_ms_per_call", "ms", false),
    layer("cluster.empty_poll_share", "ratio", false),
    layer("cluster.cpu_busy_share", "ratio", true),
    layer("cluster.tax_vs_net", "ratio", false),
    layer("cluster.span_route_to_ingest_ms", "ms", false),
    layer("cluster.span_ingest_to_purge_ms", "ms", false),
    layer("cluster.span_purge_to_sink_ms", "ms", false),
    layer("cluster.span_sink_to_observe_ms", "ms", false),
    layer("cluster.span_observe_to_merge_ms", "ms", false),
    layer("cluster.sender_reconnects", "count", false),
    layer("cluster.cpu_us_per_elem", "us", false),
    layer("cluster.result_latency_p50_ms", "ms", false),
    layer("cluster.result_latency_p99_ms", "ms", false),
    layer("cluster.punct_latency_p50_ms", "ms", false),
    layer("cluster.punct_latency_p99_ms", "ms", false),
    layer("durable.commit_ms", "ms", false),
    layer("durable.delta_commit_ms", "ms", false),
    layer("durable.load_ms", "ms", false),
    layer("durable.epoch_bytes", "bytes", false),
    layer("trace.overhead_pct", "%", false),
];

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 28;

/// The metric values of one run, by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        self.values.insert(name, value);
    }

    /// Sets the per-layer metric `<layer>.<name>`.
    pub fn set_in(&mut self, layer: &str, name: &str, value: f64) {
        let full = format!("{layer}.{name}");
        let def = PER_LAYER.iter().find(|d| d.name == full);
        self.set(
            def.unwrap_or_else(|| panic!("no per-layer metric {full}"))
                .name,
            value,
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// Sets every per-layer metric under `prefix` that has no value to
    /// 0: the workload does not pass through that layer.
    pub fn bypass(&mut self, prefix: &str) {
        for d in PER_LAYER.iter().filter(|d| d.name.starts_with(prefix)) {
            self.values.entry(d.name).or_insert(0.0);
        }
    }

    /// Prints `workload.metric = value unit` for each metric of `defs`.
    pub fn print(&self, workload: &str, defs: &[MetricDef]) {
        for d in defs {
            println!("{workload}.{} = {} {}", d.name, self.get(d.name), d.unit);
        }
    }

    /// The result line: one JSON object, the last line of a run's output.
    pub fn result_line(&self, defs: &[MetricDef], attempted: u64, failed: u64) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, d) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.get(d.name);
            write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("write to string");
        }
        line.push_str("}}");
        line
    }
}

/// Reads back the metric values of a result line this program printed.
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut values = BTreeMap::new();
    for entry in metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = entry[0].rsplit('"').next()?;
        let value = entry[1].split(',').next()?.parse().ok()?;
        values.insert(name.to_string(), value);
    }
    Some((correct, values))
}

/// The contents of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    // One JSON object per line, comma-separated, indented as list items.
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let better = |d: &MetricDef| {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let metric = |d: &MetricDef| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            better(d)
        )
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| format!("{{{}, \"bound\": {}}}", metric(d), d.bound))
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| format!("{{{}}}", metric(d)))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}
