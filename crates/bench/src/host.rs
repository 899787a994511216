//! Host introspection shared by every bench summary writer.
//!
//! Every `BENCH_*.json` header records the core count the numbers were
//! taken on, because several benches sweep a parallelism axis (shards,
//! cluster workers) whose wall-clock shape is meaningless on a
//! single-core host: the sweep then prices coordination overhead, not
//! speedup. Scaling benches additionally
//! stamp a `"cores_warning"` field and print a loud warning so a
//! single-core recording can never masquerade as a scaling result.

/// The machine's available parallelism (1 when it cannot be queried).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The warning stamped into scaling-bench summaries recorded on a
/// single core.
pub const SINGLE_CORE_WARNING: &str =
    "recorded on a single-core host: parallel sweeps measure coordination overhead, not speedup";

/// JSON header fields for a bench summary: `"cores": N`, plus a
/// `"cores_warning"` field when `scaling` is set and the host has a
/// single core. The fragment ends with a comma, ready to precede the
/// next header field.
pub fn cores_json_fields(scaling: bool) -> String {
    let cores = host_cores();
    if scaling && cores == 1 {
        format!("\"cores\": {cores},\n  \"cores_warning\": \"{SINGLE_CORE_WARNING}\",")
    } else {
        format!("\"cores\": {cores},")
    }
}

/// Prints a loud stderr banner when a scaling bench runs on a
/// single-core host. Returns whether the warning fired, so callers can
/// annotate their summaries.
pub fn warn_if_single_core(bench: &str) -> bool {
    let cores = host_cores();
    if cores > 1 {
        return false;
    }
    eprintln!(
        "\n\
         ================================================================\n\
         WARNING: {bench} is running on a single-core host.\n\
         Parallel sweeps below measure coordination overhead, NOT\n\
         speedup. Re-record on a multicore machine before citing any\n\
         scaling numbers. The summary JSON carries a cores_warning.\n\
         ================================================================\n"
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_fields_shape() {
        let plain = cores_json_fields(false);
        assert!(plain.starts_with("\"cores\": "));
        assert!(plain.ends_with(','));
        assert!(!plain.contains("cores_warning"));
        let scaling = cores_json_fields(true);
        assert_eq!(
            scaling.contains("cores_warning"),
            host_cores() == 1,
            "warning field appears exactly on single-core hosts"
        );
    }
}
