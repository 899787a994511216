//! # pjoin-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§4). One binary per figure regenerates its data:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_registry` | Table 1 (event-listener registry) |
//! | `fig05_state_pjoin_vs_xjoin` | Fig. 5 |
//! | `fig06_state_vs_punct_rate` | Fig. 6 |
//! | `fig07_output_rate_pjoin_vs_xjoin` | Fig. 7 |
//! | `fig08_purge_memory` | Fig. 8 |
//! | `fig09_purge_output` | Fig. 9 |
//! | `fig10_asymmetric_state` | Fig. 10 |
//! | `fig11_asymmetric_output` | Fig. 11 |
//! | `fig12_asymmetric_vs_xjoin_output` | Fig. 12 |
//! | `fig13_asymmetric_vs_xjoin_state` | Fig. 13 |
//! | `fig14_propagation` | Fig. 14 |
//!
//! Each binary prints an ASCII chart and a summary table, and writes
//! `results/figNN_{long,wide}.csv`. Run them in release mode:
//!
//! ```text
//! cargo run --release -p pjoin-bench --bin fig05_state_pjoin_vs_xjoin
//! ```
//!
//! Environment knobs: `PJOIN_BENCH_TUPLES` (tuples per stream, default
//! 40000), `PJOIN_BENCH_SEED` (default 42).

pub mod harness;
pub mod kernel_sweep;

pub use harness::*;
