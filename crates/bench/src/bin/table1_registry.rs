//! Table 1: the example event-listener registry — lazy purge and
//! push-mode (count) propagation — printed from the live framework
//! configuration, then exercised on a short run to show each listed
//! component actually firing. The paper's lazy index build, coupled in
//! front of propagation, has no row: the punctuation index counts stored
//! tuples by join value as they come and go (DESIGN.md §7).

use pjoin::framework::Registry;
use pjoin::{PJoin, PJoinConfig, PropagationTrigger, PurgeStrategy};
use pjoin_bench::{paper_workload, run_operator};

fn main() {
    let registry = Registry::table1(10, 10);
    println!("== Table 1: event-listener registry (lazy purge / push-count) ==\n");
    print!("{registry}");

    // Exercise the configuration.
    let config = PJoinConfig {
        buckets: pjoin_bench::BUCKETS,
        purge: PurgeStrategy::Lazy { threshold: 10 },
        propagation: PropagationTrigger::PushCount { count: 10 },
        ..PJoinConfig::new(2, 2)
    };
    let mut op = PJoin::with_registry(config, registry);
    let workload = paper_workload(10_000, 10.0, 10.0, pjoin_bench::default_seed());
    let stats = run_operator(&mut op, &workload);

    println!("\n== registry exercised on 10k tuples/stream, punctuation inter-arrival 10 ==");
    let s = op.stats();
    println!("purge runs (PurgeThresholdReachEvent):        {}", s.purge_runs);
    println!("propagation runs (PropagateCountReachEvent):  {}", s.propagation_runs);
    println!("punctuations propagated:                      {}", s.puncts_propagated);
    println!("tuples purged:                                {}", s.tuples_purged);
    println!("result tuples:                                {}", stats.total_out_tuples);
    assert!(s.purge_runs > 0 && s.propagation_runs > 0, "registry must drive both paths");
}
