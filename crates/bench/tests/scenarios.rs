//! Each scenario row of the hot-path bench exercises the paths its name
//! promises.

use rtds_bench::bench_degraded_scenario;
use rtds_experiments::models::quick_predictor;
use rtds_experiments::scenario::run_scenario;

#[test]
fn degraded_row_drops_retransmits_and_restarts() {
    let m = run_scenario(&bench_degraded_scenario(), &quick_predictor()).metrics;
    assert!(m.messages_dropped > 0, "no drop");
    assert!(m.messages_duplicated > 0, "no duplicate");
    assert!(m.retransmits > 0, "no retransmission");
    assert_eq!(m.node_restarts, 1, "one crash–restart");
}
