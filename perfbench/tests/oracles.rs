//! Every workload's correctness checks on reduced inputs, traced and
//! untraced: no operation fails, every verdict matches its oracle, and
//! every metric the run prints is a finite number.

use ddws_perfbench::{run, Config, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_passes_its_checks_on_reduced_inputs() {
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed: 7,
                seconds: 0.0,
                trace,
                reduced: true,
            };
            let out = run(workload, &cfg).expect("known workload");
            let label = format!("{workload} (trace {trace})");
            assert!(out.failures.is_empty(), "{label}: {:?}", out.failures);
            assert!(out.wrong.is_empty(), "{label}: {:?}", out.wrong);
            assert!(!out.verdict_s.is_empty(), "{label}: no timed verdict");
            assert!(
                out.attempted > out.verdict_s.len() as u64,
                "{label}: no oracle check"
            );
            for (name, _, value, _) in out.end_to_end() {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{label}: {name} = {value}"
                );
            }
            assert!(out.report.is_some(), "{label}: no run report");
            assert_eq!(out.spans.is_some(), trace, "{label}: spans");
            for &(name, _) in PER_LAYER {
                assert!(out.layers.get(name).is_finite(), "{label}: {name}");
            }
            if trace {
                assert!(out.layers.get("trace.verdict_s") > 0.0, "{label}");
            }
        }
    }
}
