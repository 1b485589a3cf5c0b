//! The ddws benchmark: three workloads timed from outside the program.
//!
//! * `bank_loan` — one deep search: the paper's Figure-1 composition at
//!   three customers, one valuation, sequential engine.
//! * `valuations` — thousands of tiny searches: the approvals property over
//!   1,331 valuations on two valuation shards.
//! * `served` — service overhead: jobs sent as wire frames to an in-process
//!   [`ddws_server::Server`] whose quanta the load thread steps itself.
//!
//! Each run sets up several times, times verdicts for the requested
//! seconds, then checks the verdicts against oracles in an untimed pass.
//! End-to-end metrics come from untraced runs; per-layer metrics from a
//! traced run that records a span around every call into the program and
//! reads the `RunReport` each call returns.

pub mod alloc;
mod cpu;
mod direct;
mod served;
pub mod stats;
mod trace;

use ddws_telemetry::{Json, RunReport};
use std::collections::BTreeMap;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["bank_loan", "valuations", "served"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("verdict_p90_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("cpu_per_verdict_s", "s"),
    ("peak_heap_mb", "MB"),
    ("alloc_mb_per_verdict", "MB"),
    ("allocs_per_verdict", "count"),
    ("states_per_verdict", "states"),
];

/// Per-layer metrics: name and unit. A layer a workload never calls
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.verdict_s", "s"),
    ("logic.parse_s", "s"),
    ("verifier.check_s", "s"),
    ("verifier.domain_s", "s"),
    ("verifier.valuations", "count"),
    ("verifier.unattributed_s", "s"),
    ("verifier.cex_s", "s"),
    ("automata.lasso_s", "s"),
    ("automata.nba_s", "s"),
    ("automata.nba_cache_hit_ratio", "ratio"),
    ("automata.states_visited", "states"),
    ("automata.transitions", "count"),
    ("automata.states_expanded", "count"),
    ("model.boot_s", "s"),
    ("model.successor_s", "s"),
    ("model.rule_eval_s", "s"),
    ("model.rule_evals", "count"),
    ("model.rule_cache_hit_ratio", "ratio"),
    ("relational.intern_calls", "count"),
    ("relational.intern_hit_ratio", "ratio"),
    ("server.encode_s", "s"),
    ("server.decode_s", "s"),
    ("server.handle_frame_s", "s"),
    ("server.frames_per_verdict", "count"),
    ("server.frame_bytes_per_verdict", "bytes"),
    ("server.step_s", "s"),
    ("server.steps_per_verdict", "count"),
    ("server.step_allocs", "count"),
    ("server.slice_overhead_s", "s"),
    ("server.queue_wait_s", "s"),
    ("server.retained_results_peak", "count"),
];

/// How a run is driven.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seeds every input the workload builds.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Records spans and reports per-layer metrics.
    pub trace: bool,
    /// Full-size inputs, or the reduced ones the benchmark's own test uses.
    pub reduced: bool,
}

/// A seed spread over all 64 bits (splitmix64), so small consecutive
/// seeds give unrelated generator streams.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-layer values, keyed by the names in [`PER_LAYER`].
#[derive(Clone, Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric; panics on a name [`PER_LAYER`] does not list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot = value;
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Fills the engine layers from reports: times and counts per verdict,
    /// ratios over all reports. `verdicts` divides the sums; `intern` is
    /// the (calls, hits) pair from `Report::stats`, which the run report
    /// does not carry.
    pub fn engine(
        &mut self,
        reports: &[RunReport],
        total_ns: u64,
        verdicts: usize,
        intern: (u64, u64),
    ) {
        let per = |x: u64| x as f64 / verdicts as f64;
        let secs = |x: u64| per(x) * 1e-9;
        let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
        let nba = sum(|r| r.phases.nba_translation_ns);
        let boot = sum(|r| r.phases.boot_ns);
        let succ = sum(|r| r.phases.successor_ns);
        let lasso = sum(|r| r.phases.lasso_ns);
        let cex = sum(|r| r.phases.counterexample_ns);
        let named = nba + boot + succ + lasso + cex;
        self.set("verifier.valuations", per(sum(|r| r.valuations_checked)));
        self.set(
            "verifier.unattributed_s",
            (total_ns as f64 - named as f64) / verdicts as f64 * 1e-9,
        );
        self.set("verifier.cex_s", secs(cex));
        self.set("automata.lasso_s", secs(lasso));
        self.set("automata.nba_s", secs(nba));
        self.set(
            "automata.nba_cache_hit_ratio",
            ratio(
                sum(|r| r.counters.nba_cache_hits),
                sum(|r| r.counters.nba_cache_misses),
            ),
        );
        self.set(
            "automata.states_visited",
            per(sum(|r| r.counters.states_visited)),
        );
        self.set(
            "automata.transitions",
            per(sum(|r| r.counters.transitions_explored)),
        );
        self.set(
            "automata.states_expanded",
            per(sum(|r| r.counters.states_expanded)),
        );
        self.set("model.boot_s", secs(boot));
        self.set("model.successor_s", secs(succ));
        self.set("model.rule_eval_s", secs(sum(|r| r.phases.rule_eval_ns)));
        self.set("model.rule_evals", per(sum(|r| r.counters.rule_evals)));
        self.set(
            "model.rule_cache_hit_ratio",
            ratio(
                sum(|r| r.counters.rule_cache_hits),
                sum(|r| r.counters.rule_cache_misses),
            ),
        );
        self.set("relational.intern_calls", per(intern.0));
        self.set(
            "relational.intern_hit_ratio",
            ratio(intern.1, intern.0 - intern.1),
        );
    }
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up, through its warm-up verdict.
    pub setup_s: Vec<f64>,
    /// Wall time from call to verdict, one per timed verdict.
    pub verdict_s: Vec<f64>,
    /// The latencies `verdict_p90_s` is taken over: every verdict, except
    /// the `starver` in `served`. Its latency measures its own 15 slices,
    /// and with it in the population the 90th percentile falls in the gap
    /// between ordinary jobs and starvers, where it jumps between runs.
    pub tail_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_wall_s: f64,
    /// Process CPU time of the timed phase, all threads.
    pub timed_cpu_s: f64,
    /// Allocations during the timed phase.
    pub allocated: alloc::Meter,
    /// Live-heap high-water mark of each timed verdict (direct workloads)
    /// or round (served), in megabytes. The median is reported, so the
    /// figure does not grow with the number of verdicts a run fits.
    pub peak_heap_mb: Vec<f64>,
    /// Product states visited by the timed verdicts, summed over
    /// valuations and slices.
    pub states: u64,
    /// Operations attempted: timed verdicts plus oracle checks.
    pub attempted: u64,
    /// Operations the program refused or aborted.
    pub failures: Vec<String>,
    /// Verdicts that disagree with their oracle or known answer.
    pub wrong: Vec<String>,
    /// Exact work counters for the result file.
    pub counters: Vec<(&'static str, u64)>,
    /// Reference timings from the oracle pass, for the result file.
    pub references: Vec<(&'static str, f64)>,
    /// One run report of the workload, for the result file.
    pub report: Option<RunReport>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// The spans of a traced run.
    pub spans: Option<Json>,
}

impl Outcome {
    /// Records an operation that the program refused or aborted.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Records a check; a false `ok` marks a wrong answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong.push(what());
        }
    }

    /// The end-to-end metrics, in [`END_TO_END`] order, with the samples
    /// behind each.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64, Vec<f64>)> {
        let n = self.verdict_s.len().max(1) as f64;
        let one = |v: f64| (v, vec![v]);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = match name {
                    "setup_s" => (stats::median(&self.setup_s), self.setup_s.clone()),
                    "verdict_s" => (stats::median(&self.verdict_s), self.verdict_s.clone()),
                    "verdict_p90_s" => (stats::p90(&self.tail_s), self.tail_s.clone()),
                    "verdicts_per_s" => one(n / self.timed_wall_s),
                    "cpu_per_verdict_s" => one(self.timed_cpu_s / n),
                    "peak_heap_mb" => {
                        (stats::median(&self.peak_heap_mb), self.peak_heap_mb.clone())
                    }
                    "alloc_mb_per_verdict" => one(self.allocated.bytes as f64 / n / 1e6),
                    "allocs_per_verdict" => one(self.allocated.calls as f64 / n),
                    "states_per_verdict" => one(self.states as f64 / n),
                    other => unreachable!("no end-to-end metric {other}"),
                };
                (name, unit, value, samples)
            })
            .collect()
    }
}

/// Runs one workload by name.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    Some(match workload {
        "bank_loan" => direct::bank_loan(cfg),
        "valuations" => direct::valuations(cfg),
        "served" => served::served(cfg),
        _ => return None,
    })
}
