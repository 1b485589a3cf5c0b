//! The direct workloads: `Verifier::check` on the bank-loan composition.

use crate::trace::Tracer;
use crate::{alloc, cpu, mix, stats, Config, Outcome};
use ddws::scenarios::bank_loan;
use ddws_logic::LtlFoSentence;
use ddws_model::Semantics;
use ddws_relational::{Instance, Tuple};
use ddws_testkit::rng::XorShift;
use ddws_verifier::{
    DatabaseMode, Outcome as Verdict, Report, RuleEval, StateRepr, Verifier, VerifyOptions,
};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fresh values for every direct check, as in the E1 bench.
const FRESH: usize = 1;

/// The bank-loan composition with E1's semantics and a database of
/// `customers` customers who each want the same loan and carry the same
/// middle credit rating. The seed picks the names, the rating and the
/// order the customers are entered in; every seed gives a database
/// isomorphic to every other, so verdict and work do not depend on it.
fn bank_loan_case(customers: usize, seed: u64) -> (Verifier, Instance) {
    let semantics = Semantics {
        nested_send_skips_empty: true,
        ..Semantics::default()
    };
    let mut verifier = Verifier::new(bank_loan::composition(true, semantics));
    let mut rng = XorShift::new(mix(seed));
    let tag = rng.below(1 << 16);
    let rating = *rng.choose(&["fair", "good", "average"]);
    let mut order: Vec<usize> = (0..customers).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i + 1));
    }
    let comp = verifier.composition_mut();
    let mut db = Instance::empty(&comp.voc);
    let loan = comp.symbols.intern(&format!("loan{tag:04x}"));
    let rating = comp.symbols.intern(rating);
    for i in order {
        let id = comp.symbols.intern(&format!("c{tag:04x}_{i}"));
        let ssn = comp.symbols.intern(&format!("s{tag:04x}_{i}"));
        let name = comp.symbols.intern(&format!("n{tag:04x}_{i}"));
        for (rel, t) in [
            ("A.wants", vec![id, loan]),
            ("O.customer", vec![id, ssn, name]),
            ("CR.creditRating", vec![ssn, rating]),
        ] {
            let rel = comp
                .voc
                .lookup(rel)
                .expect("bank-loan schema has the relation");
            db.relation_mut(rel).insert(Tuple::from(t.as_slice()));
        }
    }
    (verifier, db)
}

/// One direct workload: which property, at what size, under which options.
struct Direct {
    name: &'static str,
    property: &'static str,
    customers: usize,
    valuation_threads: Option<usize>,
}

impl Direct {
    fn options(&self, db: Instance) -> VerifyOptions {
        VerifyOptions {
            database: DatabaseMode::Fixed(db),
            fresh_values: Some(FRESH),
            valuation_threads: self.valuation_threads,
            ..VerifyOptions::default()
        }
    }
}

/// A verifier after set-up, ready for timed verdicts.
struct Ready {
    verifier: Verifier,
    property: LtlFoSentence,
    options: VerifyOptions,
    /// The warm-up verdict's report; every later verdict must match it.
    warm: Report,
}

/// `bank_loan`: one deep search. `PROP_RATINGS_REFLECT_DB` holds: CR's
/// only `rating` send rule is guarded by `creditRating(ssn, cat)` and
/// `rating` is a flat channel, so no other tuple can reach `O.?rating`.
pub(crate) fn bank_loan(cfg: &Config) -> Outcome {
    let w = Direct {
        name: "bank_loan",
        property: bank_loan::PROP_RATINGS_REFLECT_DB,
        customers: if cfg.reduced { 1 } else { 3 },
        valuation_threads: None,
    };
    let (mut out, tracer, ready) = timed(&w, cfg);
    let Some(mut ready) = ready else {
        return out;
    };

    // Oracle of record: the legacy representation with interpreted rules
    // visits exactly the states the compact compiled path does. It is
    // slow, so it runs at one customer fewer.
    let small = if cfg.reduced { 1 } else { 2 };
    let (mut v, db) = bank_loan_case(small, cfg.seed);
    let fast = w.options(db);
    let legacy = VerifyOptions {
        state_repr: StateRepr::Legacy,
        rule_eval: RuleEval::Interpreted,
        ..fast.clone()
    };
    match (v.check_str(w.property, &fast), v.check_str(w.property, &legacy)) {
        (Ok(a), Ok(b)) => out.check(
            a.outcome.holds()
                && b.outcome.holds()
                && a.stats.states_visited == b.stats.states_visited,
            || {
                format!(
                    "legacy oracle at {small} customers: compact {} states ({}), legacy {} states ({})",
                    a.stats.states_visited,
                    a.telemetry.outcome,
                    b.stats.states_visited,
                    b.telemetry.outcome
                )
            },
        ),
        (a, b) => out.fail(format!("legacy oracle errored: {:?} / {:?}", a.err(), b.err())),
    }

    // The violated twin: "no rating is ever received" fails, and its
    // counterexample replays as a real run.
    let twin = ready
        .verifier
        .parse_property(bank_loan::PROP_NO_RATING_EVER);
    match twin.map(|p| {
        let r = ready.verifier.check(&p, &ready.options);
        (p, r)
    }) {
        Ok((p, Ok(report))) => match &report.outcome {
            Verdict::Violated(cex) => {
                let replay = ready
                    .verifier
                    .replay_counterexample(&p, cex, &ready.options);
                out.check(replay.is_ok(), || {
                    format!("twin counterexample does not replay: {replay:?}")
                });
            }
            other => out.check(false, || format!("twin property answered {other:?}")),
        },
        Ok((_, Err(e))) | Err(e) => out.fail(format!("twin property errored: {e}")),
    }
    out.spans = tracer.on().then(|| tracer.to_json());
    out
}

/// `valuations`: thousands of tiny searches. The approvals property has
/// three closure variables; the composition is closed and the database
/// fixed, so fresh values never enter a run and the closure ranges over
/// the rest of the domain.
pub(crate) fn valuations(cfg: &Config) -> Outcome {
    let w = Direct {
        name: "valuations",
        property: bank_loan::PROP_APPROVALS_JUSTIFIED,
        customers: if cfg.reduced { 0 } else { 1 },
        valuation_threads: Some(2),
    };
    let (mut out, tracer, ready) = timed(&w, cfg);
    let Some(mut ready) = ready else {
        return out;
    };

    // Oracle of record: the unsharded valuation loop reaches the same
    // verdict over the same states.
    let unsharded = VerifyOptions {
        valuation_threads: None,
        ..ready.options.clone()
    };
    let started = Instant::now();
    let r = ready.verifier.check(&ready.property, &unsharded);
    out.references
        .push(("unsharded_verdict_s", started.elapsed().as_secs_f64()));
    match r {
        Ok(r) => out.check(
            r.outcome.holds()
                && r.stats.states_visited == ready.warm.stats.states_visited
                && r.valuations_checked == ready.warm.valuations_checked,
            || {
                format!(
                    "unsharded loop: {} ({} states, {} valuations), sharded {} states, {} valuations",
                    r.telemetry.outcome,
                    r.stats.states_visited,
                    r.valuations_checked,
                    ready.warm.stats.states_visited,
                    ready.warm.valuations_checked
                )
            },
        ),
        Err(e) => out.fail(format!("unsharded loop errored: {e}")),
    }
    out.spans = tracer.on().then(|| tracer.to_json());
    out
}

/// Checks one verdict of the workload's property: Holds, the warm-up's
/// state count, and one valuation per point of the closure domain cubed
/// (or 1 for a closure-free property).
fn verdict_ok(
    w: &Direct,
    property: &LtlFoSentence,
    domain_len: usize,
    r: &Report,
    warm_states: Option<u64>,
) -> Result<(), String> {
    let vars = property.universal_vars.len() as u32;
    let expected = (domain_len - FRESH).pow(vars);
    if !r.outcome.holds() {
        return Err(format!("{}: verdict {}", w.name, r.telemetry.outcome));
    }
    if r.valuations_checked != expected {
        return Err(format!(
            "{}: {} valuations checked, domain gives {expected}",
            w.name, r.valuations_checked
        ));
    }
    match warm_states {
        Some(s) if s != r.stats.states_visited => Err(format!(
            "{}: {} states visited, warm-up visited {s}",
            w.name, r.stats.states_visited
        )),
        _ => Ok(()),
    }
}

/// Set-up (repeated [`SETUPS`] times) and the timed phase. After a failed
/// set-up returns no verifier and the outcome so far.
fn timed(w: &Direct, cfg: &Config) -> (Outcome, Tracer, Option<Ready>) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut ready = None;
    for i in 0..SETUPS as u64 {
        let started = Instant::now();
        let span = tracer.open("setup", None, i);
        let (mut verifier, db) = bank_loan_case(w.customers, cfg.seed);
        let options = w.options(db);
        let t = tracer.now();
        let property = verifier.parse_property(w.property);
        tracer.record("logic.parse_property", t, span, i);
        let property = match property {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("{}: parse: {e}", w.name));
                return (out, tracer, None);
            }
        };
        let t = tracer.now();
        let domain_len = verifier.domain_for(&property, &options).len();
        let warm = verifier.check(&property, &options);
        tracer.record("setup.warm_check", t, span, i);
        tracer.close(span);
        out.setup_s.push(started.elapsed().as_secs_f64());
        match warm {
            Ok(warm) => {
                let ok = verdict_ok(w, &property, domain_len, &warm, None);
                out.check(ok.is_ok(), || ok.clone().unwrap_err());
                ready = Some(Ready {
                    verifier,
                    property,
                    options,
                    warm,
                });
            }
            Err(e) => {
                out.fail(format!("{}: warm-up check: {e}", w.name));
                return (out, tracer, None);
            }
        }
    }
    let mut ready = ready.expect("at least one set-up");

    let mut reports = Vec::new();
    let (mut total_ns, mut intern) = (0u64, (0u64, 0u64));
    let meter = alloc::meter();
    let cpu = cpu::process_cpu_s();
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let span = tracer.open("verdict", None, i);
        let t = tracer.now();
        let domain_len = ready
            .verifier
            .domain_for(&ready.property, &ready.options)
            .len();
        tracer.record("verifier.domain_for", t, span, i);
        alloc::reset_peak();
        let t0 = Instant::now();
        let r = ready.verifier.check(&ready.property, &ready.options);
        let t1 = Instant::now();
        out.peak_heap_mb.push(alloc::peak_mb());
        let on = tracer.on();
        tracer.record_between(
            "verifier.check",
            on.then_some(t0),
            on.then_some(t1),
            span,
            i,
        );
        tracer.close(span);
        out.verdict_s.push((t1 - t0).as_secs_f64());
        match r {
            Ok(r) => {
                let warm = Some(ready.warm.stats.states_visited);
                let ok = verdict_ok(w, &ready.property, domain_len, &r, warm);
                out.check(ok.is_ok(), || ok.clone().unwrap_err());
                out.states += r.stats.states_visited;
                total_ns += r.telemetry.phases.total_ns;
                intern.0 += r.stats.intern_calls;
                intern.1 += r.stats.intern_hits;
                reports.push(r.telemetry);
            }
            Err(e) => out.fail(format!("{}: check: {e}", w.name)),
        }
        i += 1;
    }
    out.timed_wall_s = started.elapsed().as_secs_f64();
    out.tail_s = out.verdict_s.clone();
    out.timed_cpu_s = cpu::process_cpu_s() - cpu;
    out.allocated = meter.until(alloc::meter());

    if let Some(last) = reports.last() {
        let c = &last.counters;
        out.counters = vec![
            ("states_visited", c.states_visited),
            ("transitions_explored", c.transitions_explored),
            ("states_expanded", c.states_expanded),
            ("valuations_checked", last.valuations_checked),
            ("domain_size", last.domain_size),
            ("intern_calls", ready.warm.stats.intern_calls),
        ];
        out.report = Some(last.redacted());
    }
    if cfg.trace {
        let n = out.verdict_s.len();
        let layers = &mut out.layers;
        layers.set("trace.verdict_s", stats::median(&out.verdict_s));
        layers.set(
            "logic.parse_s",
            stats::median(&tracer.durations("logic.parse_property")),
        );
        layers.set(
            "verifier.check_s",
            stats::median(&tracer.durations("verifier.check")),
        );
        layers.set(
            "verifier.domain_s",
            stats::median(&tracer.durations("verifier.domain_for")),
        );
        layers.engine(&reports, total_ns, n, intern);
    }
    (out, tracer, Some(ready))
}
