//! The `served` workload: one load thread acts as two closed-loop clients
//! of an in-process wall-clock [`Server`]. Every request and reply crosses
//! the wire as an encoded frame through [`Server::handle_frame`], and the
//! load thread runs the scheduler quanta itself with [`Server::step`], the
//! call each pool worker loops on, so no sleep or poll interval enters a
//! latency. After each quantum both clients poll `job_status`; the client
//! whose slice count moved is charged the quantum, and a terminal job is
//! fetched with `fetch_result` and its per-slice reports drained with
//! `stream_telemetry`.

use crate::trace::{SpanId, Tracer};
use crate::{alloc, cpu, mix, stats, Config, Outcome};
use ddws_server::{
    decode_response, encode_request, scenario, CexDigest, JobOptions, JobSpec, Request, Response,
    Server, ServerConfig,
};
use ddws_telemetry::RunReport;
use ddws_testkit::compgen::{self, Case, CaseSpec};
use ddws_testkit::rng::XorShift;
use ddws_verifier::{DatabaseMode, Outcome as Verdict, Verifier, VerifyOptions};
use std::time::Instant;

/// Closed-loop clients the load thread plays.
const CLIENTS: usize = 2;
/// Every this-many-th job of a round is the multi-slice `starver`.
const STARVER_EVERY: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The job pool is drawn once from this seed, so every run serves the same
/// multiset of jobs; the run's seed orders them.
const POOL_SEED: u64 = 0x5e12_7ed0;

/// What one job verifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Job {
    /// The compgen spec at this index of the pool.
    Spec(usize),
    /// The server's `starver` scenario.
    Starver,
}

/// One round of the stream: every spec of the pool once, in an order drawn
/// from `rng`, with the starver at every [`STARVER_EVERY`]th position.
/// Each round gets a fresh server, so the server's per-job bookkeeping is
/// the same size however many rounds a run fits.
fn round(pool: usize, rng: &mut XorShift) -> Vec<Job> {
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, rng.range(0, i + 1));
    }
    let mut jobs = Vec::new();
    for i in order {
        jobs.push(Job::Spec(i));
        if (jobs.len() + 1) % STARVER_EVERY == 0 {
            jobs.push(Job::Starver);
        }
    }
    jobs
}

/// The pool of compgen specs the rounds are made of.
fn pool(size: usize) -> Vec<CaseSpec> {
    let mut rng = XorShift::new(POOL_SEED);
    (0..size).map(|_| compgen::spec(&mut rng)).collect()
}

/// One served verdict.
struct Served {
    job: Job,
    verdict: String,
    counterexample: Option<CexDigest>,
    states: u64,
    /// Submit encoded to result decoded.
    latency_s: f64,
    /// Quanta the job was charged.
    step_ns: u64,
    /// Engine time of its slices, from the per-slice reports.
    slice_ns: u64,
    report: Option<RunReport>,
}

/// A submitted job awaiting its verdict.
struct Pending {
    key: u64,
    job: Job,
    id: u64,
    submitted: Instant,
    span: SpanId,
    slices: u64,
    step_ns: u64,
}

/// The client side of the wire, with frame meters.
struct Wire<'a> {
    server: &'a Server,
    next_id: u64,
    frames: u64,
    bytes: u64,
}

impl<'a> Wire<'a> {
    fn new(server: &'a Server) -> Wire<'a> {
        Wire {
            server,
            next_id: 0,
            frames: 0,
            bytes: 0,
        }
    }

    /// One request/reply exchange through encoded frames.
    fn call(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        key: u64,
        req: &Request,
    ) -> Result<Response, String> {
        self.next_id += 1;
        let id = self.next_id;
        let t = tracer.now();
        let frame = encode_request(id, req);
        tracer.record("server.encode_request", t, parent, key);
        let t = tracer.now();
        let reply = self.server.handle_frame(&frame);
        tracer.record("server.handle_frame", t, parent, key);
        let t = tracer.now();
        let decoded = decode_response(&reply);
        tracer.record("server.decode_response", t, parent, key);
        self.frames += 1;
        self.bytes += (frame.len() + reply.len()) as u64;
        match decoded {
            Ok((rid, resp, _)) if rid == id => Ok(resp),
            Ok((rid, _, _)) => Err(format!("reply to request {id} carries id {rid}")),
            Err(e) => Err(format!("reply does not decode: {e}")),
        }
    }
}

/// Meters over the quanta the load thread ran.
#[derive(Default)]
struct Steps {
    count: u64,
    ns: u64,
    allocs: u64,
    retained_peak: usize,
}

/// Serves `jobs` (key, job) to completion on the wire's server with [`CLIENTS`]
/// closed-loop clients. Refusals and stalls go to `out.failures`. Final run
/// reports are kept only when `keep_reports`.
#[allow(clippy::too_many_arguments)]
fn serve(
    jobs: &[(u64, Job)],
    pool: &[CaseSpec],
    wire: &mut Wire,
    tracer: &mut Tracer,
    steps: &mut Steps,
    out: &mut Outcome,
    served: &mut Vec<Served>,
    keep_reports: bool,
) {
    let mut queue = jobs.iter();
    let mut clients: [Option<Pending>; CLIENTS] = Default::default();
    loop {
        for slot in clients.iter_mut().filter(|c| c.is_none()) {
            let Some(&(key, job)) = queue.next() else {
                break;
            };
            let spec = match job {
                Job::Spec(i) => JobSpec::Spec(pool[i].clone()),
                Job::Starver => JobSpec::Scenario("starver".to_string()),
            };
            let submitted = Instant::now();
            let span = tracer.open("job", None, key);
            let req = Request::SubmitJob {
                spec,
                options: JobOptions::default(),
                submit_token: None,
            };
            match wire.call(tracer, span, key, &req) {
                Ok(Response::Accepted { job: id }) => {
                    *slot = Some(Pending {
                        key,
                        job,
                        id,
                        submitted,
                        span,
                        slices: 0,
                        step_ns: 0,
                    })
                }
                other => out.fail(format!("submit of {job:?} answered {other:?}")),
            }
        }
        if clients.iter().all(Option::is_none) {
            if queue.len() == 0 {
                return;
            }
            continue;
        }

        let before = alloc::meter();
        let t0 = Instant::now();
        let ran = wire.server.step();
        let t1 = Instant::now();
        let step_ns = (t1 - t0).as_nanos() as u64;
        steps.count += 1;
        steps.ns += step_ns;
        steps.allocs += before.until(alloc::meter()).calls;
        if !ran {
            for p in clients.iter_mut().filter_map(Option::take) {
                out.fail(format!(
                    "no runnable job while job {} ({:?}) waits",
                    p.id, p.job
                ));
            }
            continue;
        }

        for slot in clients.iter_mut() {
            let Some(p) = slot.as_mut() else { continue };
            let status = wire.call(tracer, p.span, p.key, &Request::JobStatus { job: p.id });
            let snapshot = match status {
                Ok(Response::Status(s)) => s,
                other => {
                    out.fail(format!("status of job {} answered {other:?}", p.id));
                    *slot = None;
                    continue;
                }
            };
            if snapshot.slices > p.slices {
                p.slices = snapshot.slices;
                p.step_ns += step_ns;
                let on = tracer.on();
                tracer.record_between(
                    "server.step",
                    on.then_some(t0),
                    on.then_some(t1),
                    None,
                    p.key,
                );
            }
            if !snapshot.state.is_terminal() {
                continue;
            }
            let p = slot.take().expect("slot holds the pending job");
            let fetched = wire.call(tracer, p.span, p.key, &Request::FetchResult { job: p.id });
            let latency_s = p.submitted.elapsed().as_secs_f64();
            let telemetry = wire.call(
                tracer,
                p.span,
                p.key,
                &Request::StreamTelemetry { job: p.id },
            );
            tracer.close(p.span);
            if tracer.on() {
                steps.retained_peak = steps.retained_peak.max(wire.server.retained_results());
            }
            let slice_ns = match telemetry {
                Ok(Response::Telemetry { reports, .. }) => {
                    reports.iter().map(|r| r.phases.total_ns).sum()
                }
                other => {
                    out.fail(format!("telemetry of job {} answered {other:?}", p.id));
                    continue;
                }
            };
            match fetched {
                Ok(Response::Result {
                    snapshot,
                    verdict,
                    report,
                    counterexample,
                }) => served.push(Served {
                    job: p.job,
                    verdict,
                    counterexample,
                    states: snapshot.states_visited,
                    latency_s,
                    step_ns: p.step_ns,
                    slice_ns,
                    report: report.filter(|_| keep_reports),
                }),
                other => out.fail(format!("fetch of job {} answered {other:?}", p.id)),
            }
        }
    }
}

/// The one-shot oracle for a job: a direct, unsharded `Verifier::check`
/// of the same case under the same budget and fresh values.
fn one_shot(case: &Case) -> Result<(String, Option<CexDigest>), String> {
    let options = JobOptions::default();
    let mut verifier = Verifier::new(case.composition.clone());
    let opts = VerifyOptions {
        database: DatabaseMode::Fixed(case.database.clone()),
        fresh_values: options.fresh_values,
        max_states: options.budget,
        valuation_threads: options.valuation_threads,
        ..VerifyOptions::default()
    };
    let report = verifier
        .check_str(&case.property, &opts)
        .map_err(|e| e.to_string())?;
    Ok(match report.outcome {
        Verdict::Holds => ("holds".to_string(), None),
        Verdict::Violated(cex) => {
            let names = &case.composition.symbols;
            let digest = CexDigest {
                values: cex
                    .valuation
                    .iter()
                    .map(|&(_, v)| names.name(v).to_string())
                    .collect(),
                prefix_len: cex.prefix.len() as u64,
                cycle_len: cex.cycle.len() as u64,
            };
            ("violated".to_string(), Some(digest))
        }
        Verdict::Inconclusive(inc) => (inc.reason.label().to_string(), None),
    })
}

/// `served`: service overhead per job.
pub(crate) fn served(cfg: &Config) -> Outcome {
    let pool_size = if cfg.reduced { 15 } else { 240 };
    let mut out = Outcome::default();
    let mut served = Vec::new();

    // Set-up: the job pool, a server, and one warm-up job through it. The
    // warm-up is the starver, the one job every seed serves alike.
    let mut specs = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        specs = pool(pool_size);
        let server = Server::new(ServerConfig::default());
        let mut wire = Wire::new(&server);
        serve(
            &[(0, Job::Starver)],
            &specs,
            &mut wire,
            &mut Tracer::new(false),
            &mut Steps::default(),
            &mut out,
            &mut served,
            true,
        );
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    let warmups = served.len();

    let mut tracer = Tracer::new(cfg.trace);
    let mut steps = Steps::default();
    let (mut frames, mut bytes) = (0, 0);
    let meter = alloc::meter();
    let cpu = cpu::process_cpu_s();
    let started = Instant::now();
    let mut rng = XorShift::new(mix(cfg.seed));
    let (mut rounds, mut keys) = (0u64, 0u64);
    while rounds == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let jobs: Vec<(u64, Job)> = round(pool_size, &mut rng)
            .into_iter()
            .zip(keys..)
            .map(|(job, key)| (key, job))
            .collect();
        keys += jobs.len() as u64;
        alloc::reset_peak();
        let server = Server::new(ServerConfig::default());
        let mut wire = Wire::new(&server);
        let keep = cfg.trace;
        serve(
            &jobs,
            &specs,
            &mut wire,
            &mut tracer,
            &mut steps,
            &mut out,
            &mut served,
            keep,
        );
        out.peak_heap_mb.push(alloc::peak_mb());
        frames += wire.frames;
        bytes += wire.bytes;
        rounds += 1;
    }
    out.timed_wall_s = started.elapsed().as_secs_f64();
    out.timed_cpu_s = cpu::process_cpu_s() - cpu;
    out.allocated = meter.until(alloc::meter());
    let timed = &served[warmups..];
    out.verdict_s = timed.iter().map(|s| s.latency_s).collect();
    out.tail_s = timed
        .iter()
        .filter(|s| s.job != Job::Starver)
        .map(|s| s.latency_s)
        .collect();
    out.states = timed.iter().map(|s| s.states).sum();

    // Oracle pass: every served verdict, warm-ups included, must equal a
    // one-shot check of its case, counterexample digest and all.
    let mut oracle = std::collections::BTreeMap::new();
    for s in &served {
        let answer = oracle.entry(s.job).or_insert_with(|| {
            let case = match s.job {
                Job::Spec(i) => specs[i].build(),
                Job::Starver => scenario("starver").ok_or_else(|| "no starver".to_string()),
            };
            let started = Instant::now();
            let answer = case.and_then(|c| one_shot(&c));
            if s.job == Job::Starver {
                out.references
                    .push(("starver_one_shot_s", started.elapsed().as_secs_f64()));
            }
            answer
        });
        match answer {
            Err(e) => out.fail(format!("oracle for {:?} errored: {e}", s.job)),
            Ok((verdict, digest)) if verdict == "holds" || verdict == "violated" => {
                out.check(s.verdict == *verdict && s.counterexample == *digest, || {
                    format!(
                        "{:?}: served {} {:?}, one-shot {verdict} {digest:?}",
                        s.job, s.verdict, s.counterexample
                    )
                })
            }
            Ok((verdict, _)) => out.fail(format!(
                "{:?}: one-shot ended {verdict}, served {}",
                s.job, s.verdict
            )),
        }
    }

    let starvers: Vec<f64> = timed
        .iter()
        .filter(|s| s.job == Job::Starver)
        .map(|s| s.latency_s)
        .collect();
    if !starvers.is_empty() {
        out.references
            .push(("starver_served_s", stats::median(&starvers)));
    }
    let n = timed.len().max(1);
    let holds = timed.iter().filter(|s| s.verdict == "holds").count() as u64;
    let starver = timed.iter().find(|s| s.job == Job::Starver);
    out.counters = vec![
        ("verdicts", timed.len() as u64),
        ("holds", holds),
        ("violated", timed.len() as u64 - holds),
        ("steps", steps.count),
        ("frames", frames),
        ("states_visited", out.states),
        ("starver_states", starver.map_or(0, |s| s.states)),
        ("rounds", rounds),
        ("distinct_cases", oracle.len() as u64),
    ];
    out.report = served
        .first()
        .and_then(|s| s.report.as_ref())
        .map(RunReport::redacted);
    if cfg.trace {
        let slice_ns: u64 = timed.iter().map(|s| s.slice_ns).sum();
        let own_ns: u64 = timed.iter().map(|s| s.step_ns).sum();
        let waits: Vec<f64> = timed
            .iter()
            .filter(|s| s.job != Job::Starver)
            .map(|s| s.latency_s - s.step_ns as f64 * 1e-9)
            .collect();
        let reports: Vec<RunReport> = timed.iter().filter_map(|s| s.report.clone()).collect();
        let per = |x: u64| x as f64 / n as f64;
        let layers = &mut out.layers;
        layers.set("trace.verdict_s", stats::median(&out.verdict_s));
        layers.set(
            "server.encode_s",
            stats::median(&tracer.per_key("server.encode_request", n)),
        );
        layers.set(
            "server.decode_s",
            stats::median(&tracer.per_key("server.decode_response", n)),
        );
        layers.set(
            "server.handle_frame_s",
            stats::median(&tracer.per_key("server.handle_frame", n)),
        );
        layers.set("server.frames_per_verdict", per(frames));
        layers.set("server.frame_bytes_per_verdict", per(bytes));
        layers.set("server.step_s", per(steps.ns) * 1e-9);
        layers.set("server.steps_per_verdict", per(steps.count));
        layers.set("server.step_allocs", per(steps.allocs));
        layers.set(
            "server.slice_overhead_s",
            (own_ns as f64 - slice_ns as f64) / n as f64 * 1e-9,
        );
        layers.set("server.queue_wait_s", stats::p90(&waits));
        layers.set("server.retained_results_peak", steps.retained_peak as f64);
        layers.engine(&reports, slice_ns, n, (0, 0));
        out.spans = Some(tracer.to_json());
    }
    out
}
