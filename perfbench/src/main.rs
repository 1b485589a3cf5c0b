//! `ddws-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). A result
//! file with every metric's samples, the exact work counters and a
//! redacted run report goes to `.perfbench-out/`, and a traced run's spans
//! beside it.

use ddws_perfbench::{run, stats, Config, Outcome, PER_LAYER, WORKLOADS};
use ddws_telemetry::{validate_run_report, Json};
use std::process::ExitCode;

const USAGE: &str = "usage: ddws-perfbench --workload <bank_loan|valuations|served> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where result files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench-out";

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        reduced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok((workload, cfg))
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Json {
    Json::Float(x)
}

/// The result file: host, every metric with its samples' count, min,
/// median and max, the operations, the exact work counters, the oracle
/// pass's reference timings and the redacted run report.
fn result_file(workload: &str, cfg: &Config, out: &Outcome) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for (name, unit, value, samples) in out.end_to_end() {
        let (n, min, median, max) = stats::summary(&samples);
        metrics.push((
            name,
            obj(vec![
                ("unit", Json::Str(unit.into())),
                ("value", num(value)),
                ("samples", Json::UInt(n as u64)),
                ("min", num(min)),
                ("median", num(median)),
                ("max", num(max)),
            ]),
        ));
    }
    let layers = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = obj(vec![
                ("unit", Json::Str(unit.into())),
                ("value", num(out.layers.get(name))),
            ]);
            (name, v)
        })
        .collect();
    let report = match &out.report {
        Some(r) => {
            let parsed = Json::parse(&r.to_json()).map_err(|e| format!("run report JSON: {e}"))?;
            validate_run_report(&parsed).map_err(|e| format!("run report invalid: {e}"))?;
            parsed
        }
        None => Json::Null,
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let strings = |xs: &[String]| Json::Array(xs.iter().map(|s| Json::Str(s.clone())).collect());
    Ok(obj(vec![
        ("schema", Json::Str("ddws.perfbench".into())),
        ("workload", Json::Str(workload.into())),
        ("seed", Json::UInt(cfg.seed)),
        ("seconds", num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("cores", Json::UInt(cores)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failures.len() as u64)),
        ("failures", strings(&out.failures)),
        ("wrong", strings(&out.wrong)),
        ("metrics", obj(metrics)),
        (
            "per_layer",
            if cfg.trace { obj(layers) } else { Json::Null },
        ),
        (
            "counters",
            obj(out
                .counters
                .iter()
                .map(|&(k, v)| (k, Json::UInt(v)))
                .collect()),
        ),
        (
            "references",
            obj(out.references.iter().map(|&(k, v)| (k, num(v))).collect()),
        ),
        ("run_report", report),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&workload, &cfg).expect("workload name was validated");
    if out.verdict_s.is_empty() || out.tail_s.is_empty() || out.setup_s.is_empty() {
        eprintln!("{workload}: no verdict was reached: {:?}", out.failures);
        return ExitCode::FAILURE;
    }
    for f in &out.failures {
        eprintln!("failed: {f}");
    }
    for w in &out.wrong {
        eprintln!("wrong: {w}");
    }

    let file = match result_file(&workload, &cfg, &out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{OUT_DIR}/{workload}-seed{}-trace{}",
        cfg.seed,
        u8::from(cfg.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), format!("{file}\n")))
        .and_then(|()| match &out.spans {
            Some(spans) => std::fs::write(format!("{stem}-spans.json"), format!("{spans}\n")),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("cannot write {stem}.json: {e}");
        return ExitCode::FAILURE;
    }

    let entry = |name: &str, unit: &str, v: f64| {
        let value = obj(vec![("value", num(v)), ("unit", Json::Str(unit.into()))]);
        (name.to_string(), value)
    };
    let metrics: Vec<(String, Json)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| entry(name, unit, out.layers.get(name)))
            .collect()
    } else {
        out.end_to_end()
            .into_iter()
            .map(|(name, unit, v, _)| entry(name, unit, v))
            .collect()
    };
    let line = obj(vec![
        ("correct", Json::Bool(out.wrong.is_empty())),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failures.len() as u64)),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}
