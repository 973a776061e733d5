//! The `vbench` command line; see the library documentation.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::process::ExitCode;

use vbench::compare::{compare, parse_records};
use vbench::report::{
    emit, end_to_end, peak_rss_mb, per_layer, record_json, result_json, Catalogue,
};
use vbench::workload::{self, RunConfig, Workload};

const USAGE: &str = "usage: vbench --workload maze|flat|chip|serve [--seed N] \
[--seconds S] [--trace 0|1|PATH] [--quick] [--record FILE]
       vbench compare PARENT.ldj CHANGE.ldj";

struct Args {
    cfg: RunConfig,
    trace_path: Option<String>,
    record: Option<String>,
}

fn parse_args(args: &[String], catalogue: &Catalogue) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = catalogue.run_seconds;
    let mut trace = false;
    let mut trace_path = None;
    let mut quick = false;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                path => {
                    trace = true;
                    trace_path = Some(path.to_string());
                }
            },
            "--quick" => quick = true,
            "--record" => record = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { cfg: RunConfig { workload, seed, seconds, quick, trace }, trace_path, record })
}

fn run(args: &Args, catalogue: &Catalogue) -> Result<bool, String> {
    let cfg = &args.cfg;
    let m = workload::run(cfg);
    let metrics = if cfg.trace {
        emit(&catalogue.per_layer, &per_layer(&m), false)?
    } else {
        let rss = peak_rss_mb().ok_or("peak memory (VmHWM) is not readable")?;
        emit(&catalogue.end_to_end, &end_to_end(&m, rss), true)?
    };

    println!(
        "vbench {} seed {} ({}) — {} passes, {} requests, {} failed",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        m.passes(),
        m.attempted,
        m.failures.len()
    );
    for (metric, value) in &metrics {
        println!("  {:<26} {:>16.6} {}", metric.name, value, metric.unit);
    }
    for failure in m.failures.iter().take(8) {
        println!("  FAILED: {failure}");
    }
    let record = record_json(cfg, &m, &metrics).render_compact();
    println!("{record}");
    if let Some(path) = &args.record {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))?;
    }
    if let (Some(path), Some(tracer)) = (&args.trace_path, &m.tracer) {
        fs::write(path, tracer.to_lines()).map_err(|e| format!("{path}: {e}"))?;
    }
    let result = result_json(&m, &metrics);
    println!("{}", result.render_compact());
    Ok(m.correct())
}

fn run_compare(args: &[String], catalogue: &Catalogue) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let read = |p: &String| {
        fs::read_to_string(p).map_err(|e| format!("{p}: {e}")).and_then(|t| parse_records(&t))
    };
    let (report, any_worse) = compare(catalogue, &read(a)?, &read(b)?);
    print!("{report}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalogue = Catalogue::builtin();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..], &catalogue),
        _ => parse_args(&args, &catalogue)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| run(&a, &catalogue)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vbench: {e}");
            ExitCode::from(2)
        }
    }
}
