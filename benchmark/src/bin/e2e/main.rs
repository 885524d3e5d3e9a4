//! The end-to-end benchmark: four paper workloads through both front doors.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run, in this process
//! e2e [--seed N] [--seconds S] [--quick]                 every workload, each run a child
//! e2e --compare A.json B.json                            two result files against the bounds
//! ```
//!
//! A run prints each metric as `workload metric value unit` and, as its last
//! line, one JSON object. `--trace 0` reports the end-to-end metrics named in
//! `BENCHMARK.json`, `--trace 1` the per-layer ones. Run from the repository
//! root; `benchmark/run.sh` builds and does that.

mod harness;
mod json;
mod layers;
mod probes;
mod roster;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::RunArgs;
use json::Json;

const MANIFEST: &str = "BENCHMARK.json";
const EXPECT: &str = "benchmark/expect.json";
const RESULTS_DIR: &str = "benchmark/results";
const SCRATCH_DIR: &str = "benchmark/scratch";
const DEFAULT_SEED: u64 = 11;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` lookup; a flag that is present without a value, or with one
/// that does not parse, is an error rather than a silent default.
fn arg<T: std::str::FromStr>(argv: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(at) = argv.iter().position(|a| a == key) else {
        return Ok(None);
    };
    argv.get(at + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{key} needs a valid value"))
}

fn run(argv: &[String]) -> Result<bool, String> {
    if let Some(at) = argv.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (argv.get(at + 1), argv.get(at + 2)) else {
            return Err("--compare needs two result files".into());
        };
        return compare(Path::new(a), Path::new(b));
    }
    let manifest = Manifest::load()?;
    let quick = argv.iter().any(|a| a == "--quick");
    let seed = arg(argv, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = arg(argv, "--seconds")?.unwrap_or(manifest.run_seconds);
    match arg::<String>(argv, "--workload")? {
        Some(workload) => {
            let trace = match arg::<u8>(argv, "--trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, got {other}")),
            };
            let args = RunArgs {
                workload,
                seed,
                seconds,
                trace,
                quick,
            };
            one_run(&manifest, &args)
        }
        None => every_workload(&manifest, seed, seconds, quick),
    }
}

/// What `BENCHMARK.json` declares: the source of truth for which metrics a
/// run must print, their units, and the end-to-end bounds.
struct Manifest {
    run_seconds: f64,
    workloads: Vec<String>,
    /// `(name, unit, better, bound)`.
    end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit)`.
    per_layer: Vec<(String, String)>,
}

impl Manifest {
    fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string(MANIFEST)
            .map_err(|e| format!("{MANIFEST}: {e} (run from the repository root)"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
        let field = |entry: &Json, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{MANIFEST}: entry without \"{key}\""))
        };
        let list = |key: &str| doc.get(key).map(Json::as_arr).unwrap_or(&[]).iter();
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{MANIFEST}: no run_seconds"))?,
            workloads: list("workloads")
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")
                .map(|m| {
                    let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                    Ok((
                        field(m, "name")?,
                        field(m, "unit")?,
                        field(m, "better")?,
                        bound,
                    ))
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }

    fn declared(&self, trace: bool) -> Vec<(&str, &str)> {
        if trace {
            self.per_layer
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
                .collect()
        }
    }
}

/// The digest and quality recorded for the default seed, if this run is
/// comparable to them.
fn expectation(args: &RunArgs) -> Option<(u64, f64)> {
    if args.quick {
        return None;
    }
    let doc = Json::parse(&std::fs::read_to_string(EXPECT).ok()?).ok()?;
    if doc.get("seed")?.as_f64()? as u64 != args.seed {
        return None;
    }
    let entry = doc.get("workloads")?.get(&args.workload)?;
    let digest = u64::from_str_radix(entry.get("digest")?.as_str()?, 16).ok()?;
    Some((digest, entry.get("quality")?.as_f64()?))
}

fn one_run(manifest: &Manifest, args: &RunArgs) -> Result<bool, String> {
    let scratch =
        PathBuf::from(SCRATCH_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    println!(
        "# e2e {} seed={} seconds={} trace={} quick={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        harness::machine_facts()
    );
    let report = workloads::run(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let Some(mut report) = report else {
        return Err(format!(
            "unknown workload {:?}; {MANIFEST} names {:?}",
            args.workload, manifest.workloads
        ));
    };

    if let Some((digest, quality)) = expectation(args) {
        if report.digest != digest {
            report.failures.push(format!(
                "digest {:016x} differs from the recorded {digest:016x}",
                report.digest
            ));
        }
        if report.quality.to_bits() != quality.to_bits() {
            report.failures.push(format!(
                "quality {} differs from the recorded {quality}",
                report.quality
            ));
        }
    }
    if args.trace && !args.quick {
        std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
        let path =
            Path::new(RESULTS_DIR).join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        trace::dump(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Exactly the declared metrics, each with its declared unit.
    let mut metrics = Vec::new();
    for (name, unit) in manifest.declared(args.trace) {
        match report.metrics.iter().find(|(n, _)| n == name) {
            Some((_, value)) => {
                if !args.quick {
                    println!("{} {name} {value} {unit}", args.workload);
                }
                metrics.push((
                    name.to_owned(),
                    Json::obj([
                        ("value".to_owned(), Json::Num(*value)),
                        ("unit".to_owned(), Json::Str(unit.to_owned())),
                    ]),
                ));
            }
            None => report
                .failures
                .push(format!("metric {name} was not measured")),
        }
    }
    for (name, _) in &report.metrics {
        if !metrics.iter().any(|(n, _)| n == name) {
            report
                .failures
                .push(format!("metric {name} is not declared in {MANIFEST}"));
        }
    }

    let correct = report.failures.is_empty() && report.failed == 0;
    for failure in &report.failures {
        eprintln!("FAILED {}: {failure}", args.workload);
    }
    println!(
        "# {} {}: {} timed ops, attempted {}, failed {}, digest {:016x}, quality {}",
        args.workload,
        if correct { "ok" } else { "FAILED" },
        report.ops,
        report.attempted,
        report.failed,
        report.digest,
        report.quality
    );
    let failed = if correct {
        0
    } else {
        report.failed.max(1).min(report.attempted)
    };
    println!(
        "{}",
        Json::obj([
            ("correct".to_owned(), Json::Bool(correct)),
            ("attempted".to_owned(), Json::Num(report.attempted as f64)),
            ("failed".to_owned(), Json::Num(failed as f64)),
            ("metrics".to_owned(), Json::obj(metrics)),
        ])
        .render()
    );
    Ok(correct)
}

/// Run one workload in a fresh child process and return its result object.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        command.arg("--quick");
    }
    // stderr is inherited, so failed checks show as they happen.
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    Json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}) exited with {} and no result: {e}",
            u8::from(trace),
            output.status
        )
    })
}

fn every_workload(
    manifest: &Manifest,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<bool, String> {
    println!(
        "# e2e every workload, seed={seed} {}",
        harness::machine_facts()
    );
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in &manifest.workloads {
        // Untraced first, for the end-to-end numbers; then traced, for the
        // per-layer ones. End-to-end numbers never come from a traced run.
        let mut entry = Vec::new();
        for trace in [false, true] {
            let mut result = child(workload, seed, seconds, trace, quick)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            if let (true, Json::Obj(fields)) = (quick, &mut result) {
                // A smoke run checks outputs; its timings mean nothing.
                fields.remove("metrics");
            }
            entry.push((
                if trace { "per_layer" } else { "end_to_end" }.to_owned(),
                result,
            ));
        }
        results.push((workload.clone(), Json::obj(entry)));
    }
    let doc = Json::obj([
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("quick".to_owned(), Json::Bool(quick)),
        ("correct".to_owned(), Json::Bool(all_correct)),
        ("machine".to_owned(), Json::Str(harness::machine_facts())),
        ("workloads".to_owned(), Json::obj(results)),
    ]);
    let rendered = doc.render();
    if !quick {
        std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
        let path = Path::new(RESULTS_DIR).join(format!("e2e-seed{seed}.json"));
        std::fs::write(&path, &rendered).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    println!("{rendered}");
    Ok(all_correct)
}

/// Two result files of the same code, metric by metric against the bounds.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let value = |doc: &Json, workload: &str, metric: &str| -> Option<f64> {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut pass = true;
    for workload in &manifest.workloads {
        for (metric, _, better, bound) in &manifest.end_to_end {
            let (Some(x), Some(y)) = (value(&a, workload, metric), value(&b, workload, metric))
            else {
                println!("{workload:<14} {metric:<14} missing from a result file  FAIL");
                pass = false;
                continue;
            };
            // Positive when the second run is worse than the first.
            let worse =
                if better == "higher" { x - y } else { y - x } / x.abs().max(f64::MIN_POSITIVE);
            // Counts and accuracy are exact by design: same seed, same code,
            // same answers.
            let exact = matches!(metric.as_str(), "llm_calls" | "quality");
            let ok = if exact {
                x.to_bits() == y.to_bits()
            } else {
                worse.abs() <= *bound
            };
            pass &= ok;
            println!(
                "{workload:<14} {metric:<14} {x:>14.6} {y:>14.6} {:>+8.2}% {:>6.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("# repeat: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}
