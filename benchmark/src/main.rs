//! The repository's benchmark. See `README.md` beside this crate for the
//! metric and workload glossary and the driver policy.
//!
//! ```text
//! punct-benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result
//! punct-benchmark [--seed N] [--traced] [--check] [--quick]       every workload, each in a child process
//! punct-benchmark --manifest                                      prints BENCHMARK.json
//! ```

mod drive_cluster;
mod drive_exec;
mod lanes;
mod measure;
mod oracle;
mod pace;
mod report;
mod run;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use report::{END_TO_END, PER_LAYER, RUN_SECONDS};
use workload::WORKLOADS;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// `--quick` divides every workload's size by this and measures for
/// [`QUICK_SECONDS`]: a smoke test, not a measurement.
const QUICK_SCALE: usize = 20;
const QUICK_SECONDS: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
    quick: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 17,
        seconds: RUN_SECONDS as f64,
        traced: false,
        check: false,
        quick: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--traced" => args.traced = true,
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Host facts and every fixed driver constant, so that a pasted run says
/// what it measured on.
fn print_header() {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("rustc unknown".to_string(), |v| v.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    println!(
        "host: {cores} cores, {rustc}, probe kernel {}",
        spillstore::ProbeKernel::selected().name()
    );
    println!(
        "driver: {} shards, chunks {}/{} (saturated/paced), in flight <= {}, cluster {} workers polled every {} pushes, run {} s",
        drive_exec::SHARDS,
        drive_exec::SATURATED_CHUNK,
        drive_exec::PACED_CHUNK,
        drive_exec::MAX_IN_FLIGHT,
        drive_cluster::WORKERS,
        drive_cluster::POLL_EVERY,
        RUN_SECONDS
    );
    for w in &WORKLOADS {
        println!(
            "workload {}: {:?} paced at {} el/s",
            w.name, w.shape, w.paced_rate
        );
    }
}

fn main() -> ExitCode {
    // Ambient knobs must not change the measured configuration. Nothing
    // has spawned a thread yet, and children inherit the scrubbed set.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PJOIN_") {
            std::env::remove_var(name);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => one_run(name, &args),
        None => suite(&args),
    }
}

fn one_run(name: &str, args: &Args) -> ExitCode {
    let Some(w) = workload::find(name) else {
        eprintln!(
            "unknown workload {name}; there are: {:?}",
            WORKLOADS.map(|w| w.name)
        );
        return ExitCode::from(2);
    };
    let (scale, seconds) = if args.quick {
        (QUICK_SCALE, QUICK_SECONDS)
    } else {
        (1, args.seconds)
    };
    let outcome = run::run(w, args.seed, seconds, args.traced, scale);
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{name}.failed_share = {share} (of {} expected output elements)",
        outcome.attempted
    );
    println!(
        "{}",
        outcome
            .report
            .result_line(defs, outcome.attempted, outcome.failed)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric values of every workload, from one child process each.
fn suite_pass(args: &Args, traced: bool) -> Option<BTreeMap<&'static str, BTreeMap<String, f64>>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all = BTreeMap::new();
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.quick {
            child.arg("--quick");
        }
        let output = child.output().expect("run a workload in a child process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (lines, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{lines}");
        let parsed = report::parse_result_line(last);
        match parsed {
            Some((true, values)) if output.status.success() => {
                all.insert(w.name, values);
            }
            _ => {
                eprintln!(
                    "{}: run failed ({}); its last line was: {last}",
                    w.name, output.status
                );
                return None;
            }
        }
    }
    Some(all)
}

fn suite(args: &Args) -> ExitCode {
    print_header();
    let Some(first) = suite_pass(args, false) else {
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    if args.check {
        let Some(second) = suite_pass(args, false) else {
            return ExitCode::FAILURE;
        };
        println!("\ncheck: two untraced passes of the same code");
        println!(
            "{:<18} {:<24} {:>14} {:>14} {:>8} {:>7}",
            "workload", "metric", "first", "second", "diff", "bound"
        );
        for w in &WORKLOADS {
            for d in END_TO_END {
                let (a, b) = (first[w.name][d.name], second[w.name][d.name]);
                let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
                let verdict = if diff > d.bound {
                    ok = false;
                    "  OVER"
                } else {
                    ""
                };
                println!(
                    "{:<18} {:<24} {a:>14.4} {b:>14.4} {:>7.1}% {:>6.0}%{verdict}",
                    w.name,
                    d.name,
                    diff * 100.0,
                    d.bound * 100.0
                );
            }
        }
    }
    if args.traced {
        let Some(layers) = suite_pass(args, true) else {
            return ExitCode::FAILURE;
        };
        waterfall(&first, &layers);
    }
    summary(&first);
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("check: two passes of the same code disagree by more than a bound");
        ExitCode::FAILURE
    }
}

fn summary(values: &BTreeMap<&'static str, BTreeMap<String, f64>>) {
    println!(
        "\n{:<26} {}",
        "metric",
        WORKLOADS.map(|w| format!("{:>18}", w.name)).concat()
    );
    for d in END_TO_END {
        let row = WORKLOADS
            .map(|w| format!("{:>18.4}", values[w.name][d.name]))
            .concat();
        println!("{:<26} {row}  {}", d.name, d.unit);
    }
}

/// One stream through each layer in turn, each step with its ratio to
/// the one before: where the in-process to cluster gap goes.
fn waterfall(
    end_to_end: &BTreeMap<&'static str, BTreeMap<String, f64>>,
    layers: &BTreeMap<&'static str, BTreeMap<String, f64>>,
) {
    let steps = [
        (
            "core.single_thread_elems_per_s",
            layers["match_heavy"]["core.single_thread_elems_per_s"],
        ),
        (
            "match_heavy.elems_per_s",
            end_to_end["match_heavy"]["elems_per_s"],
        ),
        ("net.elems_per_s", layers["match_heavy"]["net.elems_per_s"]),
        (
            "cluster_loopback.elems_per_s",
            end_to_end["cluster_loopback"]["elems_per_s"],
        ),
    ];
    let mut line = String::from("\nwaterfall (match_heavy stream, el/s):");
    let mut previous: Option<f64> = None;
    for (name, value) in steps {
        match previous {
            None => line.push_str(&format!(" {name} {value:.0}")),
            Some(p) => line.push_str(&format!(" -> {name} {value:.0} (x{:.3})", value / p)),
        }
        previous = Some(value);
    }
    println!("{line}");
}
