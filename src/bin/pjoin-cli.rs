//! `pjoin-cli` — run punctuated-stream joins over trace files.
//!
//! ```text
//! pjoin-cli generate --tuples 5000 --punct-every 20 --seed 7 --out-left a.trace --out-right b.trace
//! pjoin-cli validate --input a.trace
//! pjoin-cli join --left a.trace --right b.trace --purge lazy:100 --propagate 10 --out out.trace
//! ```
//!
//! Traces use the textual format of `streamgen::trace` (`T <ts> (v, …)`
//! data lines, `P <ts> <pat, …>` punctuation lines), so workloads can be
//! generated once, inspected with ordinary text tools, and replayed
//! deterministically.

use std::process::ExitCode;

use punctuated_streams::core::{PJoin, PJoinBuilder};
use punctuated_streams::gen::trace::{read_trace, write_trace};
use punctuated_streams::gen::{generate_pair, validate_stream, StreamConfig};
use punctuated_streams::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("join") => cmd_join(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `pjoin-cli help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "pjoin-cli — punctuated-stream joins over trace files

USAGE:
  pjoin-cli generate --out-left <file> --out-right <file>
                     [--tuples N] [--punct-every X] [--punct-every-b X]
                     [--key-window W] [--seed S]
  pjoin-cli validate --input <file> [--join-attr I]
  pjoin-cli join     --left <file> --right <file>
                     [--purge eager|lazy:N|never] [--propagate N]
                     [--window MICROS] [--buckets N] [--memory-max N]
                     [--out <file>] [--quiet]"
    );
}

/// Minimal `--flag value` parser.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Result<Option<&'a str>, String> {
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if a == name {
                return match it.next() {
                    Some(v) => Ok(Some(v.as_str())),
                    None => Err(format!("flag {name} expects a value")),
                };
            }
        }
        Ok(None)
    }

    fn require(&self, name: &str) -> Result<&'a str, String> {
        self.get(name)?.ok_or_else(|| format!("missing required flag {name}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("flag {name}: cannot parse `{v}`")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let f = Flags { args };
    let out_left = f.require("--out-left")?;
    let out_right = f.require("--out-right")?;
    let tuples: usize = f.parse_or("--tuples", 5_000)?;
    let punct_a: f64 = f.parse_or("--punct-every", 20.0)?;
    let punct_b: f64 = f.parse_or("--punct-every-b", punct_a)?;
    let key_window: u64 = f.parse_or("--key-window", 10)?;
    let seed: u64 = f.parse_or("--seed", 0)?;

    let cfg = StreamConfig { tuples, key_window, seed, ..StreamConfig::default() };
    let (a, b) = generate_pair(&cfg, punct_a, punct_b);
    std::fs::write(out_left, write_trace(&a.elements)).map_err(|e| e.to_string())?;
    std::fs::write(out_right, write_trace(&b.elements)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out_left} ({} tuples, {} punctuations) and {out_right} ({} tuples, {} punctuations)",
        a.tuples, a.punctuations, b.tuples, b.punctuations
    );
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let f = Flags { args };
    let input = f.require("--input")?;
    let join_attr: usize = f.parse_or("--join-attr", 0)?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let elements = read_trace(&text).map_err(|e| format!("{input}: {e}"))?;
    let report = validate_stream(&elements, join_attr);
    println!(
        "{input}: {} tuples, {} punctuations",
        report.tuples, report.punctuations
    );
    // The disjoint-or-nested pattern assumption (§2.2) is an *input*
    // precondition for join optimization, not a semantic requirement —
    // join outputs legitimately interleave punctuations from both
    // sides. Report it as information only.
    if !report.incompatible_pairs.is_empty() {
        println!(
            "note: {} punctuation pairs violate the disjoint-or-nested input assumption",
            report.incompatible_pairs.len()
        );
    }
    if report.violations.is_empty() {
        println!("well-formed: yes (no tuple follows a punctuation it matches)");
        Ok(())
    } else {
        println!("well-formed: NO — {} tuple violations", report.violations.len());
        for idx in report.violations.iter().take(5) {
            println!("  violation at element {idx}: {}", elements[*idx].item);
        }
        Err("stream is not well-formed".into())
    }
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    let f = Flags { args };
    let left_path = f.require("--left")?;
    let right_path = f.require("--right")?;
    let load = |path: &str| -> Result<_, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        read_trace(&text).map_err(|e| format!("{path}: {e}"))
    };
    let left = load(left_path)?;
    let right = load(right_path)?;

    let width = |s: &[Timestamped<StreamElement>], name: &str| -> Result<usize, String> {
        s.iter()
            .find_map(|e| e.item.as_tuple().map(Tuple::width))
            .ok_or_else(|| format!("{name}: no tuples in trace"))
    };
    let (wa, wb) = (width(&left, left_path)?, width(&right, right_path)?);

    let mut builder = PJoinBuilder::new(wa, wb)
        .buckets(f.parse_or("--buckets", 64)?)
        .memory_max(f.parse_or("--memory-max", 0)?);
    builder = match f.get("--purge")? {
        None | Some("eager") => builder.eager_purge(),
        Some("never") => builder.never_purge(),
        Some(spec) => match spec.strip_prefix("lazy:") {
            Some(n) => builder
                .lazy_purge(n.parse().map_err(|_| format!("bad lazy threshold `{n}`"))?),
            None => return Err(format!("--purge: expected eager|lazy:N|never, got `{spec}`")),
        },
    };
    builder = match f.get("--propagate")? {
        None => builder.no_propagation(),
        Some(n) => builder
            .propagate_every(n.parse().map_err(|_| format!("bad propagate count `{n}`"))?),
    };
    if let Some(w) = f.get("--window")? {
        builder =
            builder.window_micros(w.parse().map_err(|_| format!("bad window `{w}`"))?);
    }

    let mut op: PJoin = builder.build();
    let driver = Driver::new(DriverConfig {
        cost: CostModel::free(),
        sample_every_micros: 1_000_000,
        collect_outputs: true,
        trace: punctuated_streams::trace::TraceSettings::default(),
    });
    let stats = driver.run(&mut op, &left, &right);

    if let Some(out_path) = f.get("--out")? {
        std::fs::write(out_path, write_trace(&stats.outputs)).map_err(|e| e.to_string())?;
    }
    if !f.has("--quiet") {
        println!("inputs:        {} + {} elements", left.len(), right.len());
        println!("results:       {} tuples", stats.total_out_tuples);
        println!("punctuations:  {} propagated", stats.total_out_puncts);
        println!("peak state:    {} tuples", stats.peak_state());
        let s = op.stats();
        println!(
            "purges: {} ({} tuples) | dropped on fly: {} | expired: {} | spills: {}",
            s.purge_runs, s.tuples_purged, s.dropped_on_fly, s.tuples_expired, s.relocations
        );
    }
    Ok(())
}
