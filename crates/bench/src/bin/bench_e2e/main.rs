//! `bench_e2e`: the end-to-end and per-layer benchmark of the FaaSMem
//! simulator on four fixed workloads (see `README.md` beside this file).
//!
//! ```text
//! bench_e2e [--out DIR] [--reps N] [--seed S]
//!     every workload: N untraced repetitions (default 3) and one traced
//!     one; prints every metric and writes DIR/bench_e2e.json
//! bench_e2e --workload W [--seed S] [--seconds T] [--trace 0|1]
//!     untraced repetitions of W for about T seconds (default 10), plus
//!     one traced repetition with --trace 1; the last stdout line is one
//!     JSON object with the end-to-end (or, traced, per-layer) metrics
//! bench_e2e compare BASE.json NEW.json
//!     applies each end-to-end metric's bound; exits 1 past a bound
//! ```
//!
//! Every repetition runs in a fresh child process (`--child W`), so peak
//! RSS and allocator state belong to that repetition alone. Any failed
//! correctness check exits 1.

mod compare;
mod metrics;
mod probe;
mod report;
mod run;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use faasmem_trace::json::{self, JsonValue};

use report::WorkloadResult;
use run::Rep;
use workloads::{Setup, Workload};

const USAGE: &str = "usage: bench_e2e [--out DIR] [--reps N] [--seed S]
       bench_e2e --workload W [--seed S] [--seconds T] [--trace 0|1]
       bench_e2e compare BASE.json NEW.json
workloads: azure_cluster, azure_cluster_nooffload, bert_4k, rack_chaos";

#[derive(Debug, PartialEq)]
enum Mode {
    Full {
        out: Option<PathBuf>,
        reps: usize,
        seed: u64,
    },
    Timed {
        workload: Workload,
        seed: u64,
        seconds: u64,
        traced: bool,
    },
    Child {
        workload: Workload,
        seed: u64,
        traced: bool,
    },
    Compare {
        base: PathBuf,
        new: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [base, new] => Ok(Mode::Compare {
                base: base.into(),
                new: new.into(),
            }),
            _ => Err("compare takes exactly two report files".to_string()),
        };
    }
    let mut out = None;
    let mut reps = 3;
    let mut seed = 0;
    let mut seconds = 10;
    let mut traced = false;
    let mut workload = None;
    let mut child = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value)),
            "--reps" => reps = number()?.clamp(1, 1000) as usize,
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--workload" | "--child" => {
                child = flag == "--child";
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(match (workload, child) {
        (None, _) => Mode::Full { out, reps, seed },
        (Some(workload), true) => Mode::Child {
            workload,
            seed,
            traced,
        },
        (Some(workload), false) => Mode::Timed {
            workload,
            seed,
            seconds,
            traced,
        },
    })
}

/// Runs one repetition in a fresh child process and waits for it.
fn spawn_rep(workload: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition of {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "repetition of {} failed: {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("repetition of {} printed nothing", workload.name()))?;
    report::rep_from_line(line)
}

/// The full report: every workload at a fixed repetition count.
fn full(out: Option<PathBuf>, reps: usize, seed: u64) -> Result<i32, String> {
    let mut entries = Vec::new();
    let mut failed = false;
    for workload in Workload::ALL {
        let untraced = (0..reps)
            .map(|_| spawn_rep(workload, seed, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = spawn_rep(workload, seed, true)?;
        let result = WorkloadResult::new(workload, &untraced, Some(&traced));
        print!("{}", result.table());
        failed |= !result.verdict.problems.is_empty();
        entries.push(result.to_json());
    }
    if let Some(dir) = out {
        let mut doc = JsonValue::obj();
        doc.push("bench", JsonValue::Str("bench_e2e".to_string()));
        doc.push("seed", JsonValue::Num(seed as f64));
        doc.push("reps", JsonValue::Num(reps as f64));
        doc.push("workloads", JsonValue::Arr(entries));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join("bench_e2e.json");
        std::fs::write(&path, doc.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("bench_e2e: wrote {}", path.display());
    }
    Ok(i32::from(failed))
}

/// A timed run: untraced repetitions while another fits in `seconds`,
/// then the traced one if asked for.
fn timed(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<i32, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut reps = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let start = Instant::now();
        reps.push(spawn_rep(workload, seed, false)?);
        longest = longest.max(start.elapsed());
        // With a traced repetition still to come, leave room for it and
        // one more untraced one; a traced repetition runs a little slower.
        let next = if traced { longest * 5 / 2 } else { longest };
        if Instant::now() + next > deadline {
            break;
        }
    }
    let traced_rep = traced
        .then(|| spawn_rep(workload, seed, true))
        .transpose()?;
    let result = WorkloadResult::new(workload, &reps, traced_rep.as_ref());
    eprint!("{}", result.table());
    println!("{}", result.result_line(traced));
    Ok(i32::from(!result.verdict.problems.is_empty()))
}

fn child(workload: Workload, seed: u64, traced: bool) -> Result<i32, String> {
    let setup = Setup::new(workload, seed);
    let rep = run::run_rep(&setup, workload.threads(), traced)?;
    println!("{}", report::rep_to_line(&rep));
    Ok(0)
}

fn compare(base: PathBuf, new: PathBuf) -> Result<i32, String> {
    let read = |path: &PathBuf| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, ok) = compare::compare(&read(&base)?, &read(&new)?)?;
    print!("{table}");
    Ok(i32::from(!ok))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Err(msg) => {
            eprintln!("bench_e2e: {msg}\n{USAGE}");
            2
        }
        Ok(mode) => {
            let result = match mode {
                Mode::Full { out, reps, seed } => full(out, reps, seed),
                Mode::Timed {
                    workload,
                    seed,
                    seconds,
                    traced,
                } => timed(workload, seed, seconds, traced),
                Mode::Child {
                    workload,
                    seed,
                    traced,
                } => child(workload, seed, traced),
                Mode::Compare { base, new } => compare(base, new),
            };
            result.unwrap_or_else(|e| {
                eprintln!("bench_e2e: {e}");
                1
            })
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_mode() {
        assert_eq!(
            parse_args(&args(&[])),
            Ok(Mode::Full {
                out: None,
                reps: 3,
                seed: 0
            })
        );
        assert_eq!(
            parse_args(&args(&[
                "--workload",
                "bert_4k",
                "--seed",
                "7",
                "--seconds",
                "20",
                "--trace",
                "1"
            ])),
            Ok(Mode::Timed {
                workload: Workload::Bert4k,
                seed: 7,
                seconds: 20,
                traced: true
            })
        );
        assert_eq!(
            parse_args(&args(&["--child", "rack_chaos", "--trace", "1"])),
            Ok(Mode::Child {
                workload: Workload::RackChaos,
                seed: 0,
                traced: true
            })
        );
        assert_eq!(
            parse_args(&args(&["compare", "a.json", "b.json"])),
            Ok(Mode::Compare {
                base: "a.json".into(),
                new: "b.json".into()
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seed", "-1"],
            &["--bogus", "1"],
            &["compare", "a.json"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
