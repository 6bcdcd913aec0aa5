//! Bounded fuzz-smoke runner for CI and local soak testing.
//!
//! Deterministic: seeds run `base..base+cases`, so a CI failure
//! reproduces locally with the printed seed. Three seeds in four drive a
//! full harness case, the fourth a packet-fuzz case; with
//! `--self-check` the seeded-mutation gate runs too (at least nine of
//! the ten seeded bugs must be detected).
//!
//! Usage: `fuzz_smoke [--cases N] [--seed S] [--project N] [--self-check]`

use conformance::harness::{run_case, run_project_case};
use conformance::{fuzz_case, mutation, Schedule};

fn main() {
    let mut cases: u64 = 10_000;
    let mut base_seed: u64 = 0;
    let mut project_cases: u64 = 3;
    let mut self_check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |k: usize| {
            args.get(k + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{} needs a numeric argument", args[k]);
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--cases" => {
                cases = need(i);
                i += 2;
            }
            "--seed" => {
                base_seed = need(i);
                i += 2;
            }
            "--project" => {
                project_cases = need(i);
                i += 2;
            }
            "--self-check" => {
                self_check = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    let mut harness_cases = 0u64;
    let mut fuzz_cases = 0u64;
    let mut frames = 0u64;
    let mut by_schedule = [0u64; 4];
    let mut devices = std::collections::BTreeMap::new();

    for seed in base_seed..base_seed + cases {
        if seed % 4 == 3 {
            fuzz_cases += 1;
            if let Err(f) = fuzz_case(seed) {
                eprintln!("FAIL (packet fuzz): {f}");
                failures += 1;
            }
        } else {
            harness_cases += 1;
            match run_case(seed) {
                Ok(o) => {
                    frames += o.frames as u64;
                    by_schedule[match o.schedule {
                        Schedule::Plain => 0,
                        Schedule::ReadbackAfterReadback => 1,
                        Schedule::InterleavedPartials => 2,
                        Schedule::AbortAndRebase => 3,
                    }] += 1;
                    *devices.entry(format!("{:?}", o.device)).or_insert(0u64) += 1;
                }
                Err(f) => {
                    eprintln!("FAIL (harness): {f}");
                    failures += 1;
                }
            }
        }
        if failures >= 5 {
            eprintln!("stopping after 5 failures");
            break;
        }
    }

    for k in 0..project_cases {
        if let Err(f) = run_project_case(base_seed + k) {
            eprintln!("FAIL (project): {f}");
            failures += 1;
        }
    }

    if self_check {
        let report = mutation::self_check(base_seed ^ 0xC0FFEE);
        println!(
            "self-check: {}/{} seeded bugs detected",
            report.detected.len(),
            report.detected.len() + report.missed.len()
        );
        for (bug, f) in &report.detected {
            println!("  caught {bug:?} via {}", f.stage);
        }
        if !report.missed.is_empty() {
            eprintln!("  MISSED: {:?}", report.missed);
        }
        if report.detected.len() < 9 {
            eprintln!("FAIL (self-check): fewer than 9/10 seeded bugs detected");
            failures += 1;
        }
    }

    let dt = t0.elapsed();
    println!(
        "{harness_cases} harness cases ({frames} frames; schedules plain/rb2/interleave/rebase = {}/{}/{}/{}), \
         {fuzz_cases} packet-fuzz cases, {project_cases} project cases in {:.1}s",
        by_schedule[0],
        by_schedule[1],
        by_schedule[2],
        by_schedule[3],
        dt.as_secs_f64()
    );
    let dev_summary: Vec<String> = devices.iter().map(|(d, n)| format!("{d}:{n}")).collect();
    println!("device mix: {}", dev_summary.join(" "));

    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
    println!("all checks passed");
}
