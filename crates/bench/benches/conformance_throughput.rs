//! **E11**: conformance-harness throughput — how many differential
//! cases per second the fuzz smoke sustains, per check stage.
//!
//! The CI gate budgets the 10k-case smoke at 90 seconds; this bench
//! keeps an eye on the real number so the budget never silently erodes.
//! Stages measured per case: campaign generation alone, partial
//! emission alone, and the full case (generation + emission + device
//! apply + readback compare + followup).

use bench::{header, row};
use bitstream::bitgen;
use conformance::harness::run_case;
use conformance::Campaign;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use virtex::ConfigMemory;

const BLOCK: u64 = 512;

fn print_table() {
    println!("\n== E11: conformance harness throughput ({BLOCK}-seed block) ==");
    header(&["stage", "cases/s", "µs/case"]);

    let t = Instant::now();
    for seed in 0..BLOCK {
        let c = Campaign::generate(seed);
        std::hint::black_box(&c.ops);
    }
    report("campaign generation", t.elapsed().as_secs_f64());

    let t = Instant::now();
    for seed in 0..BLOCK {
        let c = Campaign::generate(seed);
        let base = ConfigMemory::new(c.device);
        let variant = c.apply(&base);
        let ranges = bitgen::coalesce_frames(variant.dirty_frames());
        std::hint::black_box(bitgen::partial_bitstream(&variant, &ranges));
    }
    report("partial emission", t.elapsed().as_secs_f64());

    let t = Instant::now();
    for seed in 0..BLOCK {
        run_case(seed).expect("conformance case");
    }
    report("full case (apply + readback)", t.elapsed().as_secs_f64());
}

fn report(stage: &str, dt: f64) {
    row(&[
        stage.to_string(),
        format!("{:.0}", BLOCK as f64 / dt),
        format!("{:.1}", dt / BLOCK as f64 * 1e6),
    ]);
}

fn bench_cases(c: &mut Criterion) {
    let mut g = c.benchmark_group("conformance");
    g.bench_function("run_case/seed-block-16", |b| {
        b.iter(|| {
            for seed in 0..16 {
                run_case(seed).expect("conformance case");
            }
        })
    });
    g.finish();
}

fn main_with_table(c: &mut Criterion) {
    print_table();
    bench_cases(c);
}

criterion_group!(benches, main_with_table);
criterion_main!(benches);
