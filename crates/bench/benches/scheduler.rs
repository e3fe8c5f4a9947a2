//! Criterion bench: one worker vs the work-stealing pool.
//!
//! `seq` is `jobs = 1`: one worker, inline, one persistent engine per
//! port. `jobs4` is a four-worker pool where each worker keeps its own
//! per-port engines, so the blasted transition relation is paid once
//! per (worker, port) and the solves run in parallel.

use criterion::{criterion_group, criterion_main, Criterion};
use gila_designs::all_case_studies;
use gila_verify::{verify_module, VerifyOptions};

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for cs in all_case_studies() {
        // The two designs big enough for `jobs = 4` to run a real pool
        // (smaller ones stay on one worker); the full sweep lives in
        // `bench_verify` / BENCH_verify.json.
        if !matches!(cs.name, "Store Buffer" | "NoC Router") {
            continue;
        }
        for (label, jobs) in [("seq", 1usize), ("jobs4", 4)] {
            let opts = VerifyOptions {
                jobs: Some(jobs),
                ..Default::default()
            };
            group.bench_function(format!("{}/{label}", cs.name), |b| {
                b.iter(|| {
                    let report = verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &opts)
                        .expect("well-formed");
                    assert!(report.all_hold());
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
