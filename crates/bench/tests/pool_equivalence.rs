//! Scheduler equivalence on the real case studies.
//!
//! A one-worker run and a four-worker pool must produce the same
//! verdicts and the same telemetry span set. The span comparison uses
//! [`gila_trace::span_set`], which ignores ordering and volatile timing
//! fields but catches missing or extra work (a port that was never
//! sliced, an instruction that was never solved).

use std::collections::BTreeSet;

use gila_designs::{all_case_studies, CaseStudy};
use gila_rtl::RtlModule;
use gila_trace::{span_set, Tracer};
use gila_verify::{verify_module, VerifyOptions};

/// (port, instruction, holds) triple per verdict, the span set of the
/// run's telemetry trace, and how many verdicts a pool worker served.
type RunShape = (
    Vec<(String, String, bool)>,
    BTreeSet<(String, String, String, String)>,
    usize,
);

fn run_shape(cs: &CaseStudy, rtl: &RtlModule, jobs: usize) -> RunShape {
    let (tracer, ring) = Tracer::ring(1 << 16);
    let opts = VerifyOptions {
        jobs: Some(jobs),
        tracer,
        ..Default::default()
    };
    let report = verify_module(&cs.ila, rtl, &cs.refmaps, &opts).expect("well-formed");
    let mut verdicts = Vec::new();
    let mut pooled = 0;
    for port in &report.ports {
        for v in &port.verdicts {
            verdicts.push((port.port.clone(), v.instruction.clone(), v.result.holds()));
            pooled += usize::from(v.worker.is_some());
        }
    }
    verdicts.sort();
    let jsonl: String = ring
        .events()
        .iter()
        .map(|e| e.to_json_line() + "\n")
        .collect();
    (
        verdicts,
        span_set(&jsonl).expect("trace is well-formed JSONL"),
        pooled,
    )
}

/// Runs `cs` at `jobs = 1` and `jobs = 4` and asserts equal verdicts and
/// span sets; returns how many verdicts the four-worker run pooled.
fn assert_equivalent(cs: &CaseStudy, rtl: &RtlModule, tag: &str) -> usize {
    let one = run_shape(cs, rtl, 1);
    assert_eq!(
        one.2, 0,
        "{} ({tag}): a one-worker run names no worker",
        cs.name
    );
    let pool = run_shape(cs, rtl, 4);
    assert_eq!(
        one.0, pool.0,
        "{} ({tag}): jobs=4 changed a verdict",
        cs.name
    );
    assert_eq!(
        one.1, pool.1,
        "{} ({tag}): jobs=4 changed the span set",
        cs.name
    );
    pool.2
}

#[test]
fn pool_matches_one_worker_on_correct_rtl() {
    for cs in all_case_studies() {
        // One single-port, one multi-port AXI, and the multi-port cache
        // design cover the shapes the work threshold keeps on one
        // worker; the NoC Router is big enough to run on a real pool.
        if !matches!(cs.name, "Decoder" | "AXI Slave" | "L2 Cache" | "NoC Router") {
            continue;
        }
        let rtl = cs.rtl.clone();
        let pooled = assert_equivalent(&cs, &rtl, "correct");
        if cs.name == "NoC Router" {
            assert_eq!(
                pooled,
                cs.ila.stats().instructions,
                "NoC Router must run every instruction on the pool"
            );
        }
    }
}

#[test]
fn pool_matches_one_worker_on_buggy_rtl() {
    // Failing verdicts (with counterexamples) must also be stable
    // across worker counts, not just passing ones.
    for cs in all_case_studies() {
        if !matches!(cs.name, "Decoder" | "AXI Slave") {
            continue;
        }
        let Some(buggy) = cs.buggy_rtl.clone() else {
            continue;
        };
        assert_equivalent(&cs, &buggy, "buggy");
    }
}
