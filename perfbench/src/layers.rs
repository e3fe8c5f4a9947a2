//! Calls into single layers, each inside its own span, shared by the
//! workloads that use those layers.

use gila_designs::CaseStudy;
use gila_lint::{lint_module, lint_rtl, LintOptions, LintStats, Severity};
use gila_mc::{coi_slice, Unrolling};
use gila_smt::SmtSolver;
use gila_trace::{Telemetry, Tracer};
use gila_verify::{rtl_to_ts, verify_port, FinishCondition, VerifyOptions};

use crate::{trace, Samples, Wrong};

/// Lints a design's ILA and RTL as `gila lint --rtl` does. The bundled
/// designs lint without error-class findings, so any is a wrong result.
pub fn lint(cs: &CaseStudy, s: &mut Samples) -> Result<LintStats, Wrong> {
    let tracer = Tracer::disabled();
    let (report, _) = trace::span("lint.module", None, || {
        lint_module(cs.name, &cs.ila, &LintOptions::default(), &tracer)
    });
    let (rtl, _) = trace::span("lint.rtl", None, || lint_rtl(cs.name, &cs.rtl, &tracer));
    s.attempted += 1;
    let errors = report.errors()
        + rtl
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count();
    if errors > 0 {
        return Err(format!("{}: lint reports {errors} error(s)", cs.name));
    }
    Ok(report.stats)
}

/// What a [`static_walk`] saw, summed over ports.
#[derive(Default)]
pub struct Walk {
    /// States and inputs slicing dropped.
    pub dropped: u64,
    /// Invariants the abstract-interpretation fixpoint proved.
    pub invariants: u64,
    /// Telemetry of the `verify_port` calls.
    pub telemetry: Telemetry,
    /// Per-instruction proof times of the `verify_port` calls.
    pub instr_ms: Vec<f64>,
    /// Summed wall time of the `verify_port` calls.
    pub prove_s: f64,
}

impl Walk {
    pub fn add(&mut self, other: Walk) {
        self.dropped += other.dropped;
        self.invariants += other.invariants;
        self.telemetry = self.telemetry.merge(&other.telemetry);
        self.instr_ms.extend(other.instr_ms);
        self.prove_s += other.prove_s;
    }
}

/// Walks each port of a fixed design through the layers a proof uses,
/// called one by one from outside: RTL to transition system, slicing
/// to the mapped states' cone, the abstract-interpretation fixpoint,
/// unrolling to the port's deepest finish bound, bit-blasting every
/// frame, and finally the whole `verify_port`.
pub fn static_walk(cs: &CaseStudy, opts: &VerifyOptions) -> Result<Walk, Wrong> {
    let mut walk = Walk::default();
    for port in cs.ila.ports() {
        let map = cs
            .refmaps
            .iter()
            .find(|m| m.name == port.name())
            .ok_or_else(|| format!("{}: no refinement map for {}", cs.name, port.name()))?;
        let (ts, signals) = trace::span("verify.rtl_to_ts", None, || rtl_to_ts(&cs.rtl))
            .0
            .map_err(|e| format!("{}: {e}", cs.name))?;
        let roots: Vec<_> = map
            .state_map
            .values()
            .filter_map(|s| signals.get(s).copied())
            .collect();
        let ((mut sliced, coi), _) = trace::span("mc.coi", None, || coi_slice(&ts, &roots));
        walk.dropped += (coi.states_dropped + coi.inputs_dropped) as u64;
        let (analysis, _) = trace::span("absint.fixpoint", None, || {
            gila_absint::analyze_ts(&mut sliced)
        });
        walk.invariants += analysis.invariants.len() as u64;
        let depth = map
            .instruction_maps
            .iter()
            .map(|im| match &im.finish {
                FinishCondition::Cycles(n) => *n,
                FinishCondition::Condition { max_cycles, .. } => *max_cycles,
            })
            .max()
            .unwrap_or(1);
        let (unrolling, _) = trace::span("mc.unroll", None, || {
            let mut u = Unrolling::new(&sliced, false);
            u.extend_to(depth);
            u
        });
        trace::span("smt.blast", None, || {
            let mut smt = SmtSolver::new();
            for frame in unrolling.frames() {
                for &e in frame.states.values().chain(&frame.constraints) {
                    smt.encode(unrolling.ctx(), e);
                }
            }
            std::hint::black_box(smt.cnf_vars());
        });
        let (report, secs) = trace::span("verify.port", None, || {
            verify_port(port, &cs.rtl, map, opts)
        });
        let report = report.map_err(|e| format!("{}/{}: {e}", cs.name, port.name()))?;
        if !report.all_hold() {
            return Err(format!(
                "{}/{}: fixed RTL does not verify",
                cs.name,
                port.name()
            ));
        }
        walk.telemetry = walk.telemetry.merge(&report.telemetry);
        walk.instr_ms
            .extend(report.verdicts.iter().map(|v| v.time.as_secs_f64() * 1e3));
        walk.prove_s += secs;
    }
    Ok(walk)
}
