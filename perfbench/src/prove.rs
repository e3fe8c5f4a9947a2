//! `prove-memory` and `prove-control`: Table I proofs, bug searches and
//! lint, split by what dominates the solver's time.

use std::collections::BTreeMap;

use gila_designs::{all_case_studies, CaseStudy};
use gila_lint::LintStats;
use gila_trace::Telemetry;
use gila_verify::{verify_module, CheckResult, ModuleReport, VerifyOptions};

use crate::{layers, median, quantile, trace, Rng, Samples, Wrong};

/// Case-study constructions at set-up and again after every pass;
/// `setup_s` is the median of all of them.
pub const SETUP_REPEATS: usize = 10;
/// Bug searches repeat within a pass until they have taken this long
/// plus a tenth of the pass's proof time (and at least
/// `MIN_BUG_REPEATS` times). Each search is one `bug_s` sample; the run
/// reports their median, which host-load bursts barely move.
const BUG_BUDGET_S: f64 = 0.5;
const MIN_BUG_REPEATS: usize = 3;

pub struct Prove {
    designs: Vec<CaseStudy>,
    /// Indices into `designs` of the fixed designs to prove and lint in
    /// every pass.
    fixed: Vec<usize>,
    /// Indices of the designs whose bug-injected RTL is searched.
    buggy: Vec<usize>,
    jobs: Option<usize>,
    /// Proofs made once per run, before the timed passes, with their
    /// total CPU time.
    once: Vec<ModuleReport>,
    once_s: f64,
    /// Indices of the designs behind `once`.
    once_designs: Vec<usize>,
    /// Verdicts and telemetry of the latest pass, for the layer metrics.
    last: Vec<ModuleReport>,
    last_prove_s: f64,
    last_lint: LintStats,
}

/// Builds the registry `SETUP_REPEATS` times and returns the last copy.
pub fn timed_setup(s: &mut Samples) -> Vec<CaseStudy> {
    let mut designs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (d, secs) = trace::span("setup", None, all_case_studies);
        s.setup.push(secs);
        designs = d;
    }
    designs
}

pub fn index_of(designs: &[CaseStudy], names: &[&str]) -> Vec<usize> {
    names
        .iter()
        .map(|n| {
            designs
                .iter()
                .position(|cs| cs.name == *n)
                .unwrap_or_else(|| panic!("case study {n:?} is not registered"))
        })
        .collect()
}

/// The six designs whose memories have at most 16 words.
pub const CONTROL: [&str; 6] = [
    "Decoder",
    "AXI Slave",
    "AXI Master",
    "L2 Cache",
    "Mem. Interface",
    "NoC Router",
];

impl Prove {
    /// Store Buffer (64-byte `buffer`) in every pass and Datapath
    /// (256-byte `iram`) once per run, under `VerifyOptions::default()`,
    /// the options `gila verify` runs with no flags.
    ///
    /// One Datapath proof takes 15-29 s on a shared 2-CPU host, so no
    /// more than one fits in a run and its time would be a single
    /// sample with nothing to take a median over: it is proved and
    /// checked once, before the timed passes, and shows in
    /// `peak_rss_mb` and in the traced run's per-layer metrics.
    pub fn memory(s: &mut Samples) -> Result<Prove, Wrong> {
        Prove::new(s, &["Store Buffer"], &["Datapath"], &["Store Buffer"], None)
    }

    /// The six control designs on a pool of two workers, one per CPU.
    pub fn control(s: &mut Samples) -> Result<Prove, Wrong> {
        Prove::new(s, &CONTROL, &[], &["AXI Slave", "L2 Cache"], Some(2))
    }

    fn new(
        s: &mut Samples,
        fixed: &[&str],
        once: &[&str],
        buggy: &[&str],
        jobs: Option<usize>,
    ) -> Result<Prove, Wrong> {
        let designs = timed_setup(s);
        let mut w = Prove {
            fixed: index_of(&designs, fixed),
            once_designs: index_of(&designs, once),
            buggy: index_of(&designs, buggy),
            designs,
            jobs,
            once: Vec::new(),
            once_s: 0.0,
            last: Vec::new(),
            last_prove_s: 0.0,
            last_lint: LintStats::default(),
        };
        for i in w.once_designs.clone() {
            let (report, secs) = w.prove(i, s)?;
            eprintln!("{} proved once: {secs:.3} s CPU", w.designs[i].name);
            w.once.push(report);
            w.once_s += secs;
        }
        Ok(w)
    }

    fn opts(&self) -> VerifyOptions {
        VerifyOptions {
            jobs: self.jobs,
            ..VerifyOptions::default()
        }
    }

    /// Proves one fixed design; every instruction must hold. UNKNOWN and
    /// panicked verdicts count as failed operations.
    fn prove(&self, i: usize, s: &mut Samples) -> Result<(ModuleReport, f64), Wrong> {
        let cs = &self.designs[i];
        let (report, secs) = trace::span("verify.module", None, || {
            verify_module(&cs.ila, &cs.rtl, &cs.refmaps, &self.opts())
        });
        let report = report.map_err(|e| format!("{}: {e}", cs.name))?;
        let c = report.counts();
        s.attempted += report.instructions_checked() as u64;
        s.failed += (c.unknown + c.panicked) as u64;
        let instructions: usize = cs.ila.ports().iter().map(|p| p.instructions().len()).sum();
        if c.cex + c.unreached > 0 || c.holds + c.unknown + c.panicked != instructions {
            return Err(format!("{}: fixed RTL does not verify: {c:?}", cs.name));
        }
        Ok((report, secs))
    }
}

impl crate::Workload for Prove {
    fn setup(&mut self, s: &mut Samples) -> Result<(), Wrong> {
        timed_setup(s);
        Ok(())
    }

    fn pass(&mut self, rng: &mut Rng, s: &mut Samples) -> Result<(), Wrong> {
        let mut order = self.fixed.clone();
        rng.shuffle(&mut order);
        self.last.clear();
        let mut prove_s = 0.0;
        for i in order {
            let (report, secs) = self.prove(i, s)?;
            prove_s += secs;
            s.op(self.designs[i].name.to_string(), secs * 1e3);
            self.last.push(report);
        }
        s.check.push(prove_s);
        self.last_prove_s = prove_s;

        let bug_opts = VerifyOptions {
            stop_at_first_cex: true,
            ..self.opts()
        };
        let budget = BUG_BUDGET_S + 0.1 * prove_s;
        let (mut spent, mut repeats) = (0.0, 0);
        while repeats < MIN_BUG_REPEATS || spent < budget {
            repeats += 1;
            let mut bug_s = 0.0;
            for &i in &self.buggy {
                let cs = &self.designs[i];
                let rtl = cs.buggy_rtl.as_ref().expect("buggy designs have buggy RTL");
                let (report, secs) = trace::span("verify.first_cex", None, || {
                    verify_module(&cs.ila, rtl, &cs.refmaps, &bug_opts)
                });
                let report = report.map_err(|e| format!("{} (buggy): {e}", cs.name))?;
                s.attempted += 1;
                let c = report.counts();
                s.failed += (c.unknown + c.panicked) as u64;
                let found = report.ports.iter().flat_map(|p| &p.verdicts).any(|v| {
                    matches!(&v.result, CheckResult::CounterExample(cex) if !cex.mismatched_states.is_empty())
                });
                if !found {
                    return Err(format!("{} (buggy): no counterexample found", cs.name));
                }
                bug_s += secs;
            }
            spent += bug_s;
            s.bug.push(bug_s);
        }

        self.last_lint = LintStats::default();
        for &i in &self.fixed {
            let stats = layers::lint(&self.designs[i], s)?;
            self.last_lint.merge(&stats);
        }
        Ok(())
    }

    fn layers(&mut self, _rng: &mut Rng) -> Result<BTreeMap<&'static str, f64>, Wrong> {
        let opts = self.opts();
        let mut walk = layers::Walk::default();
        for &i in self.fixed.iter().chain(&self.once_designs) {
            walk.add(layers::static_walk(&self.designs[i], &opts)?);
        }
        let mut t = Telemetry::default();
        let mut instr_ms = Vec::new();
        let mut pooled = 0usize;
        for r in self.last.iter().chain(&self.once) {
            t = t.merge(&r.telemetry);
            for v in r.ports.iter().flat_map(|p| &p.verdicts) {
                instr_ms.push(v.time.as_secs_f64() * 1e3);
                pooled += usize::from(v.worker.is_some());
            }
        }
        let mut m = solver_metrics(&t, self.last_prove_s + self.once_s);
        m.insert("mc.coi_dropped", walk.dropped as f64);
        m.insert("absint.invariants", walk.invariants as f64);
        m.insert("verify.instr_p50_ms", median(&instr_ms));
        m.insert("verify.instr_p99_ms", quantile(&instr_ms, 0.99));
        m.insert(
            "sched.pooled_share",
            pooled as f64 / instr_ms.len().max(1) as f64,
        );
        m.insert(
            "lint.discharged_static",
            self.last_lint.lints_discharged_static as f64,
        );
        m.insert(
            "lint.sat_calls_avoided",
            self.last_lint.sat_calls_avoided as f64,
        );
        Ok(m)
    }
}

/// Solver, scheduler and slicing counts from a pass's telemetry.
/// `learnt_clauses` is deliberately not read: it is a gauge diffed as
/// a delta, not a count of clauses learned.
pub fn solver_metrics(t: &Telemetry, prove_s: f64) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("smt.cnf_vars", t.cnf_vars as f64),
        ("smt.cnf_clauses", t.cnf_clauses as f64),
        ("sat.decisions", t.decisions as f64),
        ("sat.propagations", t.propagations as f64),
        ("sat.conflicts", t.conflicts as f64),
        (
            "sat.decisions_per_conflict",
            t.decisions as f64 / t.conflicts.max(1) as f64,
        ),
        ("sat.props_per_s", t.propagations as f64 / prove_s.max(1e-9)),
        (
            "sat.inprocess_clauses_removed",
            t.inprocess_clauses_removed as f64,
        ),
        ("sched.queue_ms", t.queue_ns as f64 / 1e6),
        ("sched.batches", t.batches as f64),
        ("sched.steals", t.steals as f64),
        ("verify.solves", t.solves as f64),
    ])
}
