//! `hunt`: randomized co-simulation on compiled tapes, with the ddmin
//! shrinker on the bug variants. Never calls the SAT solver.

use std::collections::BTreeMap;

use gila_designs::CaseStudy;
use gila_rtl::RtlModule;
use gila_trace::Tracer;
use gila_verify::{
    cosimulate, cosimulate_compiled, hunt, shrink_divergence, HuntConfig, HuntFinding, HuntTarget,
};

use crate::prove::timed_setup;
use crate::{trace, Rng, Samples, Wrong};

/// Seeds and commands per seed for each fixed-design port.
const SEEDS: u64 = 8;
const CYCLES: usize = 2048;
/// Seeds and commands per seed for each bug-variant port; every
/// diverging seed is shrunk. The Store Buffer bug shows within 256
/// commands on about a third of seeds, so 48 seeds miss it with odds
/// below 1e-8; short streams keep the findings' size, and so the peak
/// RSS, nearly independent of the seed.
const BUG_SEEDS: u64 = 48;
const BUG_CYCLES: usize = 256;
/// Cycles per target for the layer throughput probes.
const COMPILED_CYCLES: usize = 50_000;
const INTERP_CYCLES: usize = 1_000;

pub struct Hunt {
    designs: Vec<CaseStudy>,
    last_cycles: u64,
    last_check_s: f64,
    /// Findings of the latest bug pass, by design index.
    last_findings: Vec<(usize, HuntFinding)>,
}

fn targets<'a>(cs: &'a CaseStudy, rtl: &'a RtlModule) -> Vec<HuntTarget<'a>> {
    cs.ila
        .ports()
        .iter()
        .map(|port| HuntTarget {
            design: cs.name,
            port,
            rtl,
            map: cs
                .refmaps
                .iter()
                .find(|m| m.name == port.name())
                .expect("every bundled port has a refinement map"),
        })
        .collect()
}

impl Hunt {
    pub fn new(s: &mut Samples) -> Hunt {
        Hunt {
            designs: timed_setup(s),
            last_cycles: 0,
            last_check_s: 0.0,
            last_findings: Vec::new(),
        }
    }
}

impl crate::Workload for Hunt {
    fn setup(&mut self, s: &mut Samples) -> Result<(), Wrong> {
        timed_setup(s);
        Ok(())
    }

    fn pass(&mut self, rng: &mut Rng, s: &mut Samples) -> Result<(), Wrong> {
        let tracer = Tracer::disabled();
        // One call per port, so each port's latency is an operation.
        let mut order: Vec<HuntTarget> = self
            .designs
            .iter()
            .flat_map(|cs| targets(cs, &cs.rtl))
            .collect();
        rng.shuffle(&mut order);
        let (mut check_s, mut cycles) = (0.0, 0);
        for t in order {
            let cfg = HuntConfig {
                seeds: SEEDS,
                cycles: CYCLES,
                jobs: 1,
                seed_base: rng.next_u64() >> 8,
                shrink: true,
            };
            let (report, secs) = trace::span("hunt.fixed", None, || hunt(&[t], &cfg, &tracer));
            let report = report.map_err(|e| format!("{}/{}: {e}", t.design, t.port.name()))?;
            s.attempted += report.tasks as u64;
            s.failed += report.errors.len() as u64;
            if let Some(f) = report.findings.first() {
                return Err(format!(
                    "{}: fixed RTL diverged on port {} seed {}",
                    t.design, f.port, f.seed
                ));
            }
            s.op(format!("{}/{}", t.design, t.port.name()), secs * 1e3);
            check_s += secs;
            cycles += report.cycles_run;
        }
        s.check.push(check_s);
        self.last_check_s = check_s;
        self.last_cycles = cycles;

        let mut buggy: Vec<usize> = (0..self.designs.len())
            .filter(|&i| self.designs[i].buggy_rtl.is_some())
            .collect();
        rng.shuffle(&mut buggy);
        let mut bug_s = 0.0;
        self.last_findings.clear();
        for &i in &buggy {
            let cs = &self.designs[i];
            let rtl = cs.buggy_rtl.as_ref().expect("filtered on buggy RTL");
            let cfg = HuntConfig {
                seeds: BUG_SEEDS,
                cycles: BUG_CYCLES,
                jobs: 1,
                seed_base: rng.next_u64() >> 8,
                shrink: true,
            };
            let (report, secs) = trace::span("hunt.buggy", None, || {
                hunt(&targets(cs, rtl), &cfg, &tracer)
            });
            let report = report.map_err(|e| format!("{} (buggy): {e}", cs.name))?;
            s.attempted += report.tasks as u64;
            s.failed += report.errors.len() as u64;
            if report.findings.is_empty() {
                return Err(format!("{} (buggy): hunt found no divergence", cs.name));
            }
            // A finding whose stream did not replay cannot be shrunk.
            s.failed += report
                .findings
                .iter()
                .filter(|f| f.shrunk.is_none())
                .count() as u64;
            bug_s += secs;
            self.last_findings
                .extend(report.findings.into_iter().map(|f| (i, f)));
        }
        s.bug.push(bug_s);
        Ok(())
    }

    fn layers(&mut self, rng: &mut Rng) -> Result<BTreeMap<&'static str, f64>, Wrong> {
        let (mut compiled_s, mut compiled_cycles) = (0.0, 0);
        let (mut interp_s, mut interp_cycles) = (0.0, 0);
        for cs in &self.designs {
            for t in targets(cs, &cs.rtl) {
                let seed = rng.next_u64() >> 8;
                let err =
                    |e: gila_verify::CosimError| format!("{}/{}: {e}", cs.name, t.port.name());
                trace::span("sim.compile", None, || {
                    cosimulate_compiled(t.port, t.rtl, t.map, seed, 0)
                })
                .0
                .map_err(err)?;
                let (d, secs) = trace::span("sim.compiled", None, || {
                    cosimulate_compiled(t.port, t.rtl, t.map, seed, COMPILED_CYCLES)
                });
                if d.map_err(err)?.is_some() {
                    return Err(format!("{}: fixed RTL diverged (compiled)", cs.name));
                }
                compiled_s += secs;
                compiled_cycles += COMPILED_CYCLES;
                let (d, secs) = trace::span("sim.interp", None, || {
                    cosimulate(t.port, t.rtl, t.map, seed, INTERP_CYCLES)
                });
                if d.map_err(err)?.is_some() {
                    return Err(format!("{}: fixed RTL diverged (interpreter)", cs.name));
                }
                interp_s += secs;
                interp_cycles += INTERP_CYCLES;
            }
        }
        for (i, f) in &self.last_findings {
            let cs = &self.designs[*i];
            let rtl = cs.buggy_rtl.as_ref().expect("findings come from buggy RTL");
            let t = targets(cs, rtl)
                .into_iter()
                .find(|t| t.port.name() == f.port)
                .expect("a finding names one of the design's ports");
            trace::span("hunt.shrink", None, || {
                shrink_divergence(t.port, rtl, t.map, &f.divergence)
            })
            .0
            .map_err(|e| format!("{}/{}: shrink: {e}", cs.name, f.port))?;
        }
        Ok(BTreeMap::from([
            (
                "sim.compiled_cycles_per_s",
                compiled_cycles as f64 / compiled_s,
            ),
            ("sim.interp_cycles_per_s", interp_cycles as f64 / interp_s),
            ("hunt.findings", self.last_findings.len() as f64),
            (
                "hunt.cycles_per_s",
                self.last_cycles as f64 / self.last_check_s,
            ),
        ]))
    }
}
