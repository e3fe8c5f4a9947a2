//! `serve-edit`: an in-process `gila serve` on an empty on-disk
//! journal, driven by one client connection in a closed loop.
//!
//! Each session starts a daemon on a fresh journal, verifies each
//! control design cold (by name, then as printed inline text), and then
//! runs rounds in which every design gets the same requests in a seeded
//! order: warm verifies by name, one lint, and one edit/revert pair. An
//! edit is the printed ILA text with one instruction's update XOR-ed
//! with a nonzero constant, so exactly one slice misses the proof cache
//! and comes back as a counterexample; the revert resends the original
//! text and must be answered from cache.
//!
//! `op_p50_ms` and `op_p90_ms` are taken over the six designs' median
//! warm by-name verify latency (the request CI's serve smoke test
//! repeats), so they do not depend on how many lints, edits and
//! reverts a round holds.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gila_designs::CaseStudy;
use gila_json::Value;
use gila_serve::{
    CacheConfig, Client, ClientConfig, DrainOutcome, Endpoint, Listen, ProofCache, Request,
    ServeConfig, Server, Service,
};
use gila_smt::CancelToken;
use gila_trace::Tracer;
use gila_verify::{slice_keys, RefinementMap, VerifyOptions};

use crate::prove::{index_of, solver_metrics, CONTROL};
use crate::{layers, median, quantile, trace, Rng, Samples, Wrong};

/// Rounds of the request mix per daemon session.
const ROUNDS: usize = 3;
/// Idle daemon start/stop cycles at set-up and again after every
/// session, each on a fresh journal, besides the start of every session.
const SETUP_STARTS: usize = 4;
/// Warm verifies by name of each design per round. Each design also
/// gets one lint and one edit/revert pair per round.
const WARM_VERIFIES: usize = 6;

/// One place an edit can change: an update of a mapped, checked
/// bit-vector state inside one instruction.
struct Site {
    line: usize,
    instruction: String,
    width: u32,
}

/// A control design as the client sends it inline.
struct Printed {
    name: &'static str,
    ila: String,
    rtl: String,
    maps: Vec<String>,
    sites: Vec<Site>,
}

/// The `.ila` printer turns `-` in port names into `_`; inline maps
/// must carry the printed names.
fn printed_port_name(name: &str) -> String {
    name.replace('-', "_")
}

impl Printed {
    fn new(cs: &CaseStudy) -> Result<Printed, Wrong> {
        let ila = gila_lang::to_ila_text(&cs.ila).map_err(|e| format!("{}: {e}", cs.name))?;
        let rtl = cs
            .rtl
            .to_verilog()
            .map_err(|e| format!("{}: {e}", cs.name))?;
        let maps: Vec<RefinementMap> = cs
            .refmaps
            .iter()
            .map(|m| RefinementMap {
                name: printed_port_name(&m.name),
                ..m.clone()
            })
            .collect();
        let sites = edit_sites(&ila, &maps);
        if sites.is_empty() {
            return Err(format!("{}: printed ILA has no editable update", cs.name));
        }
        Ok(Printed {
            name: cs.name,
            maps: maps.iter().map(RefinementMap::to_json).collect(),
            ila,
            rtl,
            sites,
        })
    }

    fn inline(&self, ila: String) -> Vec<(String, Value)> {
        vec![
            ("ila".into(), Value::String(ila)),
            ("rtl".into(), Value::String(self.rtl.clone())),
            (
                "maps".into(),
                Value::Array(self.maps.iter().cloned().map(Value::String).collect()),
            ),
        ]
    }

    /// The printed text with `site`'s update XOR-ed with `c`.
    fn edited(&self, site: &Site, c: u64) -> String {
        let mut lines: Vec<String> = self.ila.lines().map(str::to_string).collect();
        let line = &lines[site.line];
        let (lhs, rhs) = line.split_once(" := ").expect("sites are update lines");
        lines[site.line] = format!("{lhs} := ({rhs} ^ {}'h{c:x})", site.width);
        lines.join("\n") + "\n"
    }
}

/// Every update line `state := expr` of a mapped bit-vector state the
/// port checks after its instructions.
fn edit_sites(ila: &str, maps: &[RefinementMap]) -> Vec<Site> {
    let mut sites = Vec::new();
    let mut widths: BTreeMap<String, u32> = BTreeMap::new();
    let mut map: Option<&RefinementMap> = None;
    let mut instruction: Option<String> = None;
    for (i, raw) in ila.lines().enumerate() {
        let line = raw.trim();
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["port", name, "{"] => {
                widths.clear();
                map = maps.iter().find(|m| m.name == *name);
            }
            ["state", name, ":", sort] | ["output", "state", name, ":", sort] => {
                if let Some(w) = sort.strip_prefix("bv").and_then(|w| w.parse().ok()) {
                    widths.insert(name.to_string(), w);
                }
            }
            ["instr", name, ..] | ["sub", name, ..] => instruction = Some(name.to_string()),
            ["}"] => instruction = None,
            [state, ":=", ..] => {
                let (Some(m), Some(instr)) = (map, &instruction) else {
                    continue;
                };
                let checked = m.state_map.contains_key(*state)
                    && !m.unchecked_states.iter().any(|u| u == state);
                if let (true, Some(&width)) = (checked, widths.get(*state)) {
                    sites.push(Site {
                        line: i,
                        instruction: instr.clone(),
                        width,
                    });
                }
            }
            _ => {}
        }
    }
    sites
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    /// A verify by name answered from cache.
    Warm,
    Lint,
    Edit,
    /// The original inline text again, answered from cache.
    Revert,
}

/// A request the session sent, kept so a traced run can replay the same
/// sequence through `Service::execute` without the transport.
struct Sent {
    id: u64,
    op: &'static str,
    fields: Vec<(String, Value)>,
    kind: Kind,
    latency_ms: f64,
}

pub struct ServeEdit {
    designs: Vec<CaseStudy>,
    control: Vec<usize>,
    printed: Vec<Printed>,
    /// Each daemon start truncates it; the last session's stays behind
    /// for the traced lookups.
    journal: PathBuf,
    /// The latest session's requests and cache tallies.
    last: Vec<Sent>,
    next_id: u64,
    hits: u64,
    lookups: u64,
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

fn num(v: &Value, path: &[&str]) -> f64 {
    field(v, path).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

impl ServeEdit {
    pub fn new(rng: &mut Rng, s: &mut Samples, out_dir: &Path) -> Result<ServeEdit, Wrong> {
        // Setup samples come from the daemon starts, which construct the
        // case studies again inside `Service::new`.
        let designs = gila_designs::all_case_studies();
        let control = index_of(&designs, &CONTROL);
        let printed = control
            .iter()
            .map(|&i| Printed::new(&designs[i]))
            .collect::<Result<_, _>>()?;
        let w = ServeEdit {
            designs,
            control,
            printed,
            journal: out_dir.join(format!("serve-journal-{:016x}.jsonl", rng.next_u64())),
            last: Vec::new(),
            next_id: 0,
            hits: 0,
            lookups: 0,
        };
        w.idle_starts(s)?;
        Ok(w)
    }

    fn idle_starts(&self, s: &mut Samples) -> Result<(), Wrong> {
        for _ in 0..SETUP_STARTS {
            let server = self.start(s)?;
            server.handle().shutdown();
            let drained = server.shutdown_and_wait();
            if drained != DrainOutcome::Clean {
                return Err(format!("idle daemon drain: {drained:?}"));
            }
        }
        Ok(())
    }

    /// Starts a daemon on a fresh journal (one `setup_s` sample).
    fn start(&self, s: &mut Samples) -> Result<Server, Wrong> {
        let journal = &self.journal;
        std::fs::create_dir_all(
            journal
                .parent()
                .expect("the journal lives in the run directory"),
        )
        .map_err(|e| format!("{}: {e}", journal.display()))?;
        let _ = std::fs::remove_file(journal);
        // One client in a closed loop never has two requests in flight.
        let cfg = ServeConfig {
            listeners: vec![Listen::Tcp("127.0.0.1:0".into())],
            cache: CacheConfig {
                path: Some(journal.clone()),
                ..CacheConfig::default()
            },
            workers: 1,
            ..ServeConfig::default()
        };
        let (server, secs) = trace::span("serve.start", None, || Server::start(cfg));
        let server = server.map_err(|e| format!("daemon start: {e}"))?;
        s.setup.push(secs);
        Ok(server)
    }

    /// Sends one request; `None` when it failed (transport error,
    /// shed, or an error response), which counts toward `failed`.
    fn send(
        &mut self,
        client: &mut Client,
        op: &'static str,
        fields: Vec<(String, Value)>,
        kind: Kind,
        s: &mut Samples,
    ) -> Option<(Value, f64)> {
        // The session's client numbers its requests from 1, one id per
        // request, so this matches the id on the wire.
        self.next_id += 1;
        let id = self.next_id;
        let (resp, secs) = trace::span("serve.request", Some(id), || {
            client.request(op, fields.clone())
        });
        s.attempted += 1;
        let result = match resp {
            Ok(r) if r.get("status").and_then(Value::as_str) == Some("ok") => {
                r.get("result").cloned()
            }
            _ => None,
        };
        let Some(result) = result else {
            s.failed += 1;
            return None;
        };
        if op == "verify" && num(&result, &["unknown"]) != 0.0 {
            s.failed += 1;
            return None;
        }
        if matches!(kind, Kind::Warm | Kind::Edit | Kind::Revert) {
            self.hits += num(&result, &["cache_hits"]) as u64;
            self.lookups +=
                (num(&result, &["cache_hits"]) + num(&result, &["cache_misses"])) as u64;
        }
        let latency_ms = secs * 1e3;
        self.last.push(Sent {
            id,
            op,
            fields,
            kind,
            latency_ms,
        });
        Some((result, latency_ms))
    }
}

fn all_hold(v: &Value) -> bool {
    field(v, &["all_hold"]).and_then(Value::as_bool) == Some(true)
}

/// A warm answer does no solver work and comes entirely from cache.
fn check_warm(what: &str, v: &Value) -> Result<(), Wrong> {
    if !all_hold(v) || num(v, &["solves"]) != 0.0 || num(v, &["cache_hit_rate"]) != 1.0 {
        return Err(format!(
            "{what}: warm verify was not a full cache hit: {}",
            v.to_compact()
        ));
    }
    Ok(())
}

/// An edit re-proves exactly the edited slice, which comes back as a
/// counterexample.
fn check_edit(what: &str, v: &Value, instruction: &str) -> Result<(), Wrong> {
    let failing: Vec<(&str, &str)> = field(v, &["ports"])
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .flat_map(|p| {
            p.get("verdicts")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
        })
        .filter_map(|r| {
            let result = r.get("result").and_then(Value::as_str);
            let name = r.get("instruction").and_then(Value::as_str);
            (result != Some("holds")).then_some((name.unwrap_or("?"), result.unwrap_or("?")))
        })
        .collect();
    if num(v, &["cache_misses"]) != 1.0 || failing != [(instruction, "cex")] {
        return Err(format!(
            "{what}: expected one re-proved slice failing on {instruction}: {}",
            v.to_compact()
        ));
    }
    Ok(())
}

impl crate::Workload for ServeEdit {
    fn setup(&mut self, s: &mut Samples) -> Result<(), Wrong> {
        self.idle_starts(s)
    }

    fn pass(&mut self, rng: &mut Rng, s: &mut Samples) -> Result<(), Wrong> {
        self.last.clear();
        self.next_id = 0;
        self.hits = 0;
        self.lookups = 0;
        let server = self.start(s)?;
        let addr = server.tcp_addrs[0].to_string();
        let mut client = Client::connect(ClientConfig::new(Endpoint::Tcp(addr)));
        let outcome = self.session(&mut client, rng, s);
        drop(client);
        server.handle().shutdown();
        let drained = server.shutdown_and_wait();
        outcome?;
        if drained != DrainOutcome::Clean {
            return Err(format!("daemon drain: {drained:?}"));
        }
        Ok(())
    }

    fn layers(&mut self, _rng: &mut Rng) -> Result<BTreeMap<&'static str, f64>, Wrong> {
        let mut m = BTreeMap::new();
        // The same requests through `Service::execute`, no transport.
        let service = Service::new(
            Arc::new(ProofCache::open(CacheConfig::default()).map_err(|e| e.to_string())?),
            Tracer::disabled(),
            None,
            None,
        );
        let (mut execute_ms, mut rtt_ms) = (Vec::new(), Vec::new());
        for sent in &self.last {
            let req = Request {
                id: sent.id,
                op: sent.op.into(),
                body: Value::object(sent.fields.clone()),
                deadline: None,
            };
            let (_, secs) = trace::span("serve.execute", Some(sent.id), || {
                service.execute(&req, CancelToken::default(), None)
            });
            if sent.kind == Kind::Warm {
                execute_ms.push(secs * 1e3);
                rtt_ms.push(sent.latency_ms);
            }
        }
        m.insert("serve.execute_ms", median(&execute_ms));
        m.insert("serve.transport_ms", median(&rtt_ms) - median(&execute_ms));
        m.insert(
            "serve.hit_rate",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
        let bytes = std::fs::metadata(&self.journal).map_or(0, |md| md.len());
        m.insert("serve.journal_bytes", bytes as f64);

        // Lookups against the journal the last session left behind.
        let cache = ProofCache::open(CacheConfig {
            path: Some(self.journal.clone()),
            ..CacheConfig::default()
        })
        .map_err(|e| format!("{}: {e}", self.journal.display()))?;
        let mut lookup_us = Vec::new();
        let mut walk = layers::Walk::default();
        let opts = VerifyOptions::default();
        let mut lint = gila_lint::LintStats::default();
        let mut scratch = Samples::default();
        for (&i, p) in self.control.iter().zip(&self.printed) {
            let cs = &self.designs[i];
            let (keys, _) = trace::span("verify.slice_keys", None, || {
                slice_keys(&cs.ila, &cs.rtl, &cs.refmaps)
            });
            for k in keys.map_err(|e| format!("{}: {e}", cs.name))? {
                let (hit, secs) = trace::span("serve.cache_lookup", None, || cache.lookup(&k.key));
                if hit.is_none() {
                    return Err(format!(
                        "{}: {} missing from the journal",
                        cs.name, k.instruction
                    ));
                }
                lookup_us.push(secs * 1e6);
            }
            trace::span("lang.parse", None, || gila_lang::parse_ila(&p.ila))
                .0
                .map_err(|e| format!("{}: {e}", cs.name))?;
            trace::span("rtl.parse", None, || gila_rtl::parse_verilog(&p.rtl))
                .0
                .map_err(|e| format!("{}: {e}", cs.name))?;
            walk.add(layers::static_walk(cs, &opts)?);
            lint.merge(&layers::lint(cs, &mut scratch)?);
        }
        m.insert("serve.cache_lookup_us", median(&lookup_us));
        m.extend(solver_metrics(&walk.telemetry, walk.prove_s));
        m.insert("mc.coi_dropped", walk.dropped as f64);
        m.insert("absint.invariants", walk.invariants as f64);
        m.insert("verify.instr_p50_ms", median(&walk.instr_ms));
        m.insert("verify.instr_p99_ms", quantile(&walk.instr_ms, 0.99));
        m.insert(
            "lint.discharged_static",
            lint.lints_discharged_static as f64,
        );
        m.insert("lint.sat_calls_avoided", lint.sat_calls_avoided as f64);
        Ok(m)
    }
}

impl ServeEdit {
    fn session(
        &mut self,
        client: &mut Client,
        rng: &mut Rng,
        s: &mut Samples,
    ) -> Result<(), Wrong> {
        let n = self.printed.len();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut cold_ms = 0.0;
        for &d in &order {
            let name = self.printed[d].name;
            let by_name = vec![("design".into(), Value::String(name.into()))];
            let inline = self.printed[d].inline(self.printed[d].ila.clone());
            for fields in [by_name, inline] {
                if let Some((v, ms)) = self.send(client, "verify", fields, Kind::Cold, s) {
                    if !all_hold(&v) {
                        return Err(format!("{name}: cold verify failed: {}", v.to_compact()));
                    }
                    cold_ms += ms;
                }
            }
        }
        s.check.push(cold_ms / 1e3);

        // An edit is never sent twice in one session, so it always
        // misses the cache.
        let mut used: HashSet<(usize, usize, u64)> = HashSet::new();
        for _ in 0..ROUNDS {
            let mut plan: Vec<(Kind, usize)> = Vec::new();
            for d in 0..n {
                plan.extend([(Kind::Lint, d), (Kind::Edit, d)]);
                plan.extend((0..WARM_VERIFIES).map(|_| (Kind::Warm, d)));
            }
            rng.shuffle(&mut plan);
            for (kind, d) in plan {
                let name = self.printed[d].name;
                match kind {
                    Kind::Warm => {
                        let fields = vec![("design".into(), Value::String(name.into()))];
                        if let Some((v, ms)) = self.send(client, "verify", fields, Kind::Warm, s) {
                            check_warm(name, &v)?;
                            s.op(name.to_string(), ms);
                        }
                    }
                    Kind::Lint => {
                        let fields = vec![("design".into(), Value::String(name.into()))];
                        if let Some((v, _)) = self.send(client, "lint", fields, Kind::Lint, s) {
                            if num(&v, &["errors"]) != 0.0 {
                                return Err(format!("{name}: lint errors: {}", v.to_compact()));
                            }
                        }
                    }
                    _ => {
                        let p = &self.printed[d];
                        let (site, c) = loop {
                            let site = rng.below(p.sites.len());
                            let width = p.sites[site].width;
                            let mask = if width >= 64 {
                                u64::MAX
                            } else {
                                (1 << width) - 1
                            };
                            let c = (rng.next_u64() & mask).max(1);
                            if used.insert((d, site, c)) {
                                break (site, c);
                            }
                        };
                        let instruction = p.sites[site].instruction.clone();
                        let edit = p.inline(p.edited(&p.sites[site], c));
                        let revert = p.inline(p.ila.clone());
                        if let Some((v, ms)) = self.send(client, "verify", edit, Kind::Edit, s) {
                            check_edit(name, &v, &instruction)?;
                            s.bug.push(ms / 1e3);
                        }
                        if let Some((v, _)) = self.send(client, "verify", revert, Kind::Revert, s) {
                            check_warm(name, &v)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
