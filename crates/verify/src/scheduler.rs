//! Work-stealing verification scheduler with per-port job batching —
//! the one execution path of every verification run.
//!
//! Work is batched per port: one job carries a whole [`PortPlan`]'s
//! instruction list — or a contiguous chunk of it when the port has
//! enough instructions to keep several workers busy — so a single
//! worker amortizes one `Unrolling` + blast of the port's transition
//! relation across every instruction in the batch. Each plan brings its
//! *own* cone-of-influence-sliced transition system, so a worker serving
//! a port blasts only that port's logic. Workers keep a small cache of
//! per-port engines, so stealing a second chunk of a port they already
//! served costs no new blast; an engine is dropped once its port has no
//! batch left to claim.
//!
//! A pool of one runs the same worker loop inline on the calling thread:
//! each port is one batch, taken in declaration order, served by one
//! persistent engine, and the run stops at the first counterexample in
//! declaration order when asked to.
//!
//! Scheduling is deterministic in its *results* but not its order:
//! workers pull from their local deque first, refill in batches from
//! the global injector, and steal from peers when both are empty.
//! Verdicts are reassembled into declaration order afterwards, so a
//! multi-worker run reports exactly what a one-worker run would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Stealer, Worker};
use gila_mc::TransitionSystem;
use gila_smt::CancelToken;

use crate::engine::{
    run_job_guarded, CheckResult, InstrVerdict, JobMeta, PortPlan, RunCtx, VerifyError,
    WorkerEngine,
};

/// One unit of work: a batch of instructions of a single port.
#[derive(Clone, Debug)]
struct Job {
    port: usize,
    /// Instruction indices of the batch, in declaration order.
    instrs: Vec<usize>,
    /// Run-unique batch id, recorded on every verdict of the batch.
    batch_id: u64,
}

/// Scheduler knobs, resolved from [`crate::engine::VerifyOptions`].
pub(crate) struct PoolConfig {
    /// Requested pool size (the spawned count is capped by the number
    /// of batches). One worker runs inline on the calling thread.
    pub(crate) workers: usize,
    /// Stop the run on the first counterexample.
    pub(crate) stop_at_first_cex: bool,
}

/// A port's share of a pool run.
pub(crate) struct PoolPortResult {
    /// `(instruction index, verdict)` in declaration order. Gaps occur
    /// only when the run stopped at a counterexample.
    pub(crate) verdicts: Vec<(usize, InstrVerdict)>,
    /// Wall-clock time from the pickup of the port's first batch to its
    /// last verdict.
    pub(crate) busy: Duration,
}

/// The outcome of a pool run, plus introspection for tests.
pub(crate) struct PoolOutcome {
    /// One entry per input plan, in the same order.
    pub(crate) ports: Vec<PoolPortResult>,
    /// How many workers served the run (≤ the requested size).
    pub(crate) workers_spawned: usize,
    /// Whether the run stopped at a counterexample before draining.
    pub(crate) stopped: bool,
    /// How many engines were actually built (lazily created, so idle
    /// workers never blast anything).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) engines_created: usize,
}

/// Per-port batches a worker can serve without rebuilding its engine
/// cache entry. The cache holds this many ports' engines per worker;
/// serving a third port evicts the least recently used engine.
const ENGINE_CACHE: usize = 2;

/// One finished job: its `(port, instruction)` key, its result, and
/// when its batch was picked up and the job finished, measured from
/// pool start (`None` for verdicts resumed from a checkpoint).
struct JobRecord {
    key: (usize, usize),
    result: Result<InstrVerdict, VerifyError>,
    span: Option<(Duration, Duration)>,
}

/// What every worker of one run shares.
struct Pool<'r, 'p> {
    plans: &'r [PortPlan<'p>],
    tss: &'r [TransitionSystem],
    ctx: &'r RunCtx<'r>,
    stop_at_first_cex: bool,
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Interrupts in-flight solves; an external token doubles as it.
    cancel: CancelToken,
    /// Set on the first counterexample of a `stop_at_first_cex` run (or
    /// a configuration error): no further job is picked up.
    stop: AtomicBool,
    /// Per port, the batches no worker has picked up yet.
    unclaimed: Vec<AtomicUsize>,
    engines_created: AtomicUsize,
    results: Mutex<Vec<JobRecord>>,
    t0: Instant,
}

/// Runs every instruction of every plan on a pool of at most
/// `cfg.workers` workers. `tss` holds one transition system per plan
/// (typically per-port COI slices of the same module); a job for plan
/// `i` is always served by an engine over `tss[i]`. A pool of one runs
/// inline on the calling thread; more workers run on scoped threads.
///
/// With `cfg.stop_at_first_cex`, the first counterexample stops job
/// pickup *and* interrupts in-flight solves on other workers through
/// their [`CancelToken`]; an interrupted job reports `Unknown(Cancelled)`.
/// An externally cancelled token does not stop pickup: every remaining
/// job still reports, as `Unknown(Cancelled)`, so no instruction goes
/// missing from the report.
///
/// Jobs already decided by the context's resumed checkpoint are never
/// scheduled; their stored verdicts are merged into the result. A job
/// that panics is isolated into a [`CheckResult::JobPanicked`] verdict
/// ([`run_job_guarded`]) and the pool keeps draining; the rest of the
/// panicking batch continues on a rebuilt engine.
///
/// # Errors
///
/// A configuration error on any job cancels the run and is returned
/// (the lowest `(port, instruction)` one, for determinism).
pub(crate) fn run_pool(
    plans: &[PortPlan<'_>],
    tss: &[TransitionSystem],
    cfg: PoolConfig,
    ctx: &RunCtx<'_>,
) -> Result<PoolOutcome, VerifyError> {
    assert_eq!(plans.len(), tss.len(), "one transition system per plan");
    let mut resumed: Vec<((usize, usize), InstrVerdict)> = Vec::new();
    let mut pending: Vec<Vec<usize>> = Vec::with_capacity(plans.len());
    for (port, plan) in plans.iter().enumerate() {
        let mut todo = Vec::new();
        for instr in 0..plan.instrs.len() {
            let name = &plan.port.instructions()[instr].name;
            match ctx.resumed_verdict(plan.port.name(), name) {
                Some(v) => resumed.push(((port, instr), v)),
                None => todo.push(instr),
            }
        }
        pending.push(todo);
    }
    let total: usize = pending.iter().map(Vec::len).sum();
    let jobs = make_jobs(&pending, cfg.workers);
    let workers_spawned = cfg.workers.clamp(1, jobs.len().max(1));
    let unclaimed: Vec<AtomicUsize> = (0..plans.len()).map(|_| AtomicUsize::new(0)).collect();
    let injector = Injector::new();
    for job in jobs {
        unclaimed[job.port].fetch_add(1, Ordering::Relaxed);
        injector.push(job);
    }
    let locals: Vec<Worker<Job>> = (0..workers_spawned).map(|_| Worker::new_fifo()).collect();
    let pool = Pool {
        plans,
        tss,
        ctx,
        stop_at_first_cex: cfg.stop_at_first_cex,
        injector,
        stealers: locals.iter().map(Worker::stealer).collect(),
        cancel: ctx.policy.cancel.clone().unwrap_or_default(),
        stop: AtomicBool::new(false),
        unclaimed,
        engines_created: AtomicUsize::new(0),
        results: Mutex::new(Vec::with_capacity(total)),
        t0: Instant::now(),
    };
    // Workers isolate job panics themselves; a panic escaping the worker
    // loop is a scheduler bug, reported as an internal error rather than
    // a double panic out of the verification API.
    let clean = if workers_spawned == 1 {
        catch_unwind(AssertUnwindSafe(|| pool.serve(None, &locals[0]))).is_ok()
    } else {
        crossbeam::thread::scope(|scope| {
            for (worker_id, local) in locals.into_iter().enumerate() {
                let pool = &pool;
                scope.spawn(move |_| pool.serve(Some(worker_id), &local));
            }
        })
        .is_ok()
    };
    if !clean {
        return Err(VerifyError::Internal {
            reason: "a verification worker died outside job isolation".to_string(),
        });
    }

    let mut records = pool
        .results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    records.extend(resumed.into_iter().map(|(key, v)| JobRecord {
        key,
        result: Ok(v),
        span: None,
    }));
    records.sort_by_key(|r| r.key);
    let mut ports: Vec<PoolPortResult> = plans
        .iter()
        .map(|_| PoolPortResult {
            verdicts: Vec::new(),
            busy: Duration::ZERO,
        })
        .collect();
    // Per port, the (first pickup, last finish) window of its jobs.
    let mut windows: Vec<Option<(Duration, Duration)>> = vec![None; plans.len()];
    for r in records {
        ports[r.key.0].verdicts.push((r.key.1, r.result?));
        if let Some((start, end)) = r.span {
            let w = &mut windows[r.key.0];
            *w = Some(w.map_or((start, end), |(s, e)| (s.min(start), e.max(end))));
        }
    }
    for (port, window) in ports.iter_mut().zip(windows) {
        port.busy = window.map_or(Duration::ZERO, |(s, e)| e - s);
    }
    Ok(PoolOutcome {
        ports,
        workers_spawned,
        stopped: pool.stop.into_inner(),
        engines_created: pool.engines_created.into_inner(),
    })
}

impl Pool<'_, '_> {
    /// The worker loop. `worker` is the pool worker id on a multi-worker
    /// run and `None` on a one-worker run, whose verdicts carry no
    /// scheduling metadata.
    fn serve(&self, worker: Option<usize>, local: &Worker<Job>) {
        let tracer = self.ctx.tracer;
        // Per-port persistent engines, least recently used first.
        let mut cache: Vec<(usize, WorkerEngine)> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let Some((job, stolen)) = find_job(local, &self.injector, &self.stealers) else {
                break;
            };
            let picked_up = self.t0.elapsed();
            let last_batch = self.unclaimed[job.port].fetch_sub(1, Ordering::Relaxed) == 1;
            let plan = &self.plans[job.port];
            let ts = &self.tss[job.port];
            let meta = match worker {
                Some(_) => JobMeta {
                    worker,
                    queue_ns: picked_up.as_nanos() as u64,
                    stolen,
                    batch_id: Some(job.batch_id),
                    batch_size: job.instrs.len() as u64,
                },
                None => JobMeta::default(),
            };
            let mut slot = cache
                .iter()
                .position(|(p, _)| *p == job.port)
                .map(|pos| cache.remove(pos).1);
            for &idx in &job.instrs {
                if self.stop.load(Ordering::Relaxed) {
                    break;
                }
                let result = run_job_guarded(
                    plan,
                    idx,
                    &mut slot,
                    || {
                        self.engines_created.fetch_add(1, Ordering::Relaxed);
                        let mut e = WorkerEngine::new(ts, tracer);
                        // Cancellation interrupts this worker's solver
                        // mid-search, not just job pickup.
                        e.smt.set_cancel(self.cancel.clone());
                        e
                    },
                    tracer,
                    meta,
                    &self.ctx.policy,
                );
                let abort = match &result {
                    Ok(v) => {
                        self.ctx.record_checkpoint(plan.port.name(), v);
                        self.stop_at_first_cex && matches!(v.result, CheckResult::CounterExample(_))
                    }
                    Err(_) => true,
                };
                self.results
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(JobRecord {
                        key: (job.port, idx),
                        result,
                        span: Some((picked_up, self.t0.elapsed())),
                    });
                if abort {
                    self.stop.store(true, Ordering::Relaxed);
                    self.cancel.cancel();
                    break;
                }
            }
            // No later batch of this port can reach this worker once
            // every batch is claimed, so its engine is dropped, not cached.
            if let (Some(engine), false) = (slot, last_batch) {
                cache.push((job.port, engine));
                if cache.len() > ENGINE_CACHE {
                    cache.remove(0);
                }
            }
        }
    }
}

/// Splits each port's pending instruction indices into batches: a port
/// is split into a number of contiguous chunks proportional to its share
/// of the total instruction count (rounded, at least 1, at most one
/// chunk per instruction), targeting `workers` chunks overall. One
/// heavyweight port is chunked so every worker gets a piece, while a
/// pile of small ports still costs one unrolling each; with one worker
/// every port is exactly one batch.
fn make_jobs(pending: &[Vec<usize>], workers: usize) -> Vec<Job> {
    let total: usize = pending.iter().map(Vec::len).sum();
    let mut jobs = Vec::new();
    let mut batch_id = 0u64;
    for (port, instrs) in pending.iter().enumerate() {
        let n = instrs.len();
        if n == 0 {
            continue;
        }
        let chunks = ((n * workers + total / 2) / total.max(1)).clamp(1, n);
        let base = n / chunks;
        let extra = n % chunks;
        let mut off = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            jobs.push(Job {
                port,
                instrs: instrs[off..off + len].to_vec(),
                batch_id,
            });
            batch_id += 1;
            off += len;
        }
    }
    jobs
}

/// Local deque first, then a batch refill from the global injector,
/// then stealing from a peer. `None` means the run is drained (no
/// worker creates new jobs, so empty-everywhere is terminal). The
/// boolean marks jobs taken from a *peer's* deque — the telemetry
/// steal count.
fn find_job(
    local: &Worker<Job>,
    injector: &Injector<Job>,
    stealers: &[Stealer<Job>],
) -> Option<(Job, bool)> {
    if let Some(job) = local.pop() {
        return Some((job, false));
    }
    if let Some(job) = injector.steal_batch_and_pop(local).success() {
        return Some((job, false));
    }
    stealers
        .iter()
        .find_map(|s| s.steal().success())
        .map(|job| (job, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testutil::{counter_ila, counter_map, counter_rtl};
    use crate::engine::{rtl_to_ts, verify_port, VerifyOptions};
    use crate::fault::{FaultAction, FaultPlan};
    use std::sync::Arc;

    fn counter_cfg(workers: usize, stop_at_first_cex: bool) -> PoolConfig {
        PoolConfig {
            workers,
            stop_at_first_cex,
        }
    }

    fn run_counter_pool(
        buggy: bool,
        workers: usize,
        stop_at_first_cex: bool,
    ) -> PoolOutcome {
        run_counter_pool_with(buggy, counter_cfg(workers, stop_at_first_cex), |_| {})
    }

    fn run_counter_pool_with(
        buggy: bool,
        cfg: PoolConfig,
        configure: impl FnOnce(&mut RunCtx<'_>),
    ) -> PoolOutcome {
        let port = counter_ila();
        let rtl = counter_rtl(buggy);
        let map = counter_map();
        let (ts, ts_signals) = rtl_to_ts(&rtl).unwrap();
        let plan = PortPlan::build(&port, &rtl, &map, &ts_signals).unwrap();
        let tracer = gila_trace::Tracer::disabled();
        let mut ctx = RunCtx::plain(&tracer);
        configure(&mut ctx);
        run_pool(
            std::slice::from_ref(&plan),
            std::slice::from_ref(&ts),
            cfg,
            &ctx,
        )
        .unwrap()
    }

    #[test]
    fn pool_matches_sequential_verdicts() {
        for buggy in [false, true] {
            let port = counter_ila();
            let rtl = counter_rtl(buggy);
            let seq =
                verify_port(&port, &rtl, &counter_map(), &VerifyOptions::default()).unwrap();
            for workers in [1, 2, 8] {
                let outcome = run_counter_pool(buggy, workers, false);
                let pooled = &outcome.ports[0].verdicts;
                assert_eq!(pooled.len(), seq.verdicts.len(), "workers={workers}");
                for ((idx, got), want) in pooled.iter().zip(&seq.verdicts) {
                    assert_eq!(got.instruction, want.instruction, "idx={idx}");
                    assert_eq!(
                        got.result.holds(),
                        want.result.holds(),
                        "workers={workers} instr={}",
                        got.instruction
                    );
                }
            }
        }
    }

    #[test]
    fn worker_count_never_exceeds_batch_count() {
        // Two instructions: with 8 workers requested, batching splits
        // the port into (at most) one chunk per instruction, so at most
        // 2 workers spawn, and engines are only built for workers that
        // actually ran.
        let outcome = run_counter_pool(false, 8, false);
        assert_eq!(outcome.workers_spawned, 2);
        assert!(outcome.engines_created <= 2);
        let outcome = run_counter_pool(false, 1, false);
        assert_eq!(outcome.workers_spawned, 1);
        assert_eq!(outcome.engines_created, 1);
    }

    #[test]
    fn one_worker_serves_each_port_as_one_unlabelled_batch() {
        // A pool of one folds the whole port into one job on one
        // engine, inline, and leaves the pool metadata empty.
        let outcome = run_counter_pool(false, 1, false);
        assert_eq!(outcome.engines_created, 1);
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        for (_, v) in verdicts {
            assert_eq!((v.worker, v.batch_id, v.batch_size), (None, None, 0));
            assert_eq!((v.queue_ns, v.stolen), (0, false));
        }
    }

    #[test]
    fn multi_worker_batches_carry_their_metadata() {
        // Two workers, two instructions: one single-instruction batch
        // each, with distinct ids.
        let outcome = run_counter_pool(false, 2, false);
        assert_eq!(outcome.workers_spawned, 2);
        let verdicts = &outcome.ports[0].verdicts;
        let ids: Vec<_> = verdicts.iter().map(|(_, v)| v.batch_id).collect();
        assert_eq!(ids, vec![Some(0), Some(1)]);
        assert!(verdicts
            .iter()
            .all(|(_, v)| v.batch_size == 1 && v.worker.is_some()));
    }

    #[test]
    fn single_worker_pool_reuses_cnf_across_instructions() {
        // On a persistent engine the second instruction re-uses the
        // blasted transition relation: its CNF growth must collapse
        // relative to the first instruction on the same worker.
        let outcome = run_counter_pool(false, 1, false);
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        let first = verdicts[0].1.cnf_growth;
        let second = verdicts[1].1.cnf_growth;
        assert!(first.clauses > 0);
        assert!(
            second.clauses * 2 < first.clauses,
            "expected CNF reuse: first instruction grew by {first:?}, second by {second:?}"
        );
        assert!(second.variables * 2 < first.variables, "{first:?} vs {second:?}");
    }

    #[test]
    fn shared_engine_does_not_leak_assumptions_between_jobs() {
        // On the buggy counter, `inc` fails and `hold` passes. A single
        // worker serves both from one solver; if `inc`'s scoped asserts
        // (its decode en==1, or the violation clause) leaked, `hold`
        // would be judged under the wrong start condition.
        let outcome = run_counter_pool(true, 1, false);
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        let inc = &verdicts[0].1;
        let hold = &verdicts[1].1;
        assert_eq!(inc.instruction, "inc");
        assert!(matches!(inc.result, CheckResult::CounterExample(_)));
        assert_eq!(hold.instruction, "hold");
        assert!(hold.result.holds(), "leaked state poisoned the second job");
    }

    #[test]
    fn cancellation_stops_scheduling_after_first_cex() {
        let outcome = run_counter_pool(true, 2, true);
        let verdicts = &outcome.ports[0].verdicts;
        // The counterexample is always reported; later jobs may have
        // been cancelled before starting.
        assert!(verdicts
            .iter()
            .any(|(_, v)| matches!(v.result, CheckResult::CounterExample(_))));
        assert!(verdicts.len() <= 2);
    }

    #[test]
    fn external_cancellation_still_reports_every_job() {
        // A cancelled caller token interrupts solves but never drops a
        // job: each one reports Unknown(Cancelled), so the report cannot
        // read as a vacuous pass.
        for workers in [1, 2] {
            let outcome = run_counter_pool_with(false, counter_cfg(workers, false), |ctx| {
                let token = CancelToken::new();
                token.cancel();
                ctx.policy.cancel = Some(token);
            });
            let verdicts = &outcome.ports[0].verdicts;
            assert_eq!(verdicts.len(), 2, "workers={workers}");
            assert!(verdicts.iter().all(|(_, v)| matches!(
                v.result,
                CheckResult::Unknown {
                    reason: gila_smt::ResourceOut::Cancelled,
                    ..
                }
            )));
        }
    }

    #[test]
    fn empty_plan_set_yields_empty_outcome() {
        let rtl = counter_rtl(false);
        let (_ts, _) = rtl_to_ts(&rtl).unwrap();
        let tracer = gila_trace::Tracer::disabled();
        let outcome = run_pool(&[], &[], counter_cfg(4, false), &RunCtx::plain(&tracer)).unwrap();
        assert!(outcome.ports.is_empty());
        assert_eq!(outcome.engines_created, 0);
    }

    /// Regression test for the poisoning `.expect(...)` lock/join
    /// handling: a job that panics mid-check must become a
    /// `JobPanicked` verdict, not tear down the pool, and every other
    /// job must still be decided normally.
    #[test]
    fn panicking_job_is_isolated_and_pool_drains() {
        for workers in [1, 4] {
            let fault = FaultPlan::new().inject(
                "counter",
                "inc",
                FaultAction::Panic("injected".into()),
                Some(1),
            );
            let outcome = run_counter_pool_with(false, counter_cfg(workers, false), |ctx| {
                ctx.policy.fault = Some(Arc::new(fault));
            });
            let verdicts = &outcome.ports[0].verdicts;
            assert_eq!(verdicts.len(), 2, "workers={workers}");
            let inc = &verdicts[0].1;
            assert_eq!(inc.instruction, "inc");
            let CheckResult::JobPanicked { message } = &inc.result else {
                panic!("expected JobPanicked, got {:?}", inc.result);
            };
            assert!(message.contains("injected"), "{message}");
            // The other instruction is decided as if nothing happened.
            let hold = &verdicts[1].1;
            assert_eq!(hold.instruction, "hold");
            assert!(hold.result.holds(), "workers={workers}");
        }
    }

    /// A worker whose engine was poisoned by a panic rebuilds it and
    /// keeps serving: with one worker, the panic on the first job must
    /// not leave the second job with a corrupt solver — even mid-batch.
    #[test]
    fn single_worker_rebuilds_engine_after_panic() {
        let fault = FaultPlan::new().inject(
            "counter",
            "inc",
            FaultAction::Panic("first job dies".into()),
            Some(1),
        );
        let outcome = run_counter_pool_with(true, counter_cfg(1, false), |ctx| {
            ctx.policy.fault = Some(Arc::new(fault));
        });
        let verdicts = &outcome.ports[0].verdicts;
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].1.result.is_panicked());
        // On the buggy counter `hold` still genuinely holds; deciding it
        // requires a fresh, working engine after the panic.
        assert!(verdicts[1].1.result.holds());
        // One engine for the panicked job, one rebuilt for the next.
        assert_eq!(outcome.engines_created, 2);
    }

    #[test]
    fn make_jobs_balances_chunks_proportionally() {
        // One port of 4 and one of 2, 4 workers: the big port gets 3
        // chunks, the small one 1, totalling the worker count.
        let pending = vec![vec![0, 1, 2, 3], vec![0, 1]];
        let jobs = make_jobs(&pending, 4);
        assert_eq!(jobs.len(), 4);
        let sizes: Vec<usize> = jobs.iter().map(|j| j.instrs.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1, 2]);
        // Chunks are contiguous, in declaration order, with unique ids.
        assert_eq!(jobs[0].instrs, vec![0, 1]);
        assert_eq!(jobs[1].instrs, vec![2]);
        assert_eq!(jobs[2].instrs, vec![3]);
        assert_eq!(jobs[3].instrs, vec![0, 1]);
        let ids: Vec<u64> = jobs.iter().map(|j| j.batch_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // One worker: one batch per port regardless of size.
        let jobs = make_jobs(&pending, 1);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].instrs.len(), 4);
        assert_eq!(jobs[1].instrs.len(), 2);
    }
}
