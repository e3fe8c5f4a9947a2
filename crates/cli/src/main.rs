//! `gila` — the command-line front end of the platform.
//!
//! ```text
//! gila verify    --ila SPEC.ila --rtl IMPL.v --map MAP.json [--map MAP2.json ...]
//! gila describe  --ila SPEC.ila
//! gila synth     --ila SPEC.ila [-o OUT.v]
//! gila check-inv --rtl IMPL.v --invariant EXPR [--depth K]
//! gila props     --ila SPEC.ila --map MAP.json
//! ```

use std::process::ExitCode;

mod commands;
mod serve_cmd;

fn usage() -> ! {
    eprintln!(
        "gila — instruction-level modeling and verification of hardware modules

USAGE:
  gila verify    --ila SPEC.ila --rtl IMPL.v --map MAP.json [--map MAP2.json ...]
                 [--stop-at-first-cex] [--jobs N]
                 [--conflict-budget N] [--timeout-ms N] [--retries N]
                 [--checkpoint FILE] [--resume FILE] [--no-preprocess]
                 [--no-absint] [--vcd PREFIX] [--trace OUT.jsonl] [--stats]
  gila describe  --ila SPEC.ila [--format ila]
  gila synth     --ila SPEC.ila [-o OUT.v]
  gila check-inv --rtl IMPL.v --invariant EXPR [--invariant EXPR ...] [--depth K]
  gila props     --ila SPEC.ila --map MAP.json [--map MAP2.json ...]
  gila export    --rtl IMPL.v [--prop EXPR] [-o OUT.btor2]
  gila sim       (--rtl IMPL.v | --ila SPEC.ila) --stimulus FILE
  gila lint      (SPEC.ila | --all-designs) [--rtl IMPL.v] [--json]
                 [--deny CODE ...] [--jobs N] [--no-absint] [--trace OUT.jsonl]
  gila hunt      (--design NAME ... | --all-designs) [--buggy] [--seeds N]
                 [--cycles N] [--jobs N] [--seed-base N] [--no-shrink]
                 [--out DIR] [--json] [--trace OUT.jsonl]
  gila hunt      --replay FILE --design NAME [--buggy] [--json]
  gila serve     (--listen HOST:PORT ... | --socket PATH ...) [--cache FILE]
                 [--cache-bytes N] [--cache-entries N] [--queue-cap N]
                 [--workers N] [--jobs N] [--deadline-ms N]
                 [--watchdog-factor N] [--drain-ms N] [--trace OUT.jsonl]
  gila client    (--connect HOST:PORT | --socket PATH) [--design NAME ...]
                 [--buggy] [--no-cache] [--deadline-ms N] [--retries N]
                 [--stim FILE] [--stats] [--ping] [--shutdown] [--json]

EXIT CODES:
  0  success (all properties hold / invariants proved / lint clean)
  1  a property failed, an invariant was refuted, or lint found an
     error-class or --deny'ed diagnostic
  2  usage or input error (including a flag the subcommand does not take)
  3  undecided: at least one verdict is UNKNOWN (solve budget exhausted)
  4  internal error (a verification job panicked, or a checkpoint/
     scheduler failure); 4 beats 1 beats 3 when a run mixes outcomes
  5  (serve only) the drain budget expired with work still in flight;
     stragglers were cancelled, the cache journal stayed consistent

SERVE OPTIONS:
  --listen HOST:PORT   accept TCP connections (repeatable; port 0 binds
                       an ephemeral port, announced on stdout)
  --socket PATH        accept Unix-domain connections (repeatable; a
                       stale socket file is removed and re-bound)
  --cache FILE         persist the content-addressed proof cache as an
                       append-only JSONL journal at FILE; on restart the
                       journal is replayed, dropping torn/corrupt records
  --cache-bytes N      resident-cache byte budget (LRU eviction)
  --cache-entries N    resident-cache entry budget
  --queue-cap N        admission-queue bound; requests beyond it are shed
                       immediately with an 'overloaded' + retry hint
  --workers N          request-executing worker threads (default 2)
  --jobs N             verification pool size per request
  --deadline-ms N      default per-request deadline; the watchdog cancels
                       requests overrunning it and recycles stuck workers
  --drain-ms N         how long a SIGTERM/SIGINT drain waits for in-flight
                       work before cancelling it (default 30000)

CLIENT OPTIONS:
  --design NAME        verify a bundled case study (repeatable)
  --buggy              verify the bug-injected RTL variant
  --no-cache           bypass the daemon's proof cache for this request
  --deadline-ms N      per-request deadline, enforced daemon-side
  --retries N          retry budget for 'overloaded' sheds and transport
                       errors; a delivered response is never retried
  --stim FILE          ship a recorded hunt command stream for replay
                       (exit 1 iff the divergence reproduces)
  --stats              fetch daemon + cache counters
  --shutdown           ask the daemon to drain and exit

HUNT OPTIONS:
  --design NAME        hunt one bundled case study (repeatable); names as
                       in Table I, case-insensitive (e.g. 'AXI Slave')
  --all-designs        hunt every bundled case study
  --buggy              hunt the bug-injected RTL variants instead of the
                       fixed implementations (skips designs without one;
                       exit 1 proves the hunter finds the seeded bugs)
  --seeds N            random seeds per (design, port) target (default 256)
  --cycles N           maximum commands per seed (default 1024)
  --jobs N             worker threads compiling and co-simulating targets
                       (default 1); findings are identical at any count
  --seed-base N        first seed; task i runs seed N+i (default 2822)
  --no-shrink          report divergences as found, skipping delta-debug
                       minimization of the reproducing command stream
  --out DIR            write each finding's (shrunk) command stream to
                       DIR/design_port_seed.stim
  --replay FILE        re-run a recorded command stream (the format that
                       findings print) instead of hunting; exit 1 iff the
                       divergence reproduces
  --trace OUT          write one compile span per (worker, design, port)
                       and one eval span per task to OUT (JSONL)

LINT OPTIONS:
  --all-designs        lint the ILA model and RTL of all eight bundled
                       case studies instead of a spec file
  --rtl IMPL.v         also run the RTL passes (GL011-GL013) on IMPL.v
  --json               emit a machine-readable report on stdout
  --deny CODE          exit 1 if CODE (e.g. GL001) was reported, even if
                       it is warning-class; repeatable
  --jobs N             lint ports on N worker threads; output is
                       identical at any job count
  --no-absint          disable the abstract-interpretation fast path that
                       discharges decode checks without SAT calls; the
                       reported diagnostics are identical either way
  --trace OUT          write one lint_pass telemetry span per pass per
                       target to OUT (JSONL)

VERIFY OPTIONS:
  --stop-at-first-cex  stop at the first counterexample (in declaration
                       order on one worker)
  --jobs N             check instructions on a work-stealing pool of N
                       workers, each with a persistent incremental solver
                       per port (0 = one per CPU; default 1, which runs
                       inline in declaration order); designs too small to
                       repay a pool always run on one worker
  --spec SPEC.ila      alias for --ila; without --rtl/--map the spec is
                       checked against its own synthesized RTL (self-check)
  --conflict-budget N  give up on a solve after N SAT conflicts and report
                       the instruction UNKNOWN instead of running forever
  --timeout-ms N       wall-clock budget per solve attempt, milliseconds
  --retries N          re-attempt exhausted instructions up to N times,
                       quadrupling the budget each attempt (default 0)
  --checkpoint FILE    stream every decided verdict to FILE (JSONL), one
                       flushed line per instruction, crash-safe
  --resume FILE        replay decided verdicts from FILE and re-verify
                       only undecided (unknown/panicked/missing) jobs;
                       combine with --checkpoint to keep extending FILE
  --no-preprocess      disable the formula preprocessing pipeline
                       (cone-of-influence slicing, cached simplification,
                       SAT inprocessing) for A/B comparison; preprocessing
                       is on by default and never changes verdicts
  --no-absint          skip the abstract-interpretation fixpoint and the
                       invariant lemmas it asserts before BMC; on by
                       default, proven-sound, and verdict-preserving
  --trace OUT          write a JSONL telemetry trace: one span per port,
                       instruction, SAT solve, CNF blast, and unroll event
  --stats              print a per-port solver/CNF/scheduling summary table"
    );
    std::process::exit(2)
}

/// The flags each subcommand reads, space-separated; a trailing `=`
/// marks a flag that takes a value. `None` for an unknown subcommand.
/// Any other flag is a usage error, so a typo fails loudly instead of
/// being silently ignored.
fn known_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "verify" => {
            "ila= spec= rtl= map= stop-at-first-cex jobs= conflict-budget= timeout-ms= \
             retries= checkpoint= resume= no-preprocess no-absint vcd= trace= stats"
        }
        "describe" => "ila= format=",
        "synth" => "ila= o=",
        "check-inv" => "rtl= invariant= depth=",
        "props" => "ila= map=",
        "export" => "rtl= prop= o=",
        "sim" => "rtl= ila= stimulus=",
        "lint" => "all-designs rtl= json deny= jobs= no-absint trace=",
        "hunt" => {
            "design= all-designs buggy seeds= cycles= jobs= seed-base= no-shrink out= json \
             trace= replay="
        }
        "serve" => {
            "listen= socket= cache= cache-bytes= cache-entries= queue-cap= workers= jobs= \
             deadline-ms= watchdog-factor= drain-ms= trace= fault="
        }
        "client" => {
            "connect= socket= design= buggy no-cache deadline-ms= retries= seed= fault= stim= \
             stats ping shutdown json"
        }
        _ => return None,
    })
}

/// Minimal flag parser for subcommand `cmd` over its `known` flags (see
/// [`known_flags`]): returns (positional, flags) where repeated flags
/// accumulate. `--name` and `-name` are the same flag; one the
/// subcommand does not read exits 2, naming it.
fn parse_args(cmd: &str, known: &str, args: &[String]) -> (Vec<String>, Vec<(String, String)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
            positional.push(a.clone());
            i += 1;
            continue;
        };
        let Some(spec) = known
            .split_whitespace()
            .find(|f| f.strip_suffix('=').unwrap_or(f) == name)
        else {
            eprintln!("gila {cmd}: unknown flag {a}");
            std::process::exit(2);
        };
        let value = if spec.ends_with('=') {
            i += 1;
            let Some(v) = args.get(i) else {
                eprintln!("flag {a} needs a value");
                std::process::exit(2);
            };
            v.clone()
        } else {
            String::new()
        };
        flags.push((name.to_string(), value));
        i += 1;
    }
    (positional, flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        usage()
    }
    let Some(known) = known_flags(cmd) else {
        eprintln!("unknown command {cmd:?}");
        usage()
    };
    let (positional, flags) = parse_args(cmd, known, &args[1..]);
    let result = match cmd.as_str() {
        "verify" => commands::verify(&flags),
        "lint" => commands::lint(&positional, &flags),
        "describe" => commands::describe(&flags),
        "synth" => commands::synth(&flags),
        "check-inv" => commands::check_inv(&flags),
        "props" => commands::props(&flags),
        "export" => commands::export(&flags),
        "sim" => commands::sim(&flags),
        "hunt" => commands::hunt(&flags),
        "serve" => serve_cmd::serve(&flags),
        "client" => serve_cmd::client(&flags),
        _ => unreachable!("known_flags covers every command"),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
