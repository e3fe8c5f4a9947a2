//! gila's benchmark runner.
//!
//! `gila-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --out-dir DIR --benchmark BENCHMARK.json` runs one workload: it sets
//! up, then runs passes of the workload until `S` seconds have gone by
//! (at least one pass), checks every verdict the program returns, and
//! prints a table of every metric (value, sample count, median,
//! quartiles) followed by one JSON result line.
//!
//! With `--trace 0` the result holds the end-to-end metrics. With
//! `--trace 1` the runner alternates untraced and traced passes for `S`
//! seconds, then walks over the layers the workload uses, and the
//! result holds the per-layer metrics; the spans go to `DIR`. The
//! metric names and units come from BENCHMARK.json. See README.md for
//! the workloads and what each metric should move.

mod hunt;
mod layers;
mod prove;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gila_json::Value;

const WORKLOADS: [&str; 4] = ["prove-memory", "prove-control", "serve-edit", "hunt"];

/// Untraced and traced passes a traced run makes at least, each.
const OVERHEAD_PAIRS: usize = 3;

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// What one run measured. Times in `setup`, `check` and `bug` are
/// seconds per sample.
#[derive(Default)]
pub struct Samples {
    pub setup: Vec<f64>,
    pub check: Vec<f64>,
    pub bug: Vec<f64>,
    /// Operation latencies in milliseconds, by operation (a design's
    /// proof, a port's hunt, a design's warm verify).
    /// `op_p50_ms` and `op_p90_ms` are percentiles of each operation's
    /// median: a slow pass then moves one operation's median, not which
    /// operation the percentile lands on.
    pub ops: BTreeMap<String, Vec<f64>>,
    /// Operations issued: instruction proofs, bug searches, lints,
    /// requests, hunt calls.
    pub attempted: u64,
    /// Operations that came back UNKNOWN, panicked, shed, as an error,
    /// or as a hunt-task error.
    pub failed: u64,
}

impl Samples {
    pub fn op(&mut self, key: String, ms: f64) {
        self.ops.entry(key).or_default().push(ms);
    }

    fn op_medians(&self) -> Vec<f64> {
        self.ops.values().map(|v| median(v)).collect()
    }
}

/// A verdict the program got wrong. The run stops and reports
/// `"correct": false`.
pub type Wrong = String;

/// Linear-interpolation quantile of unsorted samples (`q` in 0..=1).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quartile distance over median.
fn spread(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

/// Peak resident set size of this process (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured metrics by name: the reported value and the samples it
/// summarizes.
type Measured = BTreeMap<String, (f64, Vec<f64>)>;

/// The metric names and units BENCHMARK.json lists under `key`.
fn declared(benchmark: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = benchmark
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("no {key:?} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("{key}: entry without name and unit"))
        })
        .collect()
}

/// The metric table (stdout, before the result line) and the result
/// line itself, with the metrics BENCHMARK.json declares, in its order.
fn report(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(String, String)],
    measured: &Measured,
) -> Result<String, String> {
    println!(
        "{:<30} {:>14} {:>6} {:>14} {:>14} {:>14}  unit",
        "metric", "value", "n", "median", "q1", "q3"
    );
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let (value, samples) = measured.get(name).ok_or(format!(
            "BENCHMARK.json declares {name:?}, which the runner does not measure"
        ))?;
        if !value.is_finite() {
            return Err(format!("{name} measured as {value}"));
        }
        println!(
            "{name:<30} {value:>14.6} {:>6} {:>14.6} {:>14.6} {:>14.6}  {unit}",
            samples.len(),
            median(samples),
            quantile(samples, 0.25),
            quantile(samples, 0.75)
        );
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = measured
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "the runner measures {extra:?}, which BENCHMARK.json does not declare"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    benchmark: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out_dir = PathBuf::from(get("--out-dir")?);
    let benchmark = PathBuf::from(get("--benchmark")?);
    Ok(Args {
        benchmark,
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        out_dir,
    })
}

/// One workload, driven the same way by the untraced and traced runs.
pub trait Workload {
    /// Sets up again (without keeping the result), appending `setup_s`
    /// samples to `s`. The end-to-end run calls it after every pass, so
    /// the median spans the whole run rather than its first moments.
    fn setup(&mut self, s: &mut Samples) -> Result<(), Wrong>;
    /// Runs one pass, appending to `s`.
    fn pass(&mut self, rng: &mut Rng, s: &mut Samples) -> Result<(), Wrong>;
    /// After a traced pass: calls each layer the workload uses from
    /// outside, inside spans, and returns the per-layer values that do
    /// not come from spans (counts, rates, percentiles).
    fn layers(&mut self, rng: &mut Rng) -> Result<BTreeMap<&'static str, f64>, Wrong>;
}

fn build(
    name: &str,
    rng: &mut Rng,
    s: &mut Samples,
    out_dir: &std::path::Path,
) -> Result<Box<dyn Workload>, Wrong> {
    Ok(match name {
        "prove-memory" => Box::new(prove::Prove::memory(s)?),
        "prove-control" => Box::new(prove::Prove::control(s)?),
        "serve-edit" => Box::new(serve::ServeEdit::new(rng, s, out_dir)?),
        "hunt" => Box::new(hunt::Hunt::new(s)),
        other => unreachable!("workload {other} validated by parse_args"),
    })
}

fn untraced(args: &Args, rng: &mut Rng) -> Result<(Samples, Measured), Wrong> {
    let mut s = Samples::default();
    let mut w = build(&args.workload, rng, &mut s, &args.out_dir)?;
    let started = Instant::now();
    // Peak RSS after set-up and the first pass: a fixed amount of work,
    // so the figure does not grow with the number of passes a faster
    // build fits into the run.
    w.pass(rng, &mut s)?;
    let rss = peak_rss_mb();
    w.setup(&mut s)?;
    // Each pass's wall and CPU time, for the stderr summary only: the
    // metrics are CPU times (see `trace`), and the ratio shows how much
    // the host's steal and the pool's parallelism separate the two.
    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    while started.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let (pass, secs) = trace::cpu_secs(|| w.pass(rng, &mut s));
        pass?;
        wall_s.push(t0.elapsed().as_secs_f64());
        cpu_s.push(secs);
        w.setup(&mut s)?;
    }
    if !wall_s.is_empty() {
        eprintln!(
            "passes after the first: {}, wall median {:.4} s (spread {:.3}), CPU median {:.4} s (spread {:.3})",
            wall_s.len(),
            median(&wall_s),
            spread(&wall_s),
            median(&cpu_s),
            spread(&cpu_s)
        );
    }
    let ops = s.op_medians();
    let metrics = [
        ("setup_s", (median(&s.setup), s.setup.clone())),
        ("check_s", (median(&s.check), s.check.clone())),
        ("bug_s", (median(&s.bug), s.bug.clone())),
        ("op_p50_ms", (median(&ops), ops.clone())),
        ("op_p90_ms", (quantile(&ops, 0.9), ops.clone())),
        ("peak_rss_mb", (rss, vec![rss])),
    ];
    let metrics = metrics
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Ok((s, metrics))
}

/// Per-layer values: the workload's own, plus for every declared
/// `X_ms` metric it did not set, the summed duration of the `X` spans.
/// A layer the workload never calls reads 0.
fn traced(
    args: &Args,
    rng: &mut Rng,
    per_layer: &[(String, String)],
) -> Result<(Samples, Measured), Wrong> {
    let mut s = Samples::default();
    let mut w = build(&args.workload, rng, &mut s, &args.out_dir)?;
    // Untraced and traced passes alternate for `S` seconds (at least
    // `OVERHEAD_PAIRS` of each), so a slow phase of the host hits both
    // alike; the overhead compares their medians. Only the last traced
    // pass's spans are kept: it is the pass the layer walk follows.
    let mut passes = Samples::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced_s.len() < OVERHEAD_PAIRS || started.elapsed().as_secs_f64() < args.seconds {
        for (on, times) in [(false, &mut plain_s), (true, &mut traced_s)] {
            trace::take();
            trace::set_enabled(on);
            let (pass, secs) = trace::cpu_secs(|| w.pass(rng, &mut passes));
            pass?;
            times.push(secs);
        }
    }
    let mut values = w.layers(rng)?;
    trace::set_enabled(false);
    let spans = trace::take();
    eprintln!(
        "passes: {} untraced (median {:.4} s, spread {:.3}), {} traced (median {:.4} s, spread {:.3})",
        plain_s.len(),
        median(&plain_s),
        spread(&plain_s),
        traced_s.len(),
        median(&traced_s),
        spread(&traced_s)
    );
    values.insert(
        "trace.overhead_pct",
        100.0 * (median(&traced_s) / median(&plain_s) - 1.0),
    );
    let (attempted, failed) = (passes.attempted, passes.failed);
    values.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} ({} recorded)", path.display(), spans.len());
    eprintln!(
        "{:<24} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in trace::self_times(&spans) {
        eprintln!("{name:<24} {count:>7} {total:>12.3} {own:>12.3}");
    }
    if let Some(extra) = values
        .keys()
        .find(|k| !per_layer.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "the runner measures {extra:?}, which BENCHMARK.json does not declare"
        ));
    }
    let mut metrics = Measured::new();
    for (name, _) in per_layer {
        let v = values.get(name.as_str()).copied().unwrap_or_else(|| {
            name.strip_suffix("_ms")
                .map_or(0.0, |span| trace::total_ms(&spans, span))
        });
        metrics.insert(name.clone(), (v, vec![v]));
    }
    s.attempted += attempted;
    s.failed += failed;
    Ok((s, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gila-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let key = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match std::fs::read_to_string(&args.benchmark)
        .map_err(|e| e.to_string())
        .and_then(|text| gila_json::parse(&text).map_err(|e| e.to_string()))
        .and_then(|doc| declared(&doc, key))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gila-perfbench: {}: {e}", args.benchmark.display());
            return ExitCode::from(2);
        }
    };
    let mut rng = Rng::new(args.seed);
    let outcome = if args.trace {
        traced(&args, &mut rng, &declared)
    } else {
        untraced(&args, &mut rng)
    };
    let line = match outcome {
        Ok((s, measured)) => report(true, s.attempted.max(1), s.failed, &declared, &measured),
        Err(wrong) => {
            eprintln!("gila-perfbench: wrong result: {wrong}");
            println!(
                "{}",
                report(false, 1, 0, &[], &Measured::new()).expect("nothing to match")
            );
            return ExitCode::FAILURE;
        }
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gila-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
