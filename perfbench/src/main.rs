//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload go-d1000|deep-td10|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the workload's inputs from the seed, sets up
//! several times (generate, write the CLI's text files, parse them and
//! bind a daemon, warm up), precomputes the expected outputs, and then
//! measures for `--seconds`: a rotation of `taxogram mine` invocations
//! through the CLI's public entry, then a closed-loop request mix against
//! the daemon. Every output is checked byte for byte. Every timing is
//! reported in reference-speed units (see [`calib`]), beside its raw wall
//! time and the calibration it was scaled by.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the traced run (`--trace 1`). The run exits
//! non-zero if any output failed its check. It reads and writes only
//! under `.bench_work/` in the current directory.

mod batch;
mod calib;
mod serve;
mod stats;
mod trace;
mod workloads;

use calib::{Calibrator, Timing};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tsg_graph::{GraphDatabase, LabelTable};
use tsg_taxonomy::Taxonomy;
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median. Each takes tens of
/// milliseconds, so several keep the median steady.
const SETUP_REPS: usize = 5;

/// Slices the measured seconds are cut into, each a stretch of the CLI
/// rotation and then one of the serve mix. The host's speed regimes last
/// 5–30 s, so a surface measured in one block of the run would see only
/// one or two of them; in slices, each surface samples the whole run.
const SLICES: u32 = 3;

/// A second seed, never used while the benchmark was tuned, for
/// confirming a claim made on seeds 1–10.
pub const CONFIRM_SEED: u64 = 20_261_017;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// A run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload, seed: u64) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!(
            "{}-seed{seed}-pid{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(dir.join("spill"))
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up workload: its input files and a daemon serving them.
pub struct Env {
    /// Which workload.
    pub workload: Workload,
    /// The taxonomy file.
    pub taxonomy_path: PathBuf,
    /// The database file.
    pub database_path: PathBuf,
    /// Spill directory for sharded runs.
    pub spill_dir: PathBuf,
    /// The resident daemon.
    pub daemon: serve::Daemon,
}

impl Env {
    /// Generates the inputs, writes them as the CLI's text files, parses
    /// them and binds a daemon as `taxogram serve` would, and warms up
    /// with a ping and a `taxogram stats` over the database file.
    fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Env, String> {
        let inputs = workloads::generate(workload, seed);
        let taxonomy_path = dir.join("taxonomy.txt");
        let database_path = dir.join("database.txt");
        let write = |p: &Path, text: &str| {
            std::fs::write(p, text).map_err(|e| format!("cannot write {}: {e}", p.display()))
        };
        write(&taxonomy_path, &inputs.taxonomy)?;
        write(&database_path, &inputs.database)?;
        let (_, taxonomy, db) = load_files(&taxonomy_path, &database_path)?;
        let env = Env {
            workload,
            taxonomy_path,
            database_path,
            spill_dir: dir.join("spill"),
            daemon: serve::Daemon::bind(db, taxonomy)?,
        };
        let mut client = env.daemon.connect()?;
        let pong = client
            .call("{\"op\":\"ping\"}\n")
            .map_err(|e| e.to_string())?;
        if !pong.contains("\"pong\"") {
            return Err(format!("daemon answered a ping with {pong}"));
        }
        let mut out = Vec::new();
        let stats_args: Vec<String> = vec![
            "stats".into(),
            "--database".into(),
            env.database_path.display().to_string(),
        ];
        if batch::run_cli(&stats_args, &mut out) != 0 {
            return Err(format!(
                "taxogram stats failed: {}",
                String::from_utf8_lossy(&out)
            ));
        }
        Ok(env)
    }

    /// Parses the input files as the CLI does.
    pub fn load(&self) -> Result<(LabelTable, Taxonomy, GraphDatabase), String> {
        load_files(&self.taxonomy_path, &self.database_path)
    }

    fn shutdown(self) -> Result<(), String> {
        self.daemon.shutdown()
    }
}

fn load_files(
    taxonomy: &Path,
    database: &Path,
) -> Result<(LabelTable, Taxonomy, GraphDatabase), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (names, taxonomy) =
        tsg_taxonomy::io::read_taxonomy(&read(taxonomy)?).map_err(|e| e.to_string())?;
    let db = tsg_graph::io::read_database(&read(database)?).map_err(|e| e.to_string())?;
    Ok((names, taxonomy, db))
}

/// The metrics, counters and verdict one run prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Each timing metric's value computed from raw wall times instead.
    raw_wall: Vec<(String, f64)>,
    /// Checked operations.
    pub attempted: usize,
    /// Operations whose output failed its check (or that failed).
    pub failed: usize,
    /// Checks other than per-operation output (workload shape) failed.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records what a timing metric reads from raw wall times.
    pub fn raw(&mut self, name: &str, value: f64) {
        self.raw_wall.push((name.to_owned(), value));
    }

    /// Adds a timing metric as the median of `timings`, printing the raw
    /// median and calibration beside it.
    pub fn timing(&mut self, name: &str, timings: &[Timing]) {
        let pick = |f: fn(&Timing) -> f64| {
            stats::median(&timings.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let (norm, raw, calib) = (
            pick(|t| t.norm_ms),
            pick(|t| t.wall_ms),
            pick(|t| t.calib_ms),
        );
        println!(
            "{name}: {norm:.3} ms normalised, {raw:.3} ms raw, calib {calib:.3} ms, {} reps",
            timings.len()
        );
        self.metric(name, norm, "ms");
        self.raw(name, raw);
    }

    /// Records a failed check that is not an operation's output.
    pub fn problem(&mut self, what: String) {
        eprintln!("FAILED: {what}");
        self.problems.push(what);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The raw-wall line, for comparing spreads with and without
    /// normalisation.
    fn raw_json(&self) -> String {
        let fields: Vec<String> = self
            .raw_wall
            .iter()
            .map(|(name, v)| format!("\"{name}\": {}", json_number(*v)))
            .collect();
        format!("{{\"raw_wall\": {{{}}}}}", fields.join(", "))
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = json_number(*value);
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number; non-finite values (which also make the run incorrect)
/// print as -1.
fn json_number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

/// The process's peak resident set (VmHWM) in MB. The kernel's "kB"
/// there is 1024 bytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Resets VmHWM to the current resident set, so the peak read next covers
/// only what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| {
        format!("cannot reset the peak resident set through /proc/self/clear_refs: {e}")
    })
}

/// nproc, CPU model, load average and revision, as one JSON line.
fn host_stanza() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"loadavg\": \"{load}\", \"revision\": \"{}\"}}}}",
        cpu.replace('"', "'"),
        git_revision()
    )
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let workload = args.workload;
    println!("{}", host_stanza());
    println!(
        "workload {} seed {} seconds {} trace {} (confirm seed {CONFIRM_SEED})",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Every peak_rss_mb reading depends on the reset; without it the
    // metric would be the whole process's peak.
    reset_peak_rss()?;
    let work = WorkDir::create(workload, args.seed)?;
    let mut cal = Calibrator::new();
    cal.measure();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = env.take() {
            Env::shutdown(old)?;
        }
        let (made, t) = cal.time(|| Env::setup(workload, args.seed, &work.0));
        env = Some(made?);
        setups.push(t);
    }
    let env = env.expect("at least one set-up ran");

    let cli_gate = batch::CliGate::new(&env)?;
    let (_, taxonomy, db) = env.load()?;
    let serve_gate = serve::ServeGate::new(workload, &db, &taxonomy)?;
    println!(
        "inputs: {} graphs, {} concepts; CLI reference {} patterns; serve gate {} queries",
        db.len(),
        taxonomy.concept_count(),
        cli_gate.patterns(),
        workload.serve_grid().len()
    );

    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    if args.trace {
        trace::run(
            &env,
            &cli_gate,
            &serve_gate,
            (&taxonomy, &db),
            &mut cal,
            budget,
            &mut report,
            args.seed,
        )?;
    } else {
        // Only the traced run needs this second parsed copy; dropping it
        // keeps it out of every peak_rss_mb reading.
        drop((taxonomy, db));
        measure(
            &env,
            &cli_gate,
            &serve_gate,
            &mut cal,
            budget,
            args.seed,
            &setups,
            &mut report,
        )?;
    }
    env.shutdown()?;
    drop(work);
    if !report.raw_wall.is_empty() {
        println!("{}", report.raw_json());
    }
    println!("{}", report.json());
    Ok(if report.correct() { 0 } else { 1 })
}

/// The end-to-end run: CLI rotation, then the serve mix.
#[allow(clippy::too_many_arguments)]
fn measure(
    env: &Env,
    cli_gate: &batch::CliGate,
    serve_gate: &serve::ServeGate,
    cal: &mut Calibrator,
    budget: Duration,
    seed: u64,
    setups: &[Timing],
    report: &mut Report,
) -> Result<(), String> {
    let workload = env.workload;
    let cli_budget = budget.mul_f64(workload.cli_share());
    let serve_budget = budget - cli_budget;
    let mut batch = batch::BatchRun::new(env);
    let mut load = serve::Load::new(workload, seed);
    let mut serve = serve::ServeRun::default();
    for _ in 0..SLICES {
        batch::measure(env, cli_gate, cal, cli_budget / SLICES, &mut batch)?;
        load.measure(
            &env.daemon,
            serve_gate,
            cal,
            serve_budget / SLICES,
            &mut serve,
        )?;
    }
    // The peak of each operation type is the median over its reps, which
    // keeps allocator history out of it; the metric is the largest type.
    let peak = batch
        .peaks_mb
        .iter()
        .chain([&serve.peaks_mb])
        .filter_map(|p| stats::median(p))
        .fold(f64::NAN, f64::max);
    let (hits, misses, shed) = env.daemon.connect()?.stats()?;

    let secs = |f: fn(&Timing) -> f64| {
        stats::median(&setups.iter().map(|t| f(t) / 1000.0).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let (norm, raw) = (secs(|t| t.norm_ms), secs(|t| t.wall_ms));
    println!(
        "setup_s: {norm:.4} s normalised, {raw:.4} s raw, {} set-ups",
        setups.len()
    );
    report.metric("setup_s", norm, "s");
    report.raw("setup_s", raw);

    report.attempted = batch.attempted + serve.samples.len();
    report.failed = batch.failed + serve.samples.len() - serve.ok();
    let ok = report.attempted - report.failed;
    report.metric("ok_ratio", stats::ratio(ok, report.attempted), "ratio");
    println!("peak_rss_mb: {peak:.1} MB (largest per-operation-type median of VmHWM)");
    report.metric("peak_rss_mb", peak, "MB");

    for (name, timings) in &batch.timings {
        report.timing(name, timings);
    }

    let (hit_norm, hit_raw) = serve.latencies(|o| o == serve::Outcome::Hit);
    let (miss_norm, miss_raw) = serve.latencies(|o| o == serve::Outcome::Miss);
    let (all_norm, all_raw) = serve.latencies(|_| true);
    let calib = stats::median(&serve.calib_ms).unwrap_or(f64::NAN);
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    println!(
        "serve_hit_ms: {:.4} ms normalised, {:.4} ms raw, calib {calib:.3} ms, {} hits",
        med(&hit_norm),
        med(&hit_raw),
        hit_norm.len()
    );
    report.metric("serve_hit_ms", med(&hit_norm), "ms");
    report.raw("serve_hit_ms", med(&hit_raw));
    println!(
        "serve_mine_ms: {:.3} ms normalised, {:.3} ms raw, calib {calib:.3} ms, {} misses",
        med(&miss_norm),
        med(&miss_raw),
        miss_norm.len()
    );
    report.metric("serve_mine_ms", med(&miss_norm), "ms");
    report.raw("serve_mine_ms", med(&miss_raw));
    let (p, tail, beyond) = stats::tail(&all_norm).unwrap_or((f64::NAN, f64::NAN, 0));
    let raw_tail = stats::tail(&all_raw).map_or(f64::NAN, |t| t.1);
    println!(
        "serve_tail_ms: p{p} of {} requests = {tail:.3} ms normalised ({beyond} samples beyond), {raw_tail:.3} ms raw",
        all_norm.len()
    );
    report.metric("serve_tail_ms", tail, "ms");
    report.raw("serve_tail_ms", raw_tail);
    let rps = serve.ok() as f64 / serve.norm_secs;
    let raw_rps = serve.ok() as f64 / serve.wall_secs;
    println!(
        "serve_rps: {rps:.3} /s normalised, {raw_rps:.3} /s raw, over {:.2} s raw",
        serve.wall_secs
    );
    report.metric("serve_rps", rps, "1/s");
    report.raw("serve_rps", raw_rps);
    let count = |o: serve::Outcome| serve.samples.iter().filter(|s| s.outcome == o).count();
    println!(
        "serve: {} requests, {} hits, {} misses, {} shed, {} errors, {} lost, {} mismatched; daemon stats: {hits} cache hits, {misses} misses, {shed} shed",
        serve.samples.len(),
        hit_norm.len(),
        miss_norm.len(),
        count(serve::Outcome::Shed),
        count(serve::Outcome::Error),
        count(serve::Outcome::Lost),
        count(serve::Outcome::Mismatch)
    );
    Ok(())
}
