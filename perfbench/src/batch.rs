//! The batch surface: `taxogram mine` through the CLI's public entry,
//! `taxogram::cli::run`, so engine choice, parse and render are exactly
//! what a user of the binary gets.

use crate::calib::{Calibrator, Timing};
use crate::stats::strip_trailer;
use crate::Env;
use std::time::{Duration, Instant};
use taxogram_core::{Taxogram, TaxogramConfig};

/// Reps of each operation one call of [`measure`] makes at least,
/// whatever its budget.
const MIN_REPS: usize = 3;

/// One CLI invocation of the rotation.
pub struct Op {
    /// Metric name.
    pub metric: &'static str,
    /// Arguments after the program name.
    pub args: Vec<String>,
}

/// The rotation: serial, `--threads 2` (whatever engine the CLI picks
/// for it), and sharded over four spill files on two threads.
pub fn ops(env: &Env) -> Vec<Op> {
    let base = |extra: &[&str]| -> Vec<String> {
        let mut a: Vec<String> = vec![
            "mine".into(),
            "--taxonomy".into(),
            env.taxonomy_path.display().to_string(),
            "--database".into(),
            env.database_path.display().to_string(),
            "--support".into(),
            env.workload.theta().to_string(),
        ];
        a.extend(extra.iter().map(|s| (*s).to_owned()));
        a
    };
    let spill = env.spill_dir.display().to_string();
    vec![
        Op {
            metric: "cli_serial_ms",
            args: base(&["--threads", "1"]),
        },
        Op {
            metric: "cli_threads_ms",
            args: base(&["--threads", "2"]),
        },
        Op {
            metric: "cli_shards_ms",
            args: base(&["--shards", "4", "--threads", "2", "--spill-dir", &spill]),
        },
    ]
}

/// Runs the CLI in process; returns its exit code and output.
pub fn run_cli(args: &[String], out: &mut Vec<u8>) -> i32 {
    out.clear();
    taxogram::cli::run(args, out)
}

/// The byte-identity gate for CLI output.
pub struct CliGate {
    reference: Vec<u8>,
}

impl CliGate {
    /// Takes the serial CLI output as the reference, after checking that
    /// its pattern set is exactly that of a direct `Taxogram::mine` on
    /// the same files.
    pub fn new(env: &Env) -> Result<CliGate, String> {
        let serial = &ops(env)[0];
        let mut out = Vec::new();
        if run_cli(&serial.args, &mut out) != 0 {
            return Err(format!(
                "serial CLI failed: {}",
                String::from_utf8_lossy(&out)
            ));
        }
        let text = String::from_utf8(out).map_err(|e| e.to_string())?;
        let body = strip_trailer(&text);
        let mut cli_lines: Vec<&str> = body.lines().collect();
        cli_lines.sort_unstable();

        let (names, taxonomy, db) = env.load()?;
        let result = Taxogram::new(TaxogramConfig::with_threshold(env.workload.theta()))
            .mine(&db, &taxonomy)
            .map_err(|e| e.to_string())?;
        let mut direct: Vec<String> = result
            .patterns
            .iter()
            .map(|p| {
                let nodes: Vec<String> = p
                    .graph
                    .labels()
                    .iter()
                    .map(|&l| names.name(l).map_or_else(|| l.to_string(), str::to_owned))
                    .collect();
                let edges: Vec<String> = p
                    .graph
                    .edges()
                    .iter()
                    .map(|e| format!("{}-{}({})", e.u, e.v, e.label))
                    .collect();
                format!(
                    "{:.3}  [{}]  {}",
                    p.support_count as f64 / db.len() as f64,
                    nodes.join(", "),
                    edges.join(" ")
                )
            })
            .collect();
        direct.sort_unstable();
        if cli_lines != direct {
            return Err(format!(
                "serial CLI printed {} patterns, a direct Taxogram::mine found {}; the sets differ",
                cli_lines.len(),
                direct.len()
            ));
        }
        Ok(CliGate {
            reference: body.as_bytes().to_vec(),
        })
    }

    /// Whether an output, ignoring its trailer, is the reference byte for
    /// byte.
    pub fn check(&self, out: &[u8]) -> bool {
        std::str::from_utf8(out).is_ok_and(|s| strip_trailer(s).as_bytes() == self.reference)
    }

    /// Patterns in the reference output.
    pub fn patterns(&self) -> usize {
        self.reference.iter().filter(|&&b| b == b'\n').count()
    }
}

/// What the rotation measured.
pub struct BatchRun {
    /// Per operation of [`ops`]: the timings of its byte-correct reps.
    pub timings: Vec<(&'static str, Vec<Timing>)>,
    /// Per operation of [`ops`]: the peak resident set of each rep, MB.
    pub peaks_mb: Vec<Vec<f64>>,
    /// Invocations made.
    pub attempted: usize,
    /// Invocations that exited non-zero or failed the gate.
    pub failed: usize,
}

impl BatchRun {
    /// A run of the rotation with nothing measured yet.
    pub fn new(env: &Env) -> BatchRun {
        let ops = ops(env);
        BatchRun {
            timings: ops.iter().map(|op| (op.metric, Vec::new())).collect(),
            peaks_mb: vec![Vec::new(); ops.len()],
            attempted: 0,
            failed: 0,
        }
    }
}

/// Rotates through the operations for `budget`, each bracketed by
/// calibrations, adding to `run`.
pub fn measure(
    env: &Env,
    gate: &CliGate,
    cal: &mut Calibrator,
    budget: Duration,
    run: &mut BatchRun,
) -> Result<(), String> {
    let ops = ops(env);
    let mut out = Vec::with_capacity(1 << 20);
    let deadline = Instant::now() + budget;
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        for ((op, (_, timings)), peaks) in ops.iter().zip(&mut run.timings).zip(&mut run.peaks_mb) {
            crate::reset_peak_rss()?;
            let (code, t) = cal.time(|| run_cli(&op.args, &mut out));
            peaks.push(crate::peak_rss_mb());
            run.attempted += 1;
            if code == 0 && gate.check(&out) {
                timings.push(t);
            } else {
                run.failed += 1;
                eprintln!("{}: output failed the byte-identity gate", op.metric);
            }
        }
        reps += 1;
    }
    Ok(())
}
