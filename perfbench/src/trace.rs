//! The traced run: per-layer metrics from spans around the calls into
//! each layer's public functions, recorded in this file only (spans
//! inside the program are out of scope).
//!
//! Which end-to-end metric each layer metric should move, and on which
//! workload ("no change" marks the workload that bypasses the layer):
//!
//! | metric(s) | layer | should move |
//! |---|---|---|
//! | `taxonomy.parse_ms` | tsg-taxonomy | `cli_*` on go-d1000 (7.8k concepts); no change on deep-td10 |
//! | `graph.parse_ms` | tsg-graph | `cli_*` and `setup_s` on all workloads (small share) |
//! | `relabel.ms` | core Step 1 | `cli_*` on go-d1000 |
//! | `gspan.*` | tsg-gspan / tsg-iso | `cli_serial_ms`, `cli_threads_ms` on go-d1000; little on deep-td10 |
//! | `oi.*` | core oi | `cli_*` on go-d1000 and deep-td10; `serve_mine_ms` |
//! | `enumerate.*` | core enumerate | `cli_*` on deep-td10; no change on go-d1000 |
//! | `bitset.*` | tsg-bitset | `enumerate.ms`, through it `cli_*` on deep-td10 |
//! | `core.mine_ms`, `core.mine_residual_ms` | core miner | `cli_serial_ms` on both batch workloads |
//! | `cli.render_ms` | root CLI | `cli_*` on deep-td10; no change on go-d1000 (144 patterns) |
//! | `pipeline.*` | core pipeline | `cli_threads_ms` on both batch workloads |
//! | `steal.*` | core steal | `cli_threads_ms` if the CLI switches engines; `cli_shards_ms` |
//! | `shard.*` | core shard | `cli_shards_ms` and `peak_rss_mb` on go-d1000; little on deep-td10 |
//! | `serve.ping_ms`, `cache.filter_ms`, `protocol.*`, `serve.hit_residual_ms` | tsg-serve | `serve_hit_ms`, `serve_rps` on serve-mix |
//! | `serve.cache_hit_ratio`, `serve.shed` | tsg-serve | `serve_rps`, `serve_tail_ms`, `ok_ratio` on serve-mix |
//! | `bench.calib_ms`, `bench.trace_overhead_pct` | this benchmark | none: host drift and the cost of tracing |
//!
//! Every timing is normalised like the end-to-end ones; times the
//! program reports about its own phases (`MiningStats`) are scaled by the
//! calibration bracketing the call that produced them.

use crate::batch::{self, CliGate};
use crate::calib::{Calibrator, Timing};
use crate::serve::{self, Outcome, ServeGate};
use crate::stats::{median, ratio};
use crate::workloads::{theta_of, Query, Workload};
use crate::{Env, Report};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use taxogram_core::{MiningResult, ShardOptions, Taxogram, TaxogramConfig};
use tsg_graph::GraphDatabase;
use tsg_gspan::{GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::Taxonomy;

/// Reps of each layer call; metrics are their medians.
const REPS: usize = 5;
/// Calls per batch for the sub-millisecond serve-layer functions.
const SMALL_CALLS: usize = 50;

/// One recorded span.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        out
    }
}

/// Runs `op` in a span, bracketed by calibrations outside the span.
fn layer<T>(
    tr: &mut Tracer,
    cal: &mut Calibrator,
    name: &'static str,
    parent: usize,
    op: impl FnOnce() -> T,
) -> (T, Timing) {
    let request = tr.spans[parent].request;
    cal.time(|| {
        let id = tr.open(name, Some(parent), request);
        let out = op();
        tr.close(id);
        out
    })
}

/// Counts classes and embeddings of a plain gSpan search.
#[derive(Default)]
struct CountingSink {
    classes: usize,
    embeddings: usize,
}

impl PatternSink for CountingSink {
    fn report(&mut self, p: &MinedPattern<'_>) -> Grow {
        self.classes += 1;
        self.embeddings += p.embeddings.len();
        Grow::Continue
    }
}

/// Per-rep values of every metric, reduced to medians at the end.
#[derive(Default)]
struct Samples(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .and_then(|(_, _, v)| median(v))
            .unwrap_or(f64::NAN)
    }
}

/// Median of per-call normalised times of `calls` consecutive calls,
/// bracketed as one batch.
fn per_call_ms(cal: &mut Calibrator, calls: usize, mut op: impl FnMut()) -> f64 {
    let mut walls = Vec::with_capacity(calls);
    let (_, t) = cal.time(|| {
        for _ in 0..calls {
            let start = Instant::now();
            op();
            walls.push(start.elapsed().as_secs_f64() * 1000.0);
        }
    });
    median(&walls.iter().map(|&w| t.scale(w)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Counts one checked operation.
fn check(report: &mut Report, ok: bool, what: &str) {
    report.attempted += 1;
    if !ok {
        report.failed += 1;
        eprintln!("{what}: output failed its check");
    }
}

fn same_patterns(a: &MiningResult, b: &MiningResult) -> bool {
    tsg_serve::render_patterns(&a.patterns) == tsg_serve::render_patterns(&b.patterns)
}

/// The traced run on one workload.
#[allow(clippy::too_many_arguments)]
pub fn run(
    env: &Env,
    cli_gate: &CliGate,
    serve_gate: &ServeGate,
    (taxonomy, db): (&Taxonomy, &GraphDatabase),
    cal: &mut Calibrator,
    budget: Duration,
    report: &mut Report,
    seed: u64,
) -> Result<(), String> {
    let workload = env.workload;
    let theta = workload.theta();
    let cfg = TaxogramConfig::with_threshold(theta);
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut s = Samples::default();
    let cli_serial = &batch::ops(env)[0];
    let tax_text = std::fs::read_to_string(&env.taxonomy_path).map_err(|e| e.to_string())?;
    let db_text = std::fs::read_to_string(&env.database_path).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(1 << 20);
    let mut core_run = None;

    for rep in 0..REPS {
        // The same CLI call untraced and inside a span: their difference
        // is the cost of tracing.
        let (code, untraced) = cal.time(|| batch::run_cli(&cli_serial.args, &mut out));
        check(report, code == 0 && cli_gate.check(&out), "cli serial");
        s.push("cli_serial_untraced", "ms", untraced.norm_ms);
        s.push("cli_serial_all", "ms", untraced.norm_ms);
        let root = tr.open("sweep", None, rep as u64);
        let (code, traced) = layer(&mut tr, cal, "cli.serial", root, || {
            batch::run_cli(&cli_serial.args, &mut out)
        });
        check(
            report,
            code == 0 && cli_gate.check(&out),
            "cli serial (traced)",
        );
        s.push("cli_serial_traced", "ms", traced.norm_ms);
        s.push("cli_serial_all", "ms", traced.norm_ms);

        let (_, t) = layer(&mut tr, cal, "taxonomy.parse", root, || {
            tsg_taxonomy::io::read_taxonomy(&tax_text).map(|_| ())
        });
        s.push("taxonomy.parse_ms", "ms", t.norm_ms);
        let (_, t) = layer(&mut tr, cal, "graph.parse", root, || {
            tsg_graph::io::read_database(&db_text).map(|_| ())
        });
        s.push("graph.parse_ms", "ms", t.norm_ms);
        let (rel, relabel_t) = layer(&mut tr, cal, "relabel", root, || {
            taxogram_core::relabel::relabel(db, taxonomy)
        });
        let rel = rel.map_err(|e| e.to_string())?;
        s.push("relabel.ms", "ms", relabel_t.norm_ms);
        let (sink, search_t) = layer(&mut tr, cal, "gspan.search", root, || {
            let mut sink = CountingSink::default();
            let config = GSpanConfig {
                min_support: db.min_support_count(theta),
                max_edges: None,
            };
            GSpan::new(&rel.dmg, config).mine(&mut sink);
            sink
        });
        s.push("gspan.search_ms", "ms", search_t.norm_ms);
        s.push("gspan.classes", "count", sink.classes as f64);
        s.push("gspan.embeddings", "count", sink.embeddings as f64);

        let (r, t) = layer(&mut tr, cal, "core.mine", root, || {
            Taxogram::new(cfg).mine(db, taxonomy)
        });
        let r = r.map_err(|e| e.to_string())?;
        let st = &r.stats;
        s.push("core.mine_ms", "ms", t.norm_ms);
        s.push("oi.build_ms", "ms", t.scale(st.oi_build_ms));
        s.push("oi.updates", "count", st.oi_updates as f64);
        s.push("oi.peak_bytes", "bytes", st.peak_oi_bytes as f64);
        s.push("enumerate.ms", "ms", t.scale(st.enumerate_ms));
        s.push(
            "enumerate.intersections",
            "count",
            st.enumeration.intersections as f64,
        );
        s.push("enumerate.emitted", "count", st.enumeration.emitted as f64);
        s.push(
            "enumerate.yield",
            "ratio",
            ratio(st.enumeration.emitted, st.enumeration.intersections),
        );
        let residual = t.norm_ms
            - relabel_t.norm_ms
            - search_t.norm_ms
            - t.scale(st.oi_build_ms)
            - t.scale(st.enumerate_ms);
        s.push("core.mine_residual_ms", "ms", residual);
        s.push("trace.residual_pct", "pct", 100.0 * residual / t.norm_ms);

        let (p, t) = layer(&mut tr, cal, "pipeline.mine", root, || {
            taxogram_core::mine_pipelined(&cfg, db, taxonomy, 2)
        });
        let p = p.map_err(|e| e.to_string())?;
        check(report, same_patterns(&p, &r), "pipeline");
        s.push("pipeline.mine_ms", "ms", t.norm_ms);
        s.push(
            "pipeline.peak_embedding_bytes",
            "bytes",
            p.stats.peak_embedding_bytes as f64,
        );

        let (p, t) = layer(&mut tr, cal, "steal.mine", root, || {
            taxogram_core::mine_stealing(&cfg, db, taxonomy, 2)
        });
        let p = p.map_err(|e| e.to_string())?;
        check(report, same_patterns(&p, &r), "steal");
        s.push("steal.mine_ms", "ms", t.norm_ms);
        s.push("steal.steals", "count", p.stats.steals as f64);
        s.push(
            "steal.peak_embedding_bytes",
            "bytes",
            p.stats.peak_embedding_bytes as f64,
        );

        let options = ShardOptions {
            shards: 4,
            threads: 2,
            spill_dir: Some(env.spill_dir.clone()),
            ..ShardOptions::default()
        };
        let (o, t) = layer(&mut tr, cal, "shard.mine", root, || {
            taxogram_core::mine_sharded(&cfg, db, taxonomy, &options)
        });
        let o = o.map_err(|e| e.to_string())?;
        check(report, same_patterns(&o.result, &r), "shard");
        let ss = &o.shard_stats;
        s.push("shard.mine_ms", "ms", t.norm_ms);
        s.push("shard.count", "count", ss.shards as f64);
        s.push("shard.candidates", "count", ss.candidates as f64);
        s.push(
            "shard.yield",
            "ratio",
            ratio(ss.candidates - ss.globally_infrequent, ss.candidates),
        );
        s.push("shard.db_streams", "count", ss.db_streams as f64);
        s.push("shard.spilled_bytes", "bytes", ss.spilled_bytes as f64);
        s.push(
            "shard.largest_bytes",
            "bytes",
            ss.largest_shard_bytes as f64,
        );
        tr.close(root);
        s.push("bench.calib_ms", "ms", cal.measure());
        core_run = Some(r);
    }
    let core_run = core_run.expect("at least one rep ran");

    let (rows, t) = cal.time(tsg_bench::kernels::kernel_medians);
    for (kernel, metric) in [
        (
            "sparse_dense_count_fused",
            "bitset.sparse_dense_count_fused_ns",
        ),
        (
            "sparse_dense_distinct_mapped",
            "bitset.sparse_dense_distinct_mapped_ns",
        ),
        (
            "adaptive_clustered_count",
            "bitset.adaptive_clustered_count_ns",
        ),
    ] {
        let ns = rows
            .iter()
            .find(|r| r.0 == kernel)
            .map_or(f64::NAN, |r| r.1);
        s.push(metric, "ns", t.scale(ns));
    }

    // The serve layer on this workload's daemon: a miss at the lowest θ
    // of the workload's serve grid, then hits at the first grid θ at
    // least 0.05 above it, split into ping, cache filter and render.
    let lo = Query {
        key: 0,
        theta: workload.serve_thetas()[0],
    };
    let hi = Query {
        key: 0,
        theta: *workload
            .serve_thetas()
            .iter()
            .find(|&&h| h >= lo.theta + 5)
            .expect("every serve grid spans at least 0.05"),
    };
    let mut client = env.daemon.connect()?;
    let root = tr.open("serve", None, REPS as u64);
    let mut pings = Vec::with_capacity(SMALL_CALLS * 4);
    let (_, t) = cal.time(|| {
        for i in 0..SMALL_CALLS * 4 {
            let id = tr.open("serve.ping", Some(root), i as u64);
            let start = Instant::now();
            let answer = client.call("{\"op\":\"ping\"}\n");
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            tr.close(id);
            pings.push((ms, answer.is_ok_and(|l| l.contains("\"pong\""))));
        }
    });
    for &(_, ok) in &pings {
        check(report, ok, "ping");
    }
    let ping_ms =
        median(&pings.iter().map(|p| t.scale(p.0)).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    s.push("serve.ping_ms", "ms", ping_ms);
    let miss = client
        .call(&lo.frame("trace-miss"))
        .map(|l| serve_gate.check(lo, l));
    check(report, matches!(miss, Ok(Outcome::Miss)), "serve miss");
    let mut hits = Vec::with_capacity(SMALL_CALLS);
    let (_, t) = cal.time(|| {
        for i in 0..SMALL_CALLS {
            let id = tr.open("serve.hit", Some(root), (SMALL_CALLS * 4 + i) as u64);
            let start = Instant::now();
            let answer = client.call(&hi.frame("trace-hit"));
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            tr.close(id);
            hits.push((ms, answer.map(|l| serve_gate.check(hi, l))));
        }
    });
    for (_, outcome) in &hits {
        check(report, matches!(outcome, Ok(Outcome::Hit)), "serve hit");
    }
    let hit_ms = median(&hits.iter().map(|h| t.scale(h.0)).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    tr.close(root);

    let floor = db.min_support_count(theta_of(hi.theta));
    let cached = Taxogram::new(TaxogramConfig::with_threshold(theta_of(lo.theta)))
        .mine(db, taxonomy)
        .map_err(|e| e.to_string())?;
    let filter_ms = per_call_ms(cal, SMALL_CALLS, || {
        std::hint::black_box(tsg_serve::filter_run(&cached, floor));
    });
    let filtered = tsg_serve::filter_run(&cached, floor);
    let render_ms = per_call_ms(cal, SMALL_CALLS, || {
        std::hint::black_box(tsg_serve::render_patterns(&filtered));
    });
    let frame = hi.frame("trace-parse");
    let parse_calls = SMALL_CALLS * 200;
    let (_, t) = cal.time(|| {
        for _ in 0..parse_calls {
            std::hint::black_box(
                tsg_serve::parse_request(std::hint::black_box(frame.trim_end())).is_ok(),
            );
        }
    });
    s.push("cache.filter_ms", "ms", filter_ms);
    s.push("protocol.render_ms", "ms", render_ms);
    s.push(
        "protocol.parse_us",
        "us",
        t.norm_ms * 1000.0 / parse_calls as f64,
    );
    s.push(
        "serve.hit_residual_ms",
        "ms",
        hit_ms - ping_ms - filter_ms - render_ms,
    );

    // A short stretch of the workload's own mix for the cache counters,
    // read on fresh connections (the daemon closes idle ones).
    drop(client);
    let (hits0, misses0, _) = env.daemon.connect()?.stats()?;
    let mut load = serve::ServeRun::default();
    serve::Load::new(workload, seed).measure(
        &env.daemon,
        serve_gate,
        cal,
        budget.mul_f64(0.25),
        &mut load,
    )?;
    let (hits1, misses1, shed) = env.daemon.connect()?.stats()?;
    for sample in &load.samples {
        check(report, sample.outcome.ok(), "serve mix");
    }
    let hit_ratio = ratio(
        (hits1 - hits0) as usize,
        (hits1 - hits0 + misses1 - misses0) as usize,
    );
    s.push("serve.cache_hit_ratio", "ratio", hit_ratio);
    s.push("serve.shed", "count", shed as f64);
    let (mix_hits, _) = load.latencies(|o| o == Outcome::Hit);
    let mix_hit_ms = median(&mix_hits).unwrap_or(f64::NAN);

    // Derived metrics.
    // Render is what the CLI adds to parsing and mining; every serial CLI
    // call of the run, traced or not, estimates the whole.
    let render = s.get("cli_serial_all")
        - s.get("taxonomy.parse_ms")
        - s.get("graph.parse_ms")
        - s.get("core.mine_ms");
    let cli_serial = s.get("cli_serial_untraced");
    s.push("cli.render_ms", "ms", render);
    let overhead = 100.0 * (s.get("cli_serial_traced") - cli_serial) / cli_serial;
    s.push("bench.trace_overhead_pct", "pct", overhead);

    println!(
        "traced {} reps on {} ({} patterns): cli_serial {:.3} ms untraced, {:.3} ms traced",
        REPS,
        workload.name(),
        core_run.patterns.len(),
        cli_serial,
        s.get("cli_serial_traced")
    );
    println!(
        "reconciliation: core.mine {:.3} ms = relabel {:.3} + gspan.search {:.3} + oi.build {:.3} + enumerate {:.3} + residual {:.3} ({:.1}%)",
        s.get("core.mine_ms"),
        s.get("relabel.ms"),
        s.get("gspan.search_ms"),
        s.get("oi.build_ms"),
        s.get("enumerate.ms"),
        s.get("core.mine_residual_ms"),
        s.get("trace.residual_pct")
    );
    println!(
        "reconciliation: serve hit {hit_ms:.4} ms = ping {ping_ms:.4} + filter {filter_ms:.4} + render {render_ms:.4} + residual {:.4}",
        s.get("serve.hit_residual_ms")
    );
    shape_checks(workload, &s, hit_ratio, mix_hit_ms, report);

    let spans_path = std::path::Path::new(".bench_work")
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    std::fs::write(&spans_path, tr.jsonl()).map_err(|e| e.to_string())?;
    println!(
        "{} spans written to {}",
        tr.spans.len(),
        spans_path.display()
    );

    for (name, unit, _) in &s.0 {
        if name.starts_with("cli_serial_") {
            continue;
        }
        let v = s.get(name);
        println!("{name}: {v} {unit}");
        report.metric(name, v, unit);
    }
    Ok(())
}

/// Fails the run loudly when the data no longer stresses the layer the
/// workload was chosen for.
fn shape_checks(workload: Workload, s: &Samples, hit_ratio: f64, hit_ms: f64, report: &mut Report) {
    let mine = s.get("core.mine_ms");
    let enumerate = s.get("enumerate.ms") / mine;
    let step2 = (s.get("gspan.search_ms") + s.get("oi.build_ms")) / mine;
    let ping = s.get("serve.ping_ms");
    let checks: Vec<(String, bool)> = match workload {
        Workload::GoD1000 => vec![
            (
                format!(
                    "enumerate.ms is {:.1}% of core.mine_ms (< 10%)",
                    100.0 * enumerate
                ),
                enumerate < 0.10,
            ),
            (
                format!(
                    "gspan.search_ms + oi.build_ms is {:.1}% of core.mine_ms (> 70%)",
                    100.0 * step2
                ),
                step2 > 0.70,
            ),
        ],
        Workload::DeepTd10 => vec![(
            format!(
                "enumerate.ms is {:.1}% of core.mine_ms (> 50%)",
                100.0 * enumerate
            ),
            enumerate > 0.50,
        )],
        Workload::ServeMix => vec![
            (
                format!("cache hit ratio is {hit_ratio:.3} (within 0.5–0.95)"),
                (0.5..=0.95).contains(&hit_ratio),
            ),
            (
                format!(
                    "serve hit {hit_ms:.4} ms is {:.1}× serve.ping_ms {ping:.4} ms (≥ 10×)",
                    hit_ms / ping
                ),
                hit_ms >= 10.0 * ping,
            ),
        ],
    };
    for (what, ok) in checks {
        if ok {
            println!("shape check passed: {what}");
        } else {
            report.problem(format!("shape check: {what}"));
        }
    }
}
