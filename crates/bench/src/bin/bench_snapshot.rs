//! Machine-readable performance snapshot: a `host` section identifying
//! the machine (logical CPUs, CPU model, 1-minute load average at start),
//! median nanoseconds for the hot bitset kernels (shared with the
//! `kernel_gate` CI stage via `tsg_bench::kernels`), end-to-end
//! D1000/θ=0.2 mine times for the serial, barrier-parallel,
//! streaming-pipelined, and work-stealing engines, a `thread_scaling`
//! section sweeping the scaling engines over 1/2/4/8 workers (with the
//! host's core count recorded next to the rows — on a single-core host
//! the sweep measures scheduling overhead, not speedup), a
//! `taxonomy_scale` section measuring the interval-labeled reachability
//! layer at 10⁵ and 10⁶ concepts, a `serve_load` section driving an
//! in-process `tsg-serve` daemon with concurrent synthetic clients
//! (latency percentiles, shed rate, drain time), and a
//! `governed_overhead` section timing the serial miner ungoverned vs
//! governed with an infinite budget (the pure cost of the governance
//! poll points). Every engine's rendered output must equal the serial
//! miner's byte for byte before anything is timed.
//!
//! Emits a single JSON object on stdout; `scripts/bench_snapshot.sh`
//! redirects it into a dated `BENCH_<date>.json`. Timing is hand-rolled
//! (sorted-sample median over fixed batches) so the binary has no
//! harness dependency.
//!
//! ```text
//! cargo run --release -p tsg-bench --bin bench_snapshot -- [--threads N] [--scale quick|medium|full]
//! ```

use std::time::Instant;
use tsg_bench::Profile;
use tsg_datagen::registry::{build, DatasetId};
use tsg_serve::protocol::render_patterns;

/// CPU model, logical CPU count, and current 1-minute load, so a
/// snapshot records which machine (and how busy a machine) produced it.
/// Every field degrades gracefully off Linux or in restricted sandboxes.
fn host_info() -> (usize, String, f64) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
        .replace(['"', '\\'], "");
    let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0);
    (nproc, cpu_model, loadavg_1m)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let threads: usize = get("--threads", "4").parse().unwrap_or_else(|_| {
        eprintln!("--threads must be an integer");
        std::process::exit(2);
    });
    let profile = Profile::by_name(&get("--scale", "quick")).unwrap_or_else(|| {
        eprintln!("unknown scale; use quick | medium | full");
        std::process::exit(2);
    });

    // Record load *before* the benchmarks heat the machine up.
    let (nproc, cpu_model, loadavg_1m) = host_info();

    // --- Kernel medians (shared workload set with `kernel_gate`) --------
    let kernels = tsg_bench::kernels::kernel_medians();

    // --- End-to-end engines on D1000, θ = 0.2 ---------------------------
    // Reps are interleaved (serial, barrier, pipelined, stealing per
    // round) so machine-load drift hits all engines equally, and the
    // *minimum* over reps is reported: external load only ever adds time,
    // so the min is the least-noisy estimate of an engine's true cost.
    let ds = build(DatasetId::D(1000), profile.scale);
    let cfg = taxogram_core::TaxogramConfig::with_threshold(0.2).max_edges(5);
    let reps = 15usize;

    // Engine agreement is byte identity of the rendered output (emission
    // order, supports, labels, edges) against the serial miner's.
    let reference = render_patterns(
        &taxogram_core::Taxogram::new(cfg)
            .mine(&ds.database, &ds.taxonomy)
            .unwrap()
            .patterns,
    );
    let barrier = taxogram_core::mine_parallel(&cfg, &ds.database, &ds.taxonomy, threads).unwrap();
    let piped = taxogram_core::mine_pipelined(&cfg, &ds.database, &ds.taxonomy, threads).unwrap();
    let stolen =
        taxogram_core::mine_stealing(&cfg, &ds.database, &ds.taxonomy, threads).unwrap();
    for (engine, r) in [("barrier", &barrier), ("pipelined", &piped), ("stealing", &stolen)] {
        assert!(
            render_patterns(&r.patterns) == reference,
            "{engine} output must be byte-identical to serial before a snapshot is worth recording"
        );
    }

    let time_once = |f: &dyn Fn() -> usize| -> f64 {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_nanos() as f64 / 1e6
    };
    let serial_run = || {
        taxogram_core::Taxogram::new(cfg)
            .mine(&ds.database, &ds.taxonomy)
            .unwrap()
            .patterns
            .len()
    };
    let barrier_run = || {
        taxogram_core::mine_parallel(&cfg, &ds.database, &ds.taxonomy, threads)
            .unwrap()
            .patterns
            .len()
    };
    let piped_run = || {
        taxogram_core::mine_pipelined(&cfg, &ds.database, &ds.taxonomy, threads)
            .unwrap()
            .patterns
            .len()
    };
    let steal_run = || {
        taxogram_core::mine_stealing(&cfg, &ds.database, &ds.taxonomy, threads)
            .unwrap()
            .patterns
            .len()
    };
    let mut t_serial = Vec::with_capacity(reps);
    let mut t_barrier = Vec::with_capacity(reps);
    let mut t_piped = Vec::with_capacity(reps);
    let mut t_steal = Vec::with_capacity(reps);
    for _ in 0..reps {
        t_serial.push(time_once(&serial_run));
        t_barrier.push(time_once(&barrier_run));
        t_piped.push(time_once(&piped_run));
        t_steal.push(time_once(&steal_run));
    }
    let best = |v: &[f64]| -> f64 { v.iter().copied().fold(f64::INFINITY, f64::min) };
    let serial_ms = best(&t_serial);
    let barrier_ms = best(&t_barrier);
    let piped_ms = best(&t_piped);
    let steal_ms = best(&t_steal);

    // --- Thread scaling: pipelined vs stealing over 1/2/4/8 workers -----
    // clamp_to_cores off so every requested worker count actually runs;
    // on a host with fewer cores the extra workers time-slice, which
    // still exercises (and times) the full scheduling machinery.
    let scaling_reps = 5usize;
    let thread_scaling: Vec<(usize, f64, f64, usize)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|t| {
            let mut piped_times = Vec::with_capacity(scaling_reps);
            let mut steal_times = Vec::with_capacity(scaling_reps);
            let mut steals = 0usize;
            for _ in 0..scaling_reps {
                piped_times.push(time_once(&|| {
                    taxogram_core::mine_pipelined(&cfg, &ds.database, &ds.taxonomy, t)
                        .unwrap()
                        .patterns
                        .len()
                }));
                let start = Instant::now();
                let r = taxogram_core::mine_stealing_with(
                    &cfg,
                    &ds.database,
                    &ds.taxonomy,
                    taxogram_core::StealOptions {
                        threads: t,
                        deque_capacity: 0,
                        clamp_to_cores: false,
                    },
                )
                .unwrap();
                steal_times.push(start.elapsed().as_nanos() as f64 / 1e6);
                steals = steals.max(r.stats.steals);
            }
            (t, best(&piped_times), best(&steal_times), steals)
        })
        .collect();

    // --- Taxonomy scaling: interval-labeled reachability ----------------
    // One 10⁵ row matches the CI smoke stage; the 10⁶ row is the
    // acceptance scale for the closure-storage and is_ancestor bounds.
    let taxonomy_scale = [
        tsg_bench::taxscale::measure(100_000, 50, 42),
        tsg_bench::taxscale::measure(1_000_000, 50, 42),
    ];

    // --- SON scaling: out-of-core sharded mining ------------------------
    // One uncapped single-shard run measures the database's on-disk
    // footprint; the capped run then sets the resident-set ceiling to a
    // tenth of it, so the miner provably handles a database ~10× larger
    // than what any worker may hold resident — and must still produce
    // the byte-identical serial pattern count. The shard sweep rows time
    // shard-count scaling at the snapshot thread count.
    let spill_dir = std::env::temp_dir();
    let son_opts = |shards: usize, cap: Option<u64>| taxogram_core::ShardOptions {
        shards,
        threads,
        spill_dir: Some(spill_dir.clone()),
        resident_cap_bytes: cap,
        ..Default::default()
    };
    let uncapped =
        taxogram_core::mine_sharded(&cfg, &ds.database, &ds.taxonomy, &son_opts(1, None)).unwrap();
    let spilled_bytes = uncapped.shard_stats.spilled_bytes;
    let resident_cap = (spilled_bytes / 10).max(1);
    let capped = taxogram_core::mine_sharded(
        &cfg,
        &ds.database,
        &ds.taxonomy,
        &son_opts(1, Some(resident_cap)),
    )
    .unwrap();
    for (engine, r) in [("uncapped sharded", &uncapped), ("capped sharded", &capped)] {
        assert!(
            render_patterns(&r.result.patterns) == reference,
            "{engine} output must be byte-identical to serial before a snapshot is worth recording"
        );
    }
    assert!(
        capped.shard_stats.shards >= 10,
        "a tenth-of-footprint cap must split the database into >= 10 shards"
    );
    let son_reps = 3usize;
    let son_rows: Vec<(usize, f64, u64, usize)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|shards| {
            let mut times = Vec::with_capacity(son_reps);
            let mut largest = 0u64;
            let mut actual = 0usize;
            for _ in 0..son_reps {
                let start = Instant::now();
                let r = taxogram_core::mine_sharded(
                    &cfg,
                    &ds.database,
                    &ds.taxonomy,
                    &son_opts(shards, None),
                )
                .unwrap();
                times.push(start.elapsed().as_nanos() as f64 / 1e6);
                assert!(
                    render_patterns(&r.result.patterns) == reference,
                    "{shards}-shard output must be byte-identical to serial"
                );
                largest = r.shard_stats.largest_shard_bytes;
                actual = r.shard_stats.shards;
            }
            (actual, best(&times), largest, shards)
        })
        .collect();

    // --- Serve load: the resident daemon under synthetic concurrency ----
    // An in-process `tsg-serve` daemon over the same D1000 dataset, hit
    // by concurrent no-cache clients so every request actually mines.
    // Records client-observed latency percentiles, the shed rate under
    // the default admission limits, and the drain time — the service
    // numbers `scripts/ci.sh`'s serve stage smoke-checks.
    let serve_handle = tsg_serve::Server::bind(
        "127.0.0.1:0",
        ds.database.clone(),
        ds.taxonomy.clone(),
        tsg_serve::ServeOptions {
            workers: threads.max(1),
            ..Default::default()
        },
    )
    .expect("bind serve daemon for the load stanza");
    let load = tsg_serve::run_load(
        serve_handle.addr(),
        &tsg_serve::LoadOptions {
            clients: 4,
            requests_per_client: 8,
            theta: 0.2,
            no_cache: true,
            ..Default::default()
        },
    );
    let drain = serve_handle.shutdown();
    assert_eq!(
        load.lost, 0,
        "the load driver must never lose a response over loopback"
    );

    // --- Governance overhead: ungoverned vs infinite budget -------------
    // Same interleave-and-take-min discipline as the engine timings. The
    // governed run enables every poll point (admission gate per class,
    // pattern accounting) with ceilings that never bind, so the delta is
    // the pure cost of governance plumbing on the serial engine.
    let govern_unlimited = taxogram_core::GovernOptions::default();
    let governed_run = || {
        taxogram_core::Taxogram::new(cfg)
            .mine_governed(&ds.database, &ds.taxonomy, &govern_unlimited)
            .unwrap()
            .result
            .patterns
            .len()
    };
    let gov_reps = 25usize;
    let mut t_ungoverned = Vec::with_capacity(gov_reps);
    let mut t_governed = Vec::with_capacity(gov_reps);
    for _ in 0..gov_reps {
        t_ungoverned.push(time_once(&serial_run));
        t_governed.push(time_once(&governed_run));
    }
    let ungoverned_ms = best(&t_ungoverned);
    let governed_ms = best(&t_governed);
    let overhead_pct = (governed_ms - ungoverned_ms) / ungoverned_ms * 100.0;

    // --- JSON -----------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host\": {{\n    \"nproc\": {nproc},\n    \"cpu_model\": \"{cpu_model}\",\n    \"loadavg_1m\": {loadavg_1m:.2}\n  }},\n"
    ));
    json.push_str("  \"kernels_ns\": {\n");
    for (i, (name, ns)) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"d1000_theta02\": {{\n    \"scale\": {},\n    \"threads\": {},\n    \"patterns\": {},\n    \"serial_ms\": {:.3},\n    \"barrier_ms\": {:.3},\n    \"pipelined_ms\": {:.3},\n    \"stealing_ms\": {:.3},\n    \"barrier_peak_embedding_bytes\": {},\n    \"pipelined_peak_embedding_bytes\": {},\n    \"stealing_peak_embedding_bytes\": {}\n  }},\n",
        profile.scale,
        threads,
        piped.patterns.len(),
        serial_ms,
        barrier_ms,
        piped_ms,
        steal_ms,
        barrier.stats.peak_embedding_bytes,
        piped.stats.peak_embedding_bytes,
        stolen.stats.peak_embedding_bytes,
    ));
    json.push_str("  \"thread_scaling\": {\n");
    json.push_str(&format!("    \"host_nproc\": {nproc},\n"));
    json.push_str(
        "    \"note\": \"worker counts above host_nproc time-slice on shared cores; on a single-core host these rows measure scheduling overhead, not parallel speedup\",\n",
    );
    json.push_str("    \"rows\": [\n");
    for (i, (t, piped_ms, steal_ms, steals)) in thread_scaling.iter().enumerate() {
        let comma = if i + 1 < thread_scaling.len() { "," } else { "" };
        json.push_str(&format!(
            "      {{ \"threads\": {t}, \"pipelined_ms\": {piped_ms:.3}, \"stealing_ms\": {steal_ms:.3}, \"steals\": {steals} }}{comma}\n"
        ));
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"taxonomy_scale\": [\n");
    for (i, row) in taxonomy_scale.iter().enumerate() {
        let comma = if i + 1 < taxonomy_scale.len() { "," } else { "" };
        json.push_str(&format!("{}{comma}\n", row.to_json(4)));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"son_scaling\": {{\n    \"threads\": {},\n    \"spilled_bytes\": {},\n    \"resident_cap_bytes\": {},\n    \"spill_over_cap_ratio\": {:.1},\n    \"capped_shards\": {},\n    \"capped_largest_shard_bytes\": {},\n    \"patterns\": {},\n    \"rows\": [\n",
        threads,
        spilled_bytes,
        resident_cap,
        spilled_bytes as f64 / resident_cap as f64,
        capped.shard_stats.shards,
        capped.shard_stats.largest_shard_bytes,
        capped.result.patterns.len(),
    ));
    for (i, (actual, ms, largest, requested)) in son_rows.iter().enumerate() {
        let comma = if i + 1 < son_rows.len() { "," } else { "" };
        json.push_str(&format!(
            "      {{ \"shards_requested\": {requested}, \"shards\": {actual}, \"mine_ms\": {ms:.3}, \"largest_shard_bytes\": {largest} }}{comma}\n"
        ));
    }
    json.push_str("    ]\n  },\n");
    json.push_str(&format!(
        "  \"serve_load\": {{\n    \"workers\": {},\n    \"clients\": 4,\n    \"requests\": {},\n    \"ok\": {},\n    \"degraded\": {},\n    \"shed\": {},\n    \"errors\": {},\n    \"shed_rate\": {:.3},\n    \"p50_ms\": {:.3},\n    \"p95_ms\": {:.3},\n    \"p99_ms\": {:.3},\n    \"max_ms\": {:.3},\n    \"wall_ms\": {:.3},\n    \"drain_clean\": {},\n    \"drain_ms\": {:.3}\n  }},\n",
        threads.max(1),
        load.sent,
        load.ok,
        load.degraded,
        load.shed,
        load.errors,
        load.shed_rate,
        load.p50_ms,
        load.p95_ms,
        load.p99_ms,
        load.max_ms,
        load.wall_ms,
        drain.clean,
        drain.drain_ms,
    ));
    json.push_str(&format!(
        "  \"governed_overhead\": {{\n    \"serial_ungoverned_ms\": {ungoverned_ms:.3},\n    \"serial_governed_unlimited_ms\": {governed_ms:.3},\n    \"overhead_pct\": {overhead_pct:.2}\n  }}\n}}"
    ));
    println!("{json}");
}
