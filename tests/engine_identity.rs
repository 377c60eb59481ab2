//! Engine identity: every mining engine renders the same bytes.
//!
//! The serial miner ([`Taxogram::mine`]), the pipelined engine at two
//! threads, the work-stealing engine and the out-of-core sharded engine at
//! four shards all build occurrence indices through the same code, in
//! different orders and on different threads, from ancestor tables built
//! up front or grown shard by shard. Their outputs, rendered as the serve
//! protocol renders them (emission order, supports, labels, edges), must
//! match byte for byte. Inputs are two small seeded `tsg-datagen`
//! instances — a GO-like D1000 shape and a deep TD10 shape — mined with
//! the default configuration (infrequent-label pruning on) and with the
//! paper's baseline configuration (every enhancement off).

use taxogram::datagen::registry::{build, Dataset, DatasetId};
use taxogram_core::{
    mine_pipelined_with, mine_sharded, mine_stealing, MiningResult, PipelineOptions,
    ShardOptions, Taxogram, TaxogramConfig,
};
use tsg_serve::protocol::render_patterns;

/// A workload: dataset, scale, threshold and pattern-size cap.
struct Shape {
    id: DatasetId,
    scale: f64,
    theta: f64,
    max_edges: usize,
}

const SHAPES: [Shape; 2] = [
    Shape {
        id: DatasetId::D(1000),
        scale: 0.04,
        theta: 0.2,
        max_edges: 5,
    },
    Shape {
        id: DatasetId::TD(10),
        scale: 0.005,
        theta: 0.6,
        max_edges: 3,
    },
];

fn render(result: &MiningResult) -> String {
    format!(
        "{} patterns / {} graphs / floor {}: {}",
        result.patterns.len(),
        result.database_size,
        result.min_support_count,
        render_patterns(&result.patterns)
    )
}

fn check(ds: &Dataset, config: &TaxogramConfig, what: &str) {
    let (db, taxonomy) = (&ds.database, &ds.taxonomy);
    let serial = Taxogram::new(*config).mine(db, taxonomy).unwrap();
    assert!(
        !serial.patterns.is_empty(),
        "{what}: the workload must mine something to compare"
    );
    let expected = render(&serial);
    let pipelined = mine_pipelined_with(
        config,
        db,
        taxonomy,
        PipelineOptions {
            threads: 2,
            channel_capacity: 0,
            clamp_to_cores: false,
        },
    )
    .unwrap();
    let stealing = mine_stealing(config, db, taxonomy, 2).unwrap();
    let sharded = mine_sharded(
        config,
        db,
        taxonomy,
        &ShardOptions {
            shards: 4,
            threads: 2,
            ..ShardOptions::default()
        },
    )
    .unwrap()
    .result;
    for (engine, result) in [
        ("pipelined", &pipelined),
        ("stealing", &stealing),
        ("sharded", &sharded),
    ] {
        assert!(
            render(result) == expected,
            "{what}: {engine} output differs from serial ({} vs {} patterns)",
            result.patterns.len(),
            serial.patterns.len()
        );
        assert_eq!(
            result.stats.oi_updates, serial.stats.oi_updates,
            "{what}: {engine} index updates differ from serial"
        );
    }
}

#[test]
fn every_engine_renders_the_serial_bytes() {
    for shape in &SHAPES {
        let ds = build(shape.id, shape.scale);
        let default = TaxogramConfig::with_threshold(shape.theta).max_edges(shape.max_edges);
        let baseline = TaxogramConfig::baseline(shape.theta).max_edges(shape.max_edges);
        assert!(default.enhancements.prune_infrequent_labels);
        check(&ds, &default, &format!("{} default", shape.id));
        check(&ds, &baseline, &format!("{} baseline", shape.id));
    }
}
