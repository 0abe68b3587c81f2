//! Table 1 — cache level properties (Nehalem–Haswell) and which PQ
//! configurations' distance tables each level can hold.
//!
//! ```sh
//! cargo run --release -p pqfs_bench --bin table1
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::header;
use pqfs_bench::{table_cache_level, CacheLevel, TextTable};
use pqfs_core::PqConfig;

fn main() {
    header(
        "table1",
        "Table 1, §3.1",
        "static cost model + PQ table sizes",
    );

    let configs = [
        PqConfig::pq16x4(128),
        PqConfig::pq8x8(128),
        PqConfig::pq4x16(128),
    ];

    let mut t = TextTable::new(vec!["", "L1", "L2", "L3"]);
    let lat = |l: CacheLevel| {
        let r = l.latency_cycles();
        format!("{}-{}", r.start(), r.end())
    };
    t.row(vec![
        "Latency (cycles)".to_string(),
        lat(CacheLevel::L1),
        lat(CacheLevel::L2),
        lat(CacheLevel::L3),
    ]);
    t.row(vec![
        "Size".to_string(),
        "32KiB".to_string(),
        "256KiB".to_string(),
        "2-3MiB x cores".to_string(),
    ]);
    let mut per_level: [Vec<String>; 3] = Default::default();
    for cfg in &configs {
        let level = table_cache_level(cfg.table_bytes());
        let slot = match level {
            CacheLevel::L1 => 0,
            CacheLevel::L2 => 1,
            CacheLevel::L3 => 2,
        };
        per_level[slot].push(format!("PQ {}x{}", cfg.m(), cfg.nbits()));
    }
    t.row(vec![
        "PQ Configurations".to_string(),
        per_level[0].join(" "),
        per_level[1].join(" "),
        per_level[2].join(" "),
    ]);
    println!("{t}");

    println!("distance-table sizes behind the mapping:");
    for cfg in &configs {
        println!(
            "  {cfg}: {} KiB ({} tables x {} entries x 4 B) -> {}",
            cfg.table_bytes() / 1024,
            cfg.m(),
            cfg.ksub(),
            table_cache_level(cfg.table_bytes()).name()
        );
    }
    println!(
        "\npaper: PQ 16x4 and PQ 8x8 tables fit L1; PQ 4x16 tables only fit L3 \
         (5x the latency), so PQ 8x8 is the best trade-off and the paper's focus."
    );
}
