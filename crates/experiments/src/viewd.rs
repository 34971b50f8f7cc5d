//! `arv-viewd` serving cost: cached hits vs uncached renders.
//!
//! The paper prices a view query at ~5 µs against a 24 ms update period
//! (§5.4). The daemon's render cache moves almost every query onto an
//! even cheaper path: a full `/proc/cpuinfo` or `/proc/stat` image is
//! rendered once per published generation and then served as an `Arc`
//! clone until the view moves again. This study drives a three-container
//! daemon through many view generations, reading each image once cold
//! (render) and many times warm (cached), and reports both latency
//! distributions from the daemon's own histograms plus the query
//! accounting identity `hits + misses = queries`.

use std::sync::atomic::{AtomicU64, Ordering};

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig};
use arv_viewd::{HostSpec, ViewServer};

use crate::report::{FigReport, Row, Table};

/// The multi-stanza proc files resource probing actually parses — the
/// expensive renders, one stanza (or line) per effective CPU.
const HEAVY_PATHS: [&str; 2] = ["/proc/cpuinfo", "/proc/stat"];

/// Warm reads per cold read: real probing re-reads these files far more
/// often than the view changes (once per scheduling period at most).
const HITS_PER_MISS: u32 = 16;

fn mk_mem(soft_mib: u64, hard_mib: u64) -> EffectiveMemory {
    EffectiveMemory::new(
        Bytes::from_mib(soft_mib),
        Bytes::from_mib(hard_mib),
        Bytes::from_mib(1280),
        Bytes::from_mib(2560),
        EffectiveMemoryConfig::default(),
    )
}

/// Run this study and produce its report.
pub fn run(scale: f64) -> FigReport {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    let ids = [CgroupId(1), CgroupId(2), CgroupId(3)];
    for (i, id) in ids.iter().enumerate() {
        server.register(
            *id,
            CpuBounds {
                lower: 2 + i as u32,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(512 * (i as u64 + 1), 1024 * (i as u64 + 1)),
        );
    }
    let client = server.client();

    let generations = ((400.0 * scale) as u32).max(8);
    for g in 0..generations {
        for (i, id) in ids.iter().enumerate() {
            // A fresh view each round: publishing moves the generation,
            // so the first read per path re-renders and the rest hit.
            let cpus = 2 + (g + i as u32) % 8;
            let view = Bytes::from_mib(256 * u64::from(cpus));
            server.mirror(*id, cpus, view, view);
            for path in HEAVY_PATHS {
                for _ in 0..=HITS_PER_MISS {
                    client.read(Some(*id), path).expect("renderable path");
                }
            }
        }
    }

    // Wire phase: replay a slice of the workload through the socket
    // protocol so the report can separate protocol overhead (the
    // dedicated wire-latency histogram) from in-process query cost.
    // One socket per run: concurrent runs in one process (the unit
    // tests) must not bind, and so unlink, each other's socket.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let socket = std::env::temp_dir().join(format!(
        "arv-viewd-fig-{}-{}.sock",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let wire = arv_viewd::WireServer::spawn(server.clone(), &socket).expect("bind wire socket");
    let mut wire_client = arv_viewd::WireClient::connect(wire.socket_path()).expect("wire connect");
    let wire_reads = ((128.0 * scale) as u32).max(16);
    for _ in 0..wire_reads {
        for path in HEAVY_PATHS {
            wire_client
                .read(Some(ids[0]), path)
                .expect("wire read")
                .expect("renderable path");
        }
    }
    wire.shutdown();

    // Robustness epilogue: age the staleness clock past the budget and
    // read each image once more — the daemon must answer every query
    // from the conservative fallback and count the degraded serves.
    for _ in 0..=server.policy().budget {
        server.advance_tick();
    }
    for id in ids {
        for path in HEAVY_PATHS {
            client.read(Some(id), path).expect("renderable path");
        }
    }

    let m = server.metrics();
    let speedup = m.miss_latency_ns / m.hit_latency_ns.max(1.0);

    let mut latency = Table::new("serving_latency_ns", &["mean_ns", "p99_ns"]);
    latency.push(Row::full(
        "cached_hit",
        &[m.hit_latency_ns, m.hit_p99_ns as f64],
    ));
    latency.push(Row::full(
        "uncached_render",
        &[m.miss_latency_ns, m.miss_p99_ns as f64],
    ));
    latency.push(Row::full(
        "wire_request",
        &[m.wire_latency_ns, m.wire_p99_ns as f64],
    ));
    latency.push(Row::full("render_over_hit", &[speedup, f64::NAN]));

    let mut accounting = Table::new("query_accounting", &["count"]);
    accounting.push(Row::full("queries", &[m.queries as f64]));
    accounting.push(Row::full("cache_hits", &[m.cache_hits as f64]));
    accounting.push(Row::full("cache_misses", &[m.cache_misses as f64]));
    accounting.push(Row::full(
        "hits_plus_misses",
        &[(m.cache_hits + m.cache_misses) as f64],
    ));
    accounting.push(Row::full("failures", &[m.failures as f64]));
    accounting.push(Row::full("wire_requests", &[m.wire_requests as f64]));

    let mut robustness = Table::new("robustness_counters", &["count"]);
    robustness.push(Row::full("stale_serves", &[m.stale_serves as f64]));
    robustness.push(Row::full("degraded_serves", &[m.degraded_serves as f64]));
    robustness.push(Row::full("wire_rejected", &[m.wire_rejected as f64]));
    robustness.push(Row::full(
        "connections_accepted",
        &[m.connections_accepted as f64],
    ));
    robustness.push(Row::full(
        "connections_dropped",
        &[m.connections_dropped as f64],
    ));
    robustness.push(Row::full(
        "staleness_age_mean_ticks",
        &[m.staleness_age_mean],
    ));
    robustness.push(Row::full(
        "staleness_age_p99_ticks",
        &[m.staleness_age_p99 as f64],
    ));

    let mut rep = FigReport::new(
        "viewd",
        "arv-viewd serving cost: cached hits vs uncached renders (§5.4)",
    );
    rep.tables.push(latency);
    rep.tables.push(accounting);
    rep.tables.push(robustness);
    rep.note(format!(
        "{generations} generations x 3 containers; each published view rendered once, then served {HITS_PER_MISS}x from cache"
    ));
    rep.note(format!(
        "cached hit is {speedup:.1}x cheaper than an uncached render; every hit still reflects the current generation"
    ));
    rep.note(format!(
        "epilogue ages the clock past the staleness budget: {} degraded serves answered from the conservative fallback",
        m.degraded_serves
    ));
    rep.note(format!(
        "{} wire requests at {:.0} ns mean (p99 {} ns): the protocol layer priced separately from query cost",
        m.wire_requests, m.wire_latency_ns, m.wire_p99_ns
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_hits_are_at_least_10x_cheaper_than_renders() {
        let rep = run(0.2);
        let t = &rep.tables[0];
        let hit = t.get("cached_hit", "mean_ns").unwrap();
        let miss = t.get("uncached_render", "mean_ns").unwrap();
        assert!(
            miss >= 10.0 * hit,
            "render {miss:.0} ns is under 10x hit {hit:.0} ns"
        );
    }

    #[test]
    fn hits_plus_misses_equals_queries_served() {
        let rep = run(0.1);
        let t = &rep.tables[1];
        let queries = t.get("queries", "count").unwrap();
        let hits = t.get("cache_hits", "count").unwrap();
        let misses = t.get("cache_misses", "count").unwrap();
        assert_eq!(hits + misses, queries);
        assert_eq!(t.get("failures", "count").unwrap(), 0.0);
        // One miss per (generation, container, path): every published
        // view is rendered exactly once per file.
        assert_eq!(misses as u64 % (3 * HEAVY_PATHS.len() as u64), 0);
    }

    #[test]
    fn degraded_epilogue_is_counted_and_served() {
        let rep = run(0.1);
        let t = &rep.tables[2];
        // One degraded serve per (container, path) in the epilogue.
        assert_eq!(
            t.get("degraded_serves", "count").unwrap(),
            (3 * HEAVY_PATHS.len()) as f64
        );
        // The wire phase is clean traffic: nothing rejected.
        assert_eq!(t.get("wire_rejected", "count").unwrap(), 0.0);
        assert_eq!(t.get("connections_accepted", "count").unwrap(), 1.0);
    }

    #[test]
    fn wire_latency_lands_in_its_own_histogram() {
        let rep = run(0.1);
        let latency = &rep.tables[0];
        assert!(latency.get("wire_request", "mean_ns").unwrap() > 0.0);
        assert!(latency.get("wire_request", "p99_ns").unwrap() > 0.0);
        let accounting = &rep.tables[1];
        // 16 wire rounds x 2 paths at the minimum clamp.
        assert_eq!(accounting.get("wire_requests", "count").unwrap(), 32.0);
    }
}
