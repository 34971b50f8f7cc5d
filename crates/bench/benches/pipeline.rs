//! Host-pipeline scaling bench with a machine-checkable report.
//!
//! Plain-harness companion to `persist.rs`: it times the two
//! `ns_monitor` hot spots whose cost must not grow faster than the
//! container count — one update-timer firing (`tick_window`, reported
//! per container) and one memory-only `docker update` delivered through
//! `ingest` — at 1k and 8k containers, writes them to
//! `BENCH_pipeline.json`, and exits nonzero if either 8k/1k ratio is
//! above its ceiling, so `ci.sh` can gate on it with a single run.
//!
//! The gates are ratios of the same work at two sizes on the same
//! machine, so they do not depend on its speed. Per-container tick cost
//! is flat in N and a memory-only update touches one namespace, so both
//! ratios sit near 1 (map lookups add a log factor); a firing that is
//! quadratic in N, or an update that refreshes all N namespaces, lands
//! near 8.

use arv_cfs::{CfsSim, GroupDemand, UsageLedger};
use arv_cgroups::{
    Bytes, CgroupId, CgroupManager, CgroupSpec, CpuController, EventPipe, MemController, SeqEvent,
};
use arv_mem::{MemSim, MemSimConfig};
use arv_resview::NsMonitor;
use arv_sim_core::SimDuration;
use std::time::Instant;

/// The two container counts compared.
const SMALL: u32 = 1_000;
const LARGE: u32 = 8_000;
/// Ceiling on (cost at `LARGE`) / (cost at `SMALL`), per container for
/// the tick and per call for the update.
const MAX_TICK_RATIO: f64 = 2.0;
const MAX_INGEST_RATIO: f64 = 2.0;
/// Timed repetitions; each figure is the best of `TRIALS`. A tick trial
/// visits `TICK_VISITS` namespaces at either size (160 firings at 1k,
/// 20 at 8k), so both sizes are timed over the same stretch of work.
const TICK_VISITS: u32 = 160_000;
const UPDATES: u32 = 2_000;
/// Updates rotate over this many containers spread across the id
/// range, so the figure is the refresh work, not cache misses on
/// namespaces a real update burst would not touch.
const HOT_SET: u32 = 16;
const TRIALS: u32 = 7;

const P: SimDuration = SimDuration::from_millis(24);

/// A host of `n` containers on 128 CPUs with every namespace built, and
/// one scheduling period recorded in the ledger (an eighth of the
/// containers ran).
struct Rig {
    cgm: CgroupManager,
    mem: MemSim,
    ledger: UsageLedger,
    mon: NsMonitor,
    pipe: EventPipe,
    ids: Vec<CgroupId>,
}

fn mem_limits(hard_mib: u64) -> MemController {
    MemController::unlimited()
        .with_hard_limit(Bytes::from_mib(hard_mib))
        .with_soft_limit(Bytes::from_mib(hard_mib / 2))
}

impl Rig {
    fn new(n: u32) -> Rig {
        let cfs = CfsSim::with_cpus(128);
        let mut mem = MemSim::new(MemSimConfig::with_total(Bytes::from_gib(4096)));
        let mut cgm = CgroupManager::new();
        let mut mon = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());
        let ids: Vec<CgroupId> = (0..n)
            .map(|i| {
                let spec = CgroupSpec::new(
                    CpuController::unlimited(128).with_quota_cpus(f64::from(2 + i % 15)),
                    mem_limits(512),
                );
                let id = cgm.create(spec);
                mem.register(id, spec.mem);
                let _ = mem.charge(id, Bytes::from_mib(200));
                id
            })
            .collect();
        mon.sync(&mut cgm);
        let demands: Vec<GroupDemand> = ids
            .iter()
            .step_by(8)
            .map(|id| GroupDemand::cpu_bound(*id, 1, 1024, 16.0))
            .collect();
        let mut ledger = UsageLedger::new();
        ledger.record(&cfs.allocate(P, &demands));
        Rig {
            cgm,
            mem,
            ledger,
            mon,
            // `sync` consumed the creations, so the pipe's first
            // sequence number is the one the monitor expects.
            pipe: EventPipe::new(UPDATES as usize),
            ids,
        }
    }

    /// Nanoseconds per container for one firing, over `TICK_VISITS`
    /// namespace visits.
    fn tick_ns_per_container(&mut self) -> f64 {
        let ticks = TICK_VISITS / self.ids.len() as u32;
        let start = Instant::now();
        for _ in 0..ticks {
            self.mon.observe_tick();
            self.mon.tick_window(&self.ledger, &self.mem);
        }
        start.elapsed().as_nanos() as f64 / f64::from(ticks) / self.ids.len() as f64
    }

    /// Nanoseconds for one `ingest` of a single memory-only update,
    /// averaged over `UPDATES` of them.
    fn ingest_ns(&mut self, trial: u32) -> f64 {
        let batches: Vec<Vec<SeqEvent>> = (0..UPDATES)
            .map(|k| {
                let id = self.ids[(k % HOT_SET) as usize * self.ids.len() / HOT_SET as usize];
                let cpu = self.cgm.get(id).expect("live").cpu;
                let hard = 512 + u64::from((k + trial) % 4) * 128;
                self.cgm.update(id, CgroupSpec::new(cpu, mem_limits(hard)));
                for ev in self.cgm.drain_events() {
                    self.pipe.push(ev);
                }
                self.pipe.drain()
            })
            .collect();
        let start = Instant::now();
        for batch in &batches {
            let report = self.mon.ingest(batch, &self.cgm);
            assert!(report.applied == 1 && !report.gap);
        }
        start.elapsed().as_nanos() as f64 / f64::from(UPDATES)
    }
}

/// Best-of-`TRIALS` figures `(tick ns per container, ingest ns)` for
/// each rig. Trials alternate between the rigs so a noisy stretch of
/// the machine hits both sizes alike.
fn measure(rigs: &mut [Rig; 2]) -> [(f64, f64); 2] {
    let mut best = [(f64::INFINITY, f64::INFINITY); 2];
    for trial in 0..TRIALS {
        for (rig, b) in rigs.iter_mut().zip(&mut best) {
            b.0 = b.0.min(rig.tick_ns_per_container());
            b.1 = b.1.min(rig.ingest_ns(trial));
        }
    }
    best
}

fn main() {
    let [(tick_small, ingest_small), (tick_large, ingest_large)] =
        measure(&mut [Rig::new(SMALL), Rig::new(LARGE)]);
    let tick_ratio = tick_large / tick_small.max(f64::EPSILON);
    let ingest_ratio = ingest_large / ingest_small.max(f64::EPSILON);

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"containers\": [{SMALL}, {LARGE}],\n  \
         \"tick_ns_per_container_1k\": {tick_small:.1},\n  \
         \"tick_ns_per_container_8k\": {tick_large:.1},\n  \
         \"tick_ratio_8k_1k\": {tick_ratio:.3},\n  \
         \"mem_update_ingest_ns_1k\": {ingest_small:.0},\n  \
         \"mem_update_ingest_ns_8k\": {ingest_large:.0},\n  \
         \"ingest_ratio_8k_1k\": {ingest_ratio:.3},\n  \"thresholds\": {{\n    \
         \"max_tick_ratio_8k_1k\": {MAX_TICK_RATIO},\n    \
         \"max_ingest_ratio_8k_1k\": {MAX_INGEST_RATIO}\n  }}\n}}\n",
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // report at the workspace root where ci.sh checks for it.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    std::fs::write(&out, &json).expect("write BENCH_pipeline.json");
    print!("{json}");

    let mut failed = false;
    if tick_ratio > MAX_TICK_RATIO {
        eprintln!(
            "FAIL: tick cost per container grew {tick_ratio:.2}x from {SMALL} to {LARGE} \
             containers (> {MAX_TICK_RATIO}x): {tick_small:.1} -> {tick_large:.1} ns"
        );
        failed = true;
    }
    if ingest_ratio > MAX_INGEST_RATIO {
        eprintln!(
            "FAIL: memory-only update ingest grew {ingest_ratio:.2}x from {SMALL} to {LARGE} \
             containers (> {MAX_INGEST_RATIO}x): {ingest_small:.0} -> {ingest_large:.0} ns"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("pipeline bench: all thresholds met");
}
