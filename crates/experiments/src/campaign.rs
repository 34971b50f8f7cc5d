//! The harness behind the seeded fault campaigns (`chaos`, `recovery`,
//! `fleet`, `fleetobs`, `storm`), plus the fixtures their scenarios
//! share.
//!
//! A scenario is a plain `run(seed, replay)` function returning an
//! [`Outcome`], and a check that asserts its invariants. [`Campaign`]
//! runs every scenario twice per seed and panics, naming the scenario
//! and the seed, unless both runs produce the same outcome, so a failing
//! campaign replays exactly. It then checks both runs and reports one
//! table per scenario (a column per seed run, a row per reported
//! outcome field), a determinism table, and a note naming the seeds.

use std::fmt::Debug;

use arv_cfs::GroupDemand;
use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{decode_frame, FleetController, Frame, Periphery, PeripheryStats};
use arv_persist::{Snapshot, ViewState};
use arv_resview::{
    CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, SysNamespace,
};
use arv_sim_core::{FaultPlan, SimRng};
use arv_viewd::ViewServer;

use crate::report::{FigReport, Row, Table};

/// This run's seeds: a nonzero `offset` (the CLI's `--seed-offset`)
/// rotates every canonical seed through a splitmix-style odd multiplier,
/// so `--seed-offset 1` is a genuinely different campaign that still
/// replays bit-identically. Offset 0 is the canonical campaign.
pub(crate) fn seeds(canonical: [u64; 2], offset: u64) -> [u64; 2] {
    canonical.map(|s| s ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The report column of one seed.
pub(crate) fn seed_label(seed: u64) -> String {
    format!("seed_{seed:#x}")
}

/// A value an outcome reports as one table cell.
pub(crate) trait Cell {
    /// The cell value.
    fn cell(&self) -> f64;
}

impl Cell for u64 {
    fn cell(&self) -> f64 {
        *self as f64
    }
}

impl Cell for bool {
    fn cell(&self) -> f64 {
        if *self {
            1.0
        } else {
            0.0
        }
    }
}

/// A wall-clock measurement inside an outcome. It is reported and
/// checked like any field but left out of replay identity: two runs of
/// one seed never take the same time, so any two values compare equal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallClock(pub(crate) f64);

impl PartialEq for WallClock {
    fn eq(&self, _: &WallClock) -> bool {
        true
    }
}

impl Cell for WallClock {
    fn cell(&self) -> f64 {
        self.0
    }
}

/// One scenario's result for one seed. `PartialEq` is replay identity:
/// both runs of a seed must compare equal.
pub(crate) trait Outcome: PartialEq + Debug {
    /// The scenario table's rows for this seed, in order.
    fn rows(&self) -> Vec<(&'static str, f64)>;
}

/// Implement [`Outcome`] for `$outcome`, reporting the named fields as
/// rows labelled with the field names, in the order given.
macro_rules! report_fields {
    ($outcome:ty: $($field:ident),+ $(,)?) => {
        impl $crate::campaign::Outcome for $outcome {
            fn rows(&self) -> Vec<(&'static str, f64)> {
                vec![$((stringify!($field), $crate::campaign::Cell::cell(&self.$field))),+]
            }
        }
    };
}
pub(crate) use report_fields;

/// Panic unless two runs of `what` produced the same outcome.
pub(crate) fn assert_replayed<T: PartialEq + Debug>(what: &str, first: &T, replay: &T) {
    assert!(
        first == replay,
        "{what}: replay diverged\nfirst:  {first:?}\nreplay: {replay:?}"
    );
}

/// A one-column table with one row per `(label, value)`.
pub(crate) fn value_table<'a>(
    name: &str,
    column: &str,
    rows: impl IntoIterator<Item = (&'a str, f64)>,
) -> Table {
    let mut table = Table::new(name, &[column]);
    for (label, value) in rows {
        table.push(Row::full(label, &[value]));
    }
    table
}

/// A seeded campaign's report under construction.
pub(crate) struct Campaign {
    report: FigReport,
    seeds: [u64; 2],
    offset: u64,
    /// Name the offset in the seeds note even when it is 0.
    always_name_offset: bool,
    /// Appended to the seeds note's replay claim.
    replay_detail: &'static str,
    /// Scenarios that ran, in order: the determinism table's rows.
    replayed: Vec<&'static str>,
}

impl Campaign {
    /// A campaign for report `id` running `canonical` rotated by
    /// `offset`. Its seeds note names the offset only when it is
    /// nonzero, unless [`Campaign::always_naming_offset`] is set.
    pub(crate) fn new(id: &str, title: &str, canonical: [u64; 2], offset: u64) -> Campaign {
        Campaign {
            report: FigReport::new(id, title),
            seeds: seeds(canonical, offset),
            offset,
            always_name_offset: false,
            replay_detail: "",
            replayed: Vec::new(),
        }
    }

    /// Name the offset in the seeds note at every offset, 0 included, as
    /// the fleet, fleetobs and storm reports do.
    pub(crate) fn always_naming_offset(mut self) -> Campaign {
        self.always_name_offset = true;
        self
    }

    /// Extend the seeds note's replay claim with `detail`.
    pub(crate) fn replay_detail(mut self, detail: &'static str) -> Campaign {
        self.replay_detail = detail;
        self
    }

    /// The seeds this run uses.
    pub(crate) fn run_seeds(&self) -> [u64; 2] {
        self.seeds
    }

    /// Run scenario `name` twice per seed (`replay` 0, then 1), panic
    /// naming the scenario and the seed if the runs differ, apply
    /// `check` to both runs, and report the outcomes as table `name`.
    /// Returns the first run's outcome per seed.
    pub(crate) fn scenario<O: Outcome>(
        &mut self,
        name: &'static str,
        run: impl Fn(u64, u32) -> O,
        check: impl Fn(&O, u64),
    ) -> Vec<O> {
        let outcomes: Vec<O> = self
            .seeds
            .iter()
            .map(|&seed| {
                let first = run(seed, 0);
                let replay = run(seed, 1);
                assert_replayed(&format!("{name} seed {seed:#x}"), &first, &replay);
                check(&first, seed);
                check(&replay, seed);
                first
            })
            .collect();

        let columns: Vec<String> = self.seeds.iter().map(|s| seed_label(*s)).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut table = Table::new(name, &columns);
        let rows: Vec<_> = outcomes.iter().map(Outcome::rows).collect();
        for (i, (label, _)) in rows[0].iter().enumerate() {
            let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            table.push(Row::full(*label, &values));
        }
        self.report.tables.push(table);
        self.replayed.push(name);
        outcomes
    }

    /// Append a table that is not a per-seed scenario table.
    pub(crate) fn table(&mut self, table: Table) {
        self.report.tables.push(table);
    }

    /// Append a note after the seeds note.
    pub(crate) fn note(&mut self, note: impl Into<String>) {
        self.report.note(note);
    }

    /// The finished report: the seeds note first, the determinism
    /// table last. Reaching here means every replay matched.
    pub(crate) fn finish(mut self) -> FigReport {
        let offset = if self.offset != 0 || self.always_name_offset {
            format!(" (offset {})", self.offset)
        } else {
            String::new()
        };
        self.report.notes.insert(
            0,
            format!(
                "seeds {:#x} and {:#x}{offset}; every scenario run twice per seed and asserted \
                 bit-identical{}",
                self.seeds[0], self.seeds[1], self.replay_detail
            ),
        );
        let replayed = self.replayed.iter().map(|name| (*name, 1.0));
        self.report
            .tables
            .push(value_table("determinism", "replays_identical", replayed));
        self.report
    }
}

// --- fixtures the scenarios share ---

/// The paper's §2.2 tenant: 20 threads under a 10-core quota, equal
/// shares.
pub(crate) fn paper_spec(name: String) -> ContainerSpec {
    ContainerSpec::new(name, 20).cpus(10.0).cpu_shares(1024)
}

/// Step `host` once with only container `id` busy (20 threads): its view
/// climbs toward its quota while every co-tenant idles.
pub(crate) fn step_solo(host: &mut SimHost, id: CgroupId) {
    let demands = vec![host.demand(id, 20)];
    host.step(&demands);
}

/// Container `id`'s Algorithm 1 lower bound: the conservative answer a
/// degraded or cold view falls back to.
pub(crate) fn cpu_floor(host: &SimHost, id: CgroupId) -> u64 {
    let ns = host.monitor().namespace(id).expect("namespace exists");
    u64::from(ns.cpu_bounds().lower)
}

/// Whether `ns`'s effective CPUs left Algorithm 1's bounds. Faults may
/// freeze views, but never push them outside that envelope.
pub(crate) fn outside_bounds(ns: &SysNamespace) -> bool {
    let bounds = ns.cpu_bounds();
    !(bounds.lower..=bounds.upper).contains(&ns.effective_cpu())
}

/// Register container 1 with `server` (CPU bounds 2–8, memory soft
/// 512 MiB / hard 1 GiB) and publish a fresh view of 6 CPUs and 1.5 GiB.
pub(crate) fn register_probe_view(server: &ViewServer) -> CgroupId {
    let id = CgroupId(1);
    server.register(
        id,
        CpuBounds { lower: 2, upper: 8 },
        EffectiveCpuConfig::default(),
        EffectiveMemory::new(
            Bytes::from_mib(512),
            Bytes::from_mib(1024),
            Bytes::from_mib(1280),
            Bytes::from_mib(2560),
            EffectiveMemoryConfig::default(),
        ),
    );
    server.mirror(id, 6, Bytes::from_mib(1536), Bytes::from_mib(768));
    id
}

/// Host whose frames the fault plan's partition window drops.
const PARTITIONED_HOST: usize = 0;

/// Host whose frames the fault plan's frame lag delays, in order.
pub(crate) const LAGGED_HOST: usize = 1;

/// The periphery→controller link of the fleet scenarios: during the
/// plan's partition window [`PARTITIONED_HOST`]'s frames vanish (the gap
/// they leave forces a FULL resync once the link heals), and
/// [`LAGGED_HOST`]'s frames wait out the plan's frame lag in order (no
/// gap, eventual consistency). Once the campaign heals, the lag queue
/// flushes.
#[derive(Default)]
pub(crate) struct FrameLink {
    lagged: Vec<(u64, Vec<u8>)>,
    /// Frames the partition dropped.
    pub(crate) dropped: u64,
    /// Frames the lag delayed.
    pub(crate) delayed: u64,
}

impl FrameLink {
    /// The frames that reach the controller in `round` once host `h`
    /// ships `frames`, in delivery order.
    pub(crate) fn route(
        &mut self,
        plan: &FaultPlan,
        h: usize,
        round: u64,
        healing: bool,
        frames: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        if h == PARTITIONED_HOST && !healing && plan.partitioned(round) {
            self.dropped += frames.len() as u64;
            return Vec::new();
        }
        if h != LAGGED_HOST {
            return frames;
        }
        if healing {
            let mut due = frames;
            due.extend(self.lagged.drain(..).map(|(_, frame)| frame));
            return due;
        }
        self.delayed += frames.len() as u64;
        let release = round + plan.frame_lag();
        self.lagged.extend(frames.into_iter().map(|f| (release, f)));
        let (due, waiting) = std::mem::take(&mut self.lagged)
            .into_iter()
            .partition(|(release, _)| *release <= round);
        self.lagged = waiting;
        due.into_iter().map(|(_, frame)| frame).collect()
    }
}

/// One round of seeded demand churn on a fleet host: each container runs
/// with probability 0.6 at a seeded 4–19 threads, so views keep moving
/// and every firing ships deltas; the heal epilogue pins every container
/// busy so views settle.
pub(crate) fn churn_demands(
    host: &SimHost,
    ids: &[CgroupId],
    rng: &mut SimRng,
    healing: bool,
) -> Vec<GroupDemand> {
    if healing {
        return ids.iter().map(|id| host.demand(*id, 20)).collect();
    }
    let mut picks = Vec::new();
    for id in ids {
        if rng.unit() > 0.4 {
            picks.push(host.demand(*id, rng.range_u64(4, 20) as u32));
        }
    }
    picks
}

/// `count` live hosts of three paper tenants each (named
/// `{tag}-{host}-{i}`) with an attached periphery that spreads each
/// host's tenants over two tenant ids. `setup` runs on every host after
/// its launches and before the periphery attaches.
pub(crate) fn fleet_hosts(
    tag: &str,
    count: u32,
    mut setup: impl FnMut(u32, &mut SimHost),
) -> (Vec<SimHost>, Vec<Vec<CgroupId>>) {
    let mut hosts = Vec::new();
    let mut ids = Vec::new();
    for h in 0..count {
        let mut host = SimHost::paper_testbed();
        let launched: Vec<CgroupId> = (0..3)
            .map(|i| host.launch(&paper_spec(format!("{tag}-{h}-{i}"))))
            .collect();
        setup(h, &mut host);
        let mut p = Periphery::new(h);
        for i in 0..launched.len() {
            p.set_tenant(i as u32 + 1, h % 2);
        }
        host.attach_periphery(p);
        hosts.push(host);
        ids.push(launched);
    }
    (hosts, ids)
}

/// Ship every queued REPL frame from `from` to `to` and feed the
/// replication ACKs back: one pump of the leader→standby stream.
pub(crate) fn pump_repl(from: &FleetController, to: &FleetController) {
    for frame in from.take_repl_frames() {
        if let Some(resp) = to.handle_frame(&frame) {
            if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                from.handle_repl_ack(&ack);
            }
        }
    }
}

/// One periphery counter summed over every host.
pub(crate) fn periphery_total(hosts: &[SimHost], counter: impl Fn(PeripheryStats) -> u64) -> u64 {
    hosts
        .iter()
        .filter_map(|h| h.periphery().map(|p| counter(p.stats())))
        .sum()
}

/// Sum of every host's last-observed monitor snapshot, as
/// `(cpu, containers)`: the ground truth a healed controller's rollup
/// must reproduce exactly.
pub(crate) fn ground_truth(hosts: &[SimHost]) -> (u64, u64) {
    let (mut cpu, mut containers) = (0u64, 0u64);
    for host in hosts {
        let snap = host.monitor().snapshot();
        cpu += snap.entries.iter().map(|e| u64::from(e.e_cpu)).sum::<u64>();
        containers += snap.entries.len() as u64;
    }
    (cpu, containers)
}

/// Driver-side views of a synthetic fleet (no simulated hosts): per
/// host, per container, `(cpu, mem, avail)` drawn from a seeded RNG.
pub(crate) struct SyntheticFleet {
    /// `views[host][container]`.
    pub(crate) views: Vec<Vec<(u32, u64, u64)>>,
}

impl SyntheticFleet {
    /// `hosts × containers` seeded views.
    pub(crate) fn new(rng: &mut SimRng, hosts: u32, containers: u32) -> SyntheticFleet {
        let views = (0..hosts)
            .map(|_| {
                (0..containers)
                    .map(|_| {
                        let mem = rng.range_u64(64, 1024);
                        (rng.range_u64(1, 16) as u32, mem, rng.range_u64(0, mem))
                    })
                    .collect()
            })
            .collect();
        SyntheticFleet { views }
    }

    /// Seeded churn: every host flips `1 + rng[0, max_extra)` containers
    /// to new values. The cpu map never restores a container's old
    /// value, so every host ships at least one delta frame per round.
    pub(crate) fn churn(&mut self, rng: &mut SimRng, max_extra: u64) {
        for host in &mut self.views {
            let changes = 1 + rng.range_u64(0, max_extra) as usize;
            for _ in 0..changes {
                let c = rng.range_u64(0, host.len() as u64) as usize;
                let t = &mut host[c];
                t.0 = (t.0 % 64) + 1 + rng.range_u64(0, 4) as u32;
                t.1 = rng.range_u64(64, 1024);
                t.2 = rng.range_u64(0, t.1);
            }
        }
    }

    /// Host `h`'s monitor snapshot at `tick`.
    pub(crate) fn snapshot(&self, h: usize, tick: u64) -> Snapshot {
        let mut snap = Snapshot::at(tick);
        for (c, &(e_cpu, e_mem, e_avail)) in self.views[h].iter().enumerate() {
            snap.entries.push(ViewState {
                id: c as u32,
                e_cpu,
                e_mem,
                e_avail,
                last_tick: tick,
            });
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Probe {
        seed: u64,
        took: WallClock,
        ok: bool,
    }
    report_fields!(Probe: seed, took, ok);

    fn probe(seed: u64, replay: u32) -> Probe {
        Probe {
            seed,
            took: WallClock(f64::from(replay)),
            ok: true,
        }
    }

    #[test]
    fn diverging_replay_panics_naming_scenario_and_seed() {
        let err = std::panic::catch_unwind(|| {
            let mut c = Campaign::new("probe", "probe", [0xA, 0xB], 0);
            c.scenario(
                "flaky",
                |seed, replay| Probe {
                    seed: seed + u64::from(replay == 1 && seed == 0xB),
                    ..probe(seed, replay)
                },
                |_, _| {},
            );
        })
        .expect_err("a diverging replay must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("flaky seed 0xb"), "{msg}");
    }

    #[test]
    fn every_seeded_campaign_rotates_its_canonical_seeds() {
        let canonical = [
            (crate::chaos::SEEDS, [0xA11CE, 0x5EED5]),
            (crate::recovery::SEEDS, [0xC0FFEE, 0xB007ED]),
            (crate::fleet::SEEDS, [0xF1EE7, 0xA66AE6]),
            (crate::fleetobs::SEEDS, [0x0B5F1EE7, 0x57A1E]),
            (crate::storm::SEEDS, [0x0057_0213, 0x00D0_7A6E]),
        ];
        for (declared, today) in canonical {
            assert_eq!(seeds(declared, 0), today);
            assert_ne!(seeds(declared, 1), today);
            assert_eq!(seeds(declared, 1), seeds(declared, 1));
            assert_eq!(
                Campaign::new("c", "c", declared, 1).run_seeds(),
                seeds(today, 1)
            );
        }
    }

    #[test]
    fn report_carries_the_seeds_run_and_every_scenario() {
        let mut c = Campaign::new("probe", "probe", [0xA, 0xB], 1);
        let run = c.run_seeds();
        let outcomes = c.scenario("first", probe, |o, seed| assert_eq!(o.seed, seed));
        assert_eq!(outcomes.iter().map(|o| o.seed).collect::<Vec<_>>(), run);
        c.scenario("second", probe, |o, _| assert!(o.ok));
        let rep = c.finish();

        let labels: Vec<String> = run.iter().map(|s| seed_label(*s)).collect();
        for (table, name) in rep.tables.iter().zip(["first", "second"]) {
            assert_eq!(table.name, name);
            assert_eq!(table.columns, labels);
            for (seed, label) in run.iter().zip(&labels) {
                assert_eq!(table.get("seed", label), Some(*seed as f64));
            }
        }
        let det = &rep.tables[2];
        assert_eq!(det.name, "determinism");
        let replayed: Vec<&str> = det.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(replayed, ["first", "second"]);
        assert!(rep.notes[0].contains(&format!("{:#x} and {:#x} (offset 1)", run[0], run[1])));
    }
}
