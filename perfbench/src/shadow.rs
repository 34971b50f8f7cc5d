//! Per-layer timing for the traced run. `SimHost::step` runs its layers
//! back to back with no public seam between them, so the traced run
//! replays each layer's public entry point on that tick's real inputs,
//! on copies of the pre-step state: `CfsSim::allocate`,
//! `UsageLedger::record`, `MemSim::kswapd_step`,
//! `NsMonitor::tick_window` and `snapshot`, `Journal::append_delta` and
//! `sync`, `Periphery::observe`, and `ViewServer::mirror`. A limit
//! change is replayed the same way through `NsMonitor::ingest`. Nothing
//! here touches the rig's own state.

use arv_cfs::{GroupDemand, UsageLedger};
use arv_cgroups::{CgroupId, CgroupManager, CgroupSpec, EventPipe};
use arv_container::ContainerSpec;
use arv_fleet::{Ack, Periphery};
use arv_mem::MemSim;
use arv_persist::Journal;
use arv_resview::{EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, NsMonitor};
use arv_sim_core::clock::sched_period;
use arv_viewd::ViewServer;

use crate::rig::{Rig, CHECKPOINT_EVERY, HOST_ID};
use crate::spans::Recorder;
use crate::stats::Samples;

/// Shadow timings, microseconds per tick (per update for ingest).
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub cfs_allocate: Samples,
    pub ledger_record: Samples,
    pub mem_kswapd: Samples,
    pub monitor_tick: Samples,
    pub monitor_snapshot: Samples,
    pub journal: Samples,
    pub periphery_observe: Samples,
    pub viewd_mirror: Samples,
    pub monitor_ingest: Samples,
    pub events_per_update: Samples,
}

impl LayerTimes {
    /// Mean per-tick time of every layer inside `SimHost::step`, named.
    pub fn step_layers(&self) -> [(&'static str, f64); 8] {
        [
            ("cfs.allocate_us", self.cfs_allocate.mean()),
            ("ledger.record_us", self.ledger_record.mean()),
            ("mem.kswapd_us", self.mem_kswapd.mean()),
            ("monitor.tick_us", self.monitor_tick.mean()),
            ("monitor.snapshot_us", self.monitor_snapshot.mean()),
            ("persist.journal_us", self.journal.mean()),
            ("periphery.observe_us", self.periphery_observe.mean()),
            ("viewd.mirror_us", self.viewd_mirror.mean()),
        ]
    }
}

/// State the step mutates, copied before the step.
pub struct PreStep {
    monitor: NsMonitor,
    ledger: UsageLedger,
    mem: MemSim,
}

pub struct Shadow {
    cgm: CgroupManager,
    pipe: EventPipe,
    journal: Journal,
    periphery: Periphery,
    server: ViewServer,
    pub times: LayerTimes,
}

fn cgroup_spec(spec: &ContainerSpec) -> CgroupSpec {
    CgroupSpec::new(spec.cpu, spec.mem)
}

/// Register a container with the shadow daemon in the state the host
/// monitor holds for it.
fn register(server: &ViewServer, rig: &Rig, id: CgroupId) {
    let ns = rig.host.monitor().namespace(id).expect("live container");
    let wm = rig.host.mem().watermarks();
    let e_mem = EffectiveMemory::new(
        ns.soft_limit(),
        ns.hard_limit(),
        wm.low,
        wm.high,
        EffectiveMemoryConfig::default(),
    );
    server.register(id, ns.cpu_bounds(), EffectiveCpuConfig::default(), e_mem);
}

impl Shadow {
    /// Shadow copies of the rig's consumers, primed with its current
    /// state. The shadow hierarchy creates (and removes) ids in the
    /// host's order, so later launches get the same ids on both.
    pub fn new(rig: &Rig) -> Shadow {
        let mut cgm = CgroupManager::new();
        let live = rig.live_specs();
        let last = live.last().map_or(0, |(id, _)| id.0 + 1);
        let mut live = live.into_iter().peekable();
        for want in 0..last {
            match live.next_if(|(id, _)| id.0 == want) {
                Some((id, spec)) => {
                    let sid = cgm.create(cgroup_spec(&spec));
                    assert_eq!(sid, id, "shadow hierarchy diverged from the host");
                }
                None => {
                    let gone = cgm.create(CgroupSpec::new(
                        arv_cgroups::CpuController::unlimited(crate::gen::HOST_CPUS),
                        arv_cgroups::MemController::unlimited(),
                    ));
                    cgm.remove(gone);
                }
            }
        }
        cgm.drain_events();
        let snap = rig.host.monitor().snapshot();
        let mut journal = Journal::new();
        journal.checkpoint(&snap).expect("in-memory journal");
        let mut periphery = Periphery::new(HOST_ID);
        periphery.handle_ack(&Ack {
            host: HOST_ID,
            expected_seq: 0,
            ctl_epoch: rig.ctl.ctl_epoch(),
            resync: false,
            not_leader: false,
            policy: Some(rig.ctl.policy()),
        });
        periphery.observe(&snap, false, 0);
        periphery.take_frames();
        let server = ViewServer::new(rig.host_spec, 16);
        for id in &rig.slots {
            register(&server, rig, *id);
        }
        Shadow {
            cgm,
            pipe: EventPipe::new(1 << 16),
            journal,
            periphery,
            server,
            times: LayerTimes::default(),
        }
    }

    pub fn pre_step(rig: &Rig) -> PreStep {
        PreStep {
            monitor: rig.host.monitor().clone(),
            ledger: rig.host.ledger().clone(),
            mem: rig.host.mem().clone(),
        }
    }

    /// Replay the step's layers on `pre` with the tick's demands.
    pub fn replay(
        &mut self,
        rig: &Rig,
        mut pre: PreStep,
        demands: &[GroupDemand],
        rec: &mut Recorder,
        parent: Option<u64>,
    ) {
        let req = rig.tick;
        let us = |ns: u64| ns as f64 / 1e3;
        let period = sched_period(demands.iter().map(|d| d.runnable).sum::<u32>().max(1));
        let (alloc, t) = rec.time("cfs.allocate", parent, req, || {
            rig.host.cfs().allocate(period, demands)
        });
        self.times.cfs_allocate.push(us(t));
        let (_, t) = rec.time("ledger.record", parent, req, || pre.ledger.record(&alloc));
        self.times.ledger_record.push(us(t));
        let (_, t) = rec.time("mem.kswapd_step", parent, req, || {
            pre.mem.kswapd_step(period)
        });
        self.times.mem_kswapd.push(us(t));
        pre.monitor.observe_tick();
        let (_, t) = rec.time("monitor.tick_window", parent, req, || {
            pre.monitor.tick_window(&pre.ledger, &pre.mem)
        });
        self.times.monitor_tick.push(us(t));
        let (snap, t) = rec.time("monitor.snapshot", parent, req, || pre.monitor.snapshot());
        self.times.monitor_snapshot.push(us(t));

        let tick = snap.tick;
        if tick % CHECKPOINT_EVERY == 0 {
            self.journal.checkpoint(&snap).expect("in-memory journal");
        }
        let journal = &mut self.journal;
        let (_, t) = rec.time("persist.append_delta+sync", parent, req, || {
            journal.set_tick(tick);
            for e in &snap.entries {
                journal.append_delta(e, tick).expect("in-memory journal");
            }
            journal.sync().expect("in-memory journal");
        });
        self.times.journal.push(us(t));

        let periphery = &mut self.periphery;
        let (_, t) = rec.time("periphery.observe", parent, req, || {
            periphery.observe(&snap, false, 0)
        });
        self.periphery.take_frames();
        self.times.periphery_observe.push(us(t));

        let server = &self.server;
        let monitor = &pre.monitor;
        let (_, t) = rec.time("viewd.mirror", parent, req, || {
            for id in &rig.slots {
                if let Some(ns) = monitor.namespace(*id) {
                    server.set_fallback(*id, ns.cpu_bounds().lower, ns.soft_limit());
                    server.mirror(
                        *id,
                        ns.effective_cpu(),
                        ns.effective_memory(),
                        ns.available_memory(),
                    );
                }
            }
        });
        self.times.viewd_mirror.push(us(t));
    }

    /// Mirror a `docker update` into the shadow hierarchy. With
    /// `pre_update` (the monitor as it was before the host applied the
    /// update), time the monitor's ingest of the resulting events.
    pub fn on_update(
        &mut self,
        id: CgroupId,
        spec: &ContainerSpec,
        pre_update: Option<NsMonitor>,
        rec: &mut Recorder,
        parent: Option<u64>,
    ) {
        self.cgm.update(id, cgroup_spec(spec));
        self.deliver(pre_update, rec, parent);
    }

    /// Mirror a terminate + launch into the shadow hierarchy and daemon.
    pub fn on_replace(&mut self, rig: &Rig, old: CgroupId, spec: &ContainerSpec, new: CgroupId) {
        self.cgm.remove(old);
        let sid = self.cgm.create(cgroup_spec(spec));
        assert_eq!(sid, new, "shadow hierarchy diverged from the host");
        // Only update events are replayed; drop these.
        self.cgm.drain_events();
        self.server.unregister(old);
        register(&self.server, rig, new);
    }

    fn deliver(&mut self, monitor: Option<NsMonitor>, rec: &mut Recorder, parent: Option<u64>) {
        for ev in self.cgm.drain_events() {
            self.pipe.push(ev);
        }
        let events = self.pipe.drain();
        let Some(mut monitor) = monitor else { return };
        if let Some(first) = events.first() {
            monitor.align_seq(first.seq);
        }
        let cgm = &self.cgm;
        let (_, t) = rec.time("monitor.ingest", parent, 0, || monitor.ingest(&events, cgm));
        self.times.monitor_ingest.push(t as f64 / 1e3);
        self.times.events_per_update.push(events.len() as f64);
    }
}
