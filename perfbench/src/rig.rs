//! One simulated host with its consumers attached — the view daemon
//! behind a Unix-socket wire server, the journal, and a fleet periphery
//! whose frames go to an in-process controller — driven only through
//! their public surfaces.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use arv_cfs::GroupDemand;
use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{ClusterRollup, FleetController, FleetPolicy, Periphery};
use arv_viewd::{HostSpec, ViewServer, WireServer};

use crate::gen::{Inputs, Plan, Workload, HOST_CPUS, MIB, RANGE_A, RANGE_B};
use crate::probe::{RefClock, Speedometer};
use crate::spans::Recorder;
use crate::stats::Samples;

/// Journal compaction cadence, in update-timer firings.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Ticks stepped during set-up so views settle before timing.
const WARMUP_TICKS: u64 = 12;
/// Host id of the periphery.
pub const HOST_ID: u32 = 0;

/// Which consumers a rig attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attach {
    pub viewd: bool,
    pub wire: bool,
    pub journal: bool,
    pub periphery: bool,
}

impl Attach {
    pub const ALL: Attach = Attach {
        viewd: true,
        wire: true,
        journal: true,
        periphery: true,
    };
}

/// The fleet policy the controller pushes down: the default, with a
/// rate burst that lets one host ship a whole tick of deltas at once,
/// so the rollup follows the host every tick at every workload size.
fn fleet_policy() -> FleetPolicy {
    FleetPolicy {
        epoch: 1,
        rate_burst: 1 << 20,
        ..FleetPolicy::default()
    }
}

/// What one container view should read as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub cpus: u32,
    pub mem: u64,
    pub avail: u64,
    pub generation: u64,
}

/// The views every reader should see until the next tick.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Container id of each slot.
    pub ids: Vec<u32>,
    pub views: HashMap<u32, Expect>,
    pub host: HostSpec,
}

/// Wall time of one tick.
#[derive(Debug, Clone, Copy)]
pub struct StepTimes {
    /// `SimHost::step` alone.
    pub step: Duration,
    /// Step plus fleet frame delivery.
    pub total: Duration,
    /// Time inside `FleetController::handle_frame`.
    pub ingest: Duration,
}

/// Ground truth for the fleet rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    pub cpu: u64,
    pub mem: u64,
    pub avail: u64,
    pub containers: u64,
}

impl Truth {
    pub fn matches(&self, r: &ClusterRollup) -> bool {
        r.cpu == self.cpu
            && r.mem == self.mem
            && r.avail == self.avail
            && r.containers == self.containers
            && r.partitioned == 0
    }
}

pub struct Rig {
    pub w: Workload,
    pub host: SimHost,
    pub ctl: FleetController,
    pub server: Option<ViewServer>,
    wire: Option<WireServer>,
    /// Live container of each slot.
    pub slots: Vec<CgroupId>,
    plans: Vec<Plan>,
    /// Slots currently on [`RANGE_B`].
    in_b: Vec<bool>,
    /// MiB currently charged per slot.
    charged: Vec<u64>,
    pub inputs: Inputs,
    /// Host ticks stepped so far.
    pub tick: u64,
    /// The host's own description, as the daemon was given it.
    pub host_spec: HostSpec,
    /// Wall time of each launch.
    pub launch_us: Samples,
    /// Failed memory charges (OOM), which would invalidate the run.
    pub oom: u64,
}

impl Rig {
    /// Build a host with `n` containers and the given consumers, and
    /// warm it up. Returns the rig and its set-up time in reference-core
    /// seconds.
    pub fn build(
        w: &Workload,
        seed: u64,
        n: usize,
        attach: Attach,
        sock: &Path,
        sm: &mut Speedometer,
    ) -> std::io::Result<(Rig, f64)> {
        let mut clock = RefClock::start(sm);
        let mut inputs = Inputs::new(w, seed, n);
        let plans: Vec<Plan> = (0..n).map(|_| inputs.next_plan()).collect();
        let mean_mib: f64 = plans.iter().map(Plan::mean_usage_mib).sum();
        let memory = Bytes((mean_mib * w.memory_headroom) as u64 * MIB);
        let mut host = SimHost::new(HOST_CPUS, memory);
        let host_spec = host.viewd_host_spec();
        let mut server = None;
        let mut wire = None;
        if attach.viewd {
            let s = ViewServer::new(host_spec, 16);
            host.attach_viewd(s.clone());
            if attach.wire {
                wire = Some(WireServer::spawn(s.clone(), sock)?);
            }
            server = Some(s);
        }
        if attach.journal {
            host.enable_journal(CHECKPOINT_EVERY);
        }
        let ctl = FleetController::new(4, fleet_policy());
        if attach.periphery {
            host.attach_periphery(Periphery::new(HOST_ID));
        }
        let mut rig = Rig {
            w: *w,
            host,
            ctl,
            server,
            wire,
            slots: Vec::with_capacity(n),
            plans: Vec::with_capacity(n),
            in_b: vec![false; n],
            charged: vec![0; n],
            inputs,
            tick: 0,
            host_spec,
            launch_us: Samples::new(),
            oom: 0,
        };
        for plan in plans {
            let slot = rig.slots.len();
            rig.plans.push(plan);
            let id = rig.launch(slot);
            rig.slots.push(id);
            rig.charge_to(slot, plan.usage_mib(0));
            clock.lap(sm);
        }
        let mut off = Recorder::new(Instant::now(), 0, false);
        for _ in 0..WARMUP_TICKS {
            rig.advance_cycle();
            let demands = rig.demands();
            rig.step(&demands, &mut off, None);
            clock.lap(sm);
        }
        Ok((rig, clock.stop()))
    }

    pub fn socket(&self) -> Option<&Path> {
        self.wire.as_ref().map(WireServer::socket_path)
    }

    /// Every live container's id and current spec, by id.
    pub fn live_specs(&self) -> Vec<(CgroupId, ContainerSpec)> {
        let mut v: Vec<_> = (0..self.slots.len())
            .map(|slot| (self.slots[slot], self.spec(slot)))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    fn spec(&self, slot: usize) -> ContainerSpec {
        let plan = self.plans[slot];
        let (soft, hard) = if self.in_b[slot] { RANGE_B } else { RANGE_A };
        ContainerSpec::new(format!("slot{slot}"), HOST_CPUS)
            .cpus(f64::from(plan.cpus))
            .cpu_shares(plan.shares)
            .memory(Bytes(hard * MIB))
            .memory_reservation(Bytes(soft * MIB))
    }

    fn launch(&mut self, slot: usize) -> CgroupId {
        let spec = self.spec(slot);
        let t = Instant::now();
        let id = self.host.launch(&spec);
        self.launch_us.push(t.elapsed().as_secs_f64() * 1e6);
        id
    }

    fn charge_to(&mut self, slot: usize, mib: u64) {
        let id = self.slots[slot];
        let have = self.charged[slot];
        if mib > have {
            if !self.host.charge(id, Bytes((mib - have) * MIB)).is_ok() {
                self.oom += 1;
                return;
            }
        } else if mib < have {
            self.host.uncharge(id, Bytes((have - mib) * MIB));
        }
        self.charged[slot] = mib;
    }

    /// Move every churning container along its charge/release cycle to
    /// where it stands for the coming tick.
    pub fn advance_cycle(&mut self) {
        if !self.w.churn {
            return;
        }
        for slot in 0..self.slots.len() {
            let mib = self.plans[slot].usage_mib(self.tick);
            self.charge_to(slot, mib);
        }
    }

    /// This tick's CPU demands.
    pub fn demands(&self) -> Vec<GroupDemand> {
        self.slots
            .iter()
            .zip(&self.plans)
            .map(|(id, p)| self.host.demand(*id, p.runnable(self.tick, self.w.churn)))
            .collect()
    }

    /// One host step that fires the update timer, then fleet frame
    /// delivery: frames to the controller, ACKs back.
    pub fn step(
        &mut self,
        demands: &[GroupDemand],
        rec: &mut Recorder,
        parent: Option<u64>,
    ) -> StepTimes {
        let req = self.tick;
        let t0 = Instant::now();
        let s0 = rec.now_ns();
        self.host.step(demands);
        let step = t0.elapsed();
        let s1 = rec.now_ns();
        rec.record("host.step", s0, s1, parent, req);
        let mut ingest = Duration::ZERO;
        for frame in self.host.take_fleet_frames() {
            let s = rec.now_ns();
            let t = Instant::now();
            let resp = self.ctl.handle_frame(&frame);
            ingest += t.elapsed();
            rec.record("controller.handle_frame", s, rec.now_ns(), parent, req);
            if let Some(resp) = resp {
                rec.time("periphery.deliver_ack", parent, req, || {
                    self.host.deliver_fleet_ack(&resp)
                });
            }
        }
        rec.time("controller.advance_tick", parent, req, || {
            self.ctl.advance_tick()
        });
        self.tick += 1;
        StepTimes {
            step,
            total: t0.elapsed(),
            ingest,
        }
    }

    /// The cluster rollup the controller should report: sums over the
    /// host monitor's snapshot.
    pub fn fleet_truth(&self) -> Truth {
        let snap = self.host.monitor().snapshot();
        Truth {
            cpu: snap.entries.iter().map(|e| u64::from(e.e_cpu)).sum(),
            mem: snap.entries.iter().map(|e| e.e_mem).sum(),
            avail: snap.entries.iter().map(|e| e.e_avail).sum(),
            containers: snap.entries.len() as u64,
        }
    }

    /// `(e_cpu, e_mem)` the host holds for a container.
    pub fn view(&self, id: CgroupId) -> (u32, u64) {
        (
            self.host.effective_cpu(id),
            self.host.effective_memory(id).as_u64(),
        )
    }

    /// Give the slot's container a `docker update` that toggles its
    /// memory reservation and limit between the two ranges.
    pub fn update(&mut self, slot: usize) -> ContainerSpec {
        self.in_b[slot] = !self.in_b[slot];
        let spec = self.spec(slot);
        self.host.update_limits(self.slots[slot], &spec);
        spec
    }

    /// Terminate the slot's container and launch a fresh one with the
    /// next plan. Returns the new container's spec and id.
    pub fn replace(&mut self, slot: usize) -> (ContainerSpec, CgroupId) {
        self.host.terminate(self.slots[slot]);
        self.plans[slot] = self.inputs.next_plan();
        self.in_b[slot] = false;
        self.charged[slot] = 0;
        let spec = self.spec(slot);
        let id = self.launch(slot);
        self.slots[slot] = id;
        let mib = self.plans[slot].usage_mib(self.tick);
        self.charge_to(slot, mib);
        (spec, id)
    }

    /// Every view readers should see now.
    pub fn expected(&self) -> Expected {
        let client = self.server.as_ref().map(ViewServer::client);
        let mut views = HashMap::with_capacity(self.slots.len());
        for id in &self.slots {
            let ns = self
                .host
                .monitor()
                .namespace(*id)
                .expect("every live container has a namespace");
            let (cpus, mem) = self.view(*id);
            views.insert(
                id.0,
                Expect {
                    cpus,
                    mem,
                    avail: ns.available_memory().as_u64(),
                    generation: client.as_ref().and_then(|c| c.generation(*id)).unwrap_or(0),
                },
            );
        }
        Expected {
            ids: self.slots.iter().map(|id| id.0).collect(),
            views,
            host: self.host_spec,
        }
    }

    /// The paper's bounds for every container: lower ≤ E_CPU ≤ upper and
    /// soft ≤ E_mem ≤ hard. Returns `(checked, violated)`.
    pub fn check_bounds(&self) -> (u64, u64) {
        let mut bad = 0;
        for id in &self.slots {
            let ns = self
                .host
                .monitor()
                .namespace(*id)
                .expect("every live container has a namespace");
            let b = ns.cpu_bounds();
            let e = ns.effective_cpu();
            let m = ns.effective_memory();
            if !(b.lower <= e && e <= b.upper && ns.soft_limit() <= m && m <= ns.hard_limit()) {
                bad += 1;
            }
        }
        (self.slots.len() as u64, bad)
    }

    /// `(e_cpu, e_mem, e_avail)` of every container, by id.
    pub fn view_states(&self) -> HashMap<u32, (u32, u64, u64)> {
        self.host
            .monitor()
            .snapshot()
            .entries
            .iter()
            .map(|e| (e.id, (e.e_cpu, e.e_mem, e.e_avail)))
            .collect()
    }

    /// Stop the wire server and wait for its threads.
    pub fn shutdown(mut self) {
        if let Some(wire) = self.wire.take() {
            wire.shutdown();
        }
    }
}
