//! `ns_monitor`: the system-wide daemon that keeps every `sys_namespace`
//! current.
//!
//! Two update paths exist, exactly as in §3.1–3.2 of the paper:
//!
//! * **cgroup events** (container creation/termination, limit changes) —
//!   [`NsMonitor::sync`] drains the cgroup manager's event log and
//!   recomputes every namespace's *static* inputs: the CPU bounds
//!   (which depend on the share total over all containers, so one
//!   container's arrival moves everyone's lower bound) and the memory
//!   limits. [`NsMonitor::ingest`] refreshes only the affected
//!   namespaces when a batch of limit changes leaves the share total
//!   where it was;
//! * **the update timer** — [`NsMonitor::tick`] fires once per scheduling
//!   period and advances the *dynamic* state machines from scheduler and
//!   memory-manager observations. Host free memory is sampled once per
//!   firing, so a firing costs O(N) over N namespaces.

use arv_cfs::UsageLedger;
use arv_cgroups::{Bytes, CgroupEvent, CgroupId, CgroupManager, CgroupSpec, CpuSet, SeqEvent};
use arv_mem::{MemSim, Watermarks};
use arv_telemetry::{CpuDecision, DecisionCause, MemDecision, PipelineEvent, Tracer};
use std::collections::BTreeMap;

use crate::effective_cpu::{CpuBounds, CpuSample, EffectiveCpuConfig};
use crate::effective_mem::{EffectiveMemory, EffectiveMemoryConfig, MemSample};
use crate::namespace::{Pid, SysNamespace};

/// Outcome of one [`NsMonitor::ingest`] round over sequence-numbered
/// events. A `gap` means at least one event was lost in transit — the
/// incremental stream can no longer be trusted and the caller (usually
/// via the [`Watchdog`](crate::watchdog::Watchdog)) should run
/// [`NsMonitor::resync`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events applied this round.
    pub applied: usize,
    /// Events skipped because their sequence number was already seen.
    pub duplicates: u64,
    /// Whether a sequence gap (lost event) was observed.
    pub gap: bool,
}

/// Outcome of one [`NsMonitor::recover`] warm-restart pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverOutcome {
    /// Containers resumed from the journaled snapshot.
    pub restored: usize,
    /// Restored views that had to be reconciled: the journaled value
    /// fell outside the freshly recomputed bounds and was clamped.
    pub reconciled: usize,
    /// Snapshot entries dropped because their cgroup vanished while the
    /// monitor was down.
    pub dropped: usize,
    /// Live cgroups absent from the snapshot, admitted cold at the
    /// lower bounds.
    pub admitted: usize,
}

/// The monitor daemon (simulation-side; see [`crate::live`] for the
/// threaded equivalent).
#[derive(Debug, Clone)]
pub struct NsMonitor {
    online: CpuSet,
    host_total: Bytes,
    watermarks: Watermarks,
    cpu_cfg: EffectiveCpuConfig,
    mem_cfg: EffectiveMemoryConfig,
    namespaces: BTreeMap<CgroupId, SysNamespace>,
    next_pid: u32,
    now_tick: u64,
    next_seq: u64,
    /// The share total `Σ w_j` every namespace's CPU bounds were last
    /// computed against (`None` before the first full refresh).
    refreshed_shares: Option<u64>,
    tracer: Tracer,
}

impl NsMonitor {
    /// A monitor with no namespaces yet, over `online` CPUs and
    /// `host_total` bytes of memory.
    pub fn new(
        online: CpuSet,
        host_total: Bytes,
        watermarks: Watermarks,
        cpu_cfg: EffectiveCpuConfig,
        mem_cfg: EffectiveMemoryConfig,
    ) -> NsMonitor {
        NsMonitor {
            online,
            host_total,
            watermarks,
            cpu_cfg,
            mem_cfg,
            namespaces: BTreeMap::new(),
            next_pid: 1,
            now_tick: 0,
            next_seq: 0,
            refreshed_shares: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Install a [`Tracer`]; every subsequent view change carries its
    /// decision provenance into the shared trace ring. The default is a
    /// disabled (no-op) tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The monitor's tracer (disabled unless
    /// [`set_tracer`](NsMonitor::set_tracer) installed one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Convenience constructor with the paper's default thresholds.
    pub fn with_defaults(online: CpuSet, host_total: Bytes, watermarks: Watermarks) -> NsMonitor {
        NsMonitor::new(
            online,
            host_total,
            watermarks,
            EffectiveCpuConfig::default(),
            EffectiveMemoryConfig::default(),
        )
    }

    /// The container's namespace, if it has one.
    pub fn namespace(&self, id: CgroupId) -> Option<&SysNamespace> {
        self.namespaces.get(&id)
    }

    /// Mutable access to the container's namespace.
    pub fn namespace_mut(&mut self, id: CgroupId) -> Option<&mut SysNamespace> {
        self.namespaces.get_mut(&id)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.namespaces.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.namespaces.is_empty()
    }

    /// Effective CPU for a container, if it has a namespace.
    pub fn effective_cpu(&self, id: CgroupId) -> Option<u32> {
        self.namespaces.get(&id).map(|n| n.effective_cpu())
    }

    /// Effective memory for a container, if it has a namespace.
    pub fn effective_memory(&self, id: CgroupId) -> Option<Bytes> {
        self.namespaces.get(&id).map(|n| n.effective_memory())
    }

    /// The monitor's notion of "now", in update-timer firings.
    pub fn now_tick(&self) -> u64 {
        self.now_tick
    }

    /// Advance the monitor's clock by one update-timer firing.
    ///
    /// The driver calls this on *every* firing, including ones where the
    /// monitor is stalled and does no work — the clock models the timer,
    /// not the work, so view ages keep growing while the monitor is
    /// wedged and staleness classification stays honest.
    pub fn observe_tick(&mut self) {
        self.now_tick += 1;
    }

    /// Drain pending cgroup events and refresh static inputs.
    ///
    /// A create or remove moves the share denominator `Σ w_j`, and with
    /// it every lower bound; `sync` recomputes every namespace's bounds
    /// whenever at least one event arrived.
    pub fn sync(&mut self, cgm: &mut CgroupManager) {
        let events = cgm.drain_events();
        if events.is_empty() {
            return;
        }
        for ev in events {
            self.apply_event(ev, cgm);
        }
        self.recompute_all(cgm, DecisionCause::StaticRefresh);
    }

    /// Apply a batch of sequence-numbered events (delivered through an
    /// [`arv_cgroups::EventPipe`]), detecting loss and duplication.
    ///
    /// Duplicated events (sequence already consumed) are skipped —
    /// re-creating an existing namespace would reset its dynamic state.
    /// A sequence number beyond the expected one means events were lost;
    /// the batch is still applied best-effort, but the report flags the
    /// gap so the caller can schedule a [`resync`](NsMonitor::resync).
    /// Reordered deliveries surface as a gap too, which is the safe,
    /// conservative reading.
    ///
    /// A gap-free batch of only `Updated` events that leaves the share
    /// total where the last full refresh left it refreshes just the
    /// namespaces it names, in id order: every other namespace's static
    /// inputs are unchanged, so a full refresh would leave them as they
    /// are. Any other batch refreshes every namespace.
    pub fn ingest(&mut self, events: &[SeqEvent], cgm: &CgroupManager) -> IngestReport {
        let (report, updated) = self.apply_events(events, cgm);
        if report.applied > 0 {
            match updated {
                Some(ids) if self.refreshed_shares == Some(cgm.total_shares()) => {
                    self.refresh(&ids, cgm);
                }
                _ => self.recompute_all(cgm, DecisionCause::StaticRefresh),
            }
        }
        report
    }

    /// The event half of [`ingest`](NsMonitor::ingest): consume `events`
    /// in sequence order, create and drop namespaces, and trace a gap.
    /// Returns the report and, for a gap-free batch whose applied events
    /// were all `Updated`, the ids they named (sorted, deduplicated).
    fn apply_events(
        &mut self,
        events: &[SeqEvent],
        cgm: &CgroupManager,
    ) -> (IngestReport, Option<Vec<CgroupId>>) {
        let mut report = IngestReport::default();
        let mut updated = Some(Vec::new());
        for ev in events {
            if ev.seq < self.next_seq {
                report.duplicates += 1;
                continue;
            }
            if ev.seq > self.next_seq {
                report.gap = true;
            }
            self.next_seq = ev.seq + 1;
            match self.apply_event(ev.event, cgm) {
                Some(id) => updated.iter_mut().for_each(|ids| ids.push(id)),
                None => updated = None,
            }
            report.applied += 1;
        }
        if report.gap {
            updated = None;
            self.tracer
                .emit_pipeline(self.now_tick, None, PipelineEvent::GapDetected);
        }
        if let Some(ids) = &mut updated {
            ids.sort_unstable();
            ids.dedup();
        }
        (report, updated)
    }

    /// Create or drop the namespace a lifecycle event names; returns the
    /// id an `Updated` event names (its refresh is the caller's).
    fn apply_event(&mut self, event: CgroupEvent, cgm: &CgroupManager) -> Option<CgroupId> {
        match event {
            CgroupEvent::Created(id) => self.create_namespace(id, cgm),
            CgroupEvent::Removed(id) => {
                if self.namespaces.remove(&id).is_some() {
                    self.tracer.emit_pipeline(
                        self.now_tick,
                        Some(id),
                        PipelineEvent::ContainerRemoved,
                    );
                }
            }
            CgroupEvent::Updated(id) => return Some(id),
        }
        None
    }

    /// Full reconcile pass: rescan the cgroup hierarchy from scratch.
    ///
    /// Any pending incremental events are discarded (the rescan
    /// supersedes them): namespaces for departed cgroups are dropped,
    /// missing namespaces are created, and every static bound is
    /// recomputed. After a resync the monitor's view of the hierarchy is
    /// correct regardless of how many events were lost.
    pub fn resync(&mut self, cgm: &mut CgroupManager) {
        let _ = cgm.drain_events();
        let tracer = self.tracer.clone();
        let now = self.now_tick;
        self.namespaces.retain(|id, _| {
            let keep = cgm.contains(*id);
            if !keep {
                tracer.emit_pipeline(now, Some(*id), PipelineEvent::ContainerRemoved);
            }
            keep
        });
        let live: Vec<CgroupId> = cgm.iter().map(|(id, _)| id).collect();
        for id in live {
            self.create_namespace(id, cgm);
        }
        self.recompute_all(cgm, DecisionCause::WatchdogResync);
        self.tracer
            .emit_pipeline(self.now_tick, None, PipelineEvent::Resynced);
    }

    /// Capture every namespace's dynamic view for journaling.
    ///
    /// The snapshot records only the *dynamic* state (effective CPU and
    /// memory, availability, refresh tick); static bounds and limits are
    /// deliberately not persisted — on recovery they are recomputed from
    /// the live cgroup hierarchy, which is the authority.
    pub fn snapshot(&self) -> arv_persist::Snapshot {
        arv_persist::Snapshot {
            tick: self.now_tick,
            entries: self
                .namespaces
                .values()
                .map(|ns| arv_persist::ViewState {
                    id: ns.id().0,
                    e_cpu: ns.effective_cpu(),
                    e_mem: ns.effective_memory().as_u64(),
                    e_avail: ns.available_memory().as_u64(),
                    last_tick: ns.last_tick(),
                })
                .collect(),
        }
    }

    /// Warm restart: rebuild membership from the live cgroup hierarchy,
    /// then resume dynamic views from a journaled `snapshot` instead of
    /// the cold lower bounds.
    ///
    /// Reconcile rules, in order:
    ///
    /// 1. membership follows the hierarchy — namespaces for vanished
    ///    cgroups are dropped, cgroups missing a namespace get one
    ///    (admitted cold at the lower bounds);
    /// 2. restored values are clamped into the **freshly recomputed**
    ///    static bounds (shares, quotas and limits may have changed
    ///    while the monitor was down);
    /// 3. snapshot entries for vanished cgroups are discarded.
    ///
    /// Emits a [`DecisionCause::Restored`] (or
    /// [`DecisionCause::RestoreReconciled`] when the clamp moved the
    /// journaled value) provenance record per resumed view, and one
    /// [`PipelineEvent::Restored`] for the pass itself.
    pub fn recover(
        &mut self,
        snapshot: &arv_persist::Snapshot,
        cgm: &mut CgroupManager,
    ) -> RecoverOutcome {
        let _ = cgm.drain_events();
        let tracer = self.tracer.clone();
        let now = self.now_tick;
        self.namespaces.retain(|id, _| {
            let keep = cgm.contains(*id);
            if !keep {
                tracer.emit_pipeline(now, Some(*id), PipelineEvent::ContainerRemoved);
            }
            keep
        });
        let live: Vec<CgroupId> = cgm.iter().map(|(id, _)| id).collect();
        for id in live {
            self.create_namespace(id, cgm);
        }
        // Fresh static inputs first: restored values clamp against the
        // hierarchy as it is *now*, not as it was journaled.
        self.recompute_all(cgm, DecisionCause::StaticRefresh);

        let mut out = RecoverOutcome::default();
        for entry in &snapshot.entries {
            let id = CgroupId(entry.id);
            let Some(ns) = self.namespaces.get_mut(&id) else {
                out.dropped += 1;
                continue;
            };
            let cpu_before = ns.effective_cpu();
            let mem_before = ns.effective_memory();
            let (cpu_after, mem_after) = ns.restore_views(entry.e_cpu, Bytes(entry.e_mem));
            ns.stamp(self.now_tick);
            out.restored += 1;
            let clamped = cpu_after != entry.e_cpu || mem_after != Bytes(entry.e_mem);
            if clamped {
                out.reconciled += 1;
            }
            let cause = if clamped {
                DecisionCause::RestoreReconciled
            } else {
                DecisionCause::Restored
            };
            if cpu_after != cpu_before {
                self.tracer.emit_cpu(
                    self.now_tick,
                    id,
                    CpuDecision {
                        cause,
                        before: cpu_before,
                        after: cpu_after,
                        utilization: 0.0,
                        had_slack: false,
                    },
                );
            }
            if mem_after != mem_before {
                self.tracer.emit_mem(
                    self.now_tick,
                    id,
                    MemDecision {
                        cause,
                        before: mem_before,
                        after: mem_after,
                        usage: Bytes(0),
                        free: Bytes(0),
                    },
                );
            }
        }
        out.admitted = self
            .namespaces
            .keys()
            .filter(|id| snapshot.get(id.0).is_none())
            .count();
        self.tracer
            .emit_pipeline(self.now_tick, None, PipelineEvent::Restored);
        out
    }

    /// Align the expected event sequence number (after a resync, the
    /// driver passes its pipe's `next_seq` so already-superseded events
    /// are not misread as a fresh gap).
    pub fn align_seq(&mut self, next_seq: u64) {
        self.next_seq = next_seq;
    }

    /// Align the tick counter (after a warm restart: the update timer's
    /// cadence is host-side and survives the daemon, so a replacement
    /// monitor resumes the old clock instead of restarting at zero —
    /// otherwise every served view would look impossibly fresh).
    pub fn align_tick(&mut self, tick: u64) {
        self.now_tick = tick;
    }

    fn create_namespace(&mut self, id: CgroupId, cgm: &CgroupManager) {
        if self.namespaces.contains_key(&id) {
            // Duplicate create (replayed event): the namespace's dynamic
            // state must survive, so this is a no-op.
            return;
        }
        let Some(spec) = cgm.get(id) else { return };
        let bounds = CpuBounds::compute(&spec.cpu, cgm.total_shares(), self.online);
        let soft = spec.mem.soft_limit_or(self.host_total);
        let hard = spec.mem.hard_limit_or(self.host_total);
        let e_mem = EffectiveMemory::new(
            soft,
            hard,
            self.watermarks.low,
            self.watermarks.high,
            self.mem_cfg,
        );
        let owner = Pid(self.next_pid);
        self.next_pid += 1;
        let mut ns = SysNamespace::new(id, owner, bounds, self.cpu_cfg, e_mem);
        ns.stamp(self.now_tick);
        self.namespaces.insert(id, ns);
        self.tracer
            .emit_pipeline(self.now_tick, Some(id), PipelineEvent::ContainerCreated);
    }

    /// Refresh every namespace's static inputs, emitting a provenance
    /// record (with `cause`: static refresh vs. watchdog resync) for
    /// each view the clamp actually moved.
    fn recompute_all(&mut self, cgm: &CgroupManager, cause: DecisionCause) {
        let total_shares = cgm.total_shares();
        let refresh = StaticRefresh::new(self, total_shares, cause);
        for (id, ns) in self.namespaces.iter_mut() {
            if let Some(spec) = cgm.get(*id) {
                refresh.apply(*id, ns, spec);
            }
        }
        self.refreshed_shares = Some(total_shares);
    }

    /// Refresh the static inputs of the namespaces in `ids` only (in the
    /// given order), exactly as a static-refresh
    /// [`recompute_all`](Self::recompute_all) would refresh them.
    fn refresh(&mut self, ids: &[CgroupId], cgm: &CgroupManager) {
        let refresh = StaticRefresh::new(self, cgm.total_shares(), DecisionCause::StaticRefresh);
        for id in ids {
            if let (Some(ns), Some(spec)) = (self.namespaces.get_mut(id), cgm.get(*id)) {
                refresh.apply(*id, ns, spec);
            }
        }
    }

    /// Periodic update: advance every namespace from the last scheduling
    /// period's CPU accounting and the memory manager's current state.
    /// Host free memory is sampled once per firing; every namespace sees
    /// the same value.
    pub fn tick(&mut self, ledger: &UsageLedger, mem: &MemSim) {
        if ledger.last_period().is_zero() {
            return; // nothing scheduled yet
        }
        let free = mem.free();
        for (id, ns) in self.namespaces.iter_mut() {
            let (cpu_d, mem_d) = ns.update_explained(
                CpuSample {
                    usage: ledger.last_usage(*id),
                    period: ledger.last_period(),
                    slack: ledger.last_slack(),
                },
                MemSample {
                    free,
                    usage: mem.usage(*id),
                    reclaiming: mem.is_reclaiming(),
                },
            );
            if let Some(d) = cpu_d {
                self.tracer.emit_cpu(self.now_tick, *id, d);
            }
            if let Some(d) = mem_d {
                self.tracer.emit_mem(self.now_tick, *id, d);
            }
            ns.stamp(self.now_tick);
        }
    }

    /// Update-timer firing over the ledger's accumulated window (used by
    /// event-driven drivers whose steps are shorter than one scheduling
    /// period). Like [`tick`](NsMonitor::tick), it samples host free
    /// memory once per firing.
    pub fn tick_window(&mut self, ledger: &UsageLedger, mem: &MemSim) {
        if ledger.window_time().is_zero() {
            return;
        }
        let free = mem.free();
        for (id, ns) in self.namespaces.iter_mut() {
            let (cpu_d, mem_d) = ns.update_explained(
                CpuSample {
                    usage: ledger.window_usage(*id),
                    period: ledger.window_time(),
                    slack: ledger.window_slack(),
                },
                MemSample {
                    free,
                    usage: mem.usage(*id),
                    reclaiming: mem.is_reclaiming(),
                },
            );
            if let Some(d) = cpu_d {
                self.tracer.emit_cpu(self.now_tick, *id, d);
            }
            if let Some(d) = mem_d {
                self.tracer.emit_mem(self.now_tick, *id, d);
            }
            ns.stamp(self.now_tick);
        }
    }

    /// CPU-only periodic update (memory decimated by the caller).
    pub fn tick_cpu(&mut self, ledger: &UsageLedger) {
        if ledger.last_period().is_zero() {
            return;
        }
        for (id, ns) in self.namespaces.iter_mut() {
            let cpu_d = ns.update_cpu_explained(CpuSample {
                usage: ledger.last_usage(*id),
                period: ledger.last_period(),
                slack: ledger.last_slack(),
            });
            if let Some(d) = cpu_d {
                self.tracer.emit_cpu(self.now_tick, *id, d);
            }
            ns.stamp(self.now_tick);
        }
    }
}

/// The inputs of one static refresh pass, shared by every namespace it
/// touches.
struct StaticRefresh {
    tracer: Tracer,
    now_tick: u64,
    online: CpuSet,
    host_total: Bytes,
    total_shares: u64,
    cause: DecisionCause,
}

impl StaticRefresh {
    fn new(mon: &NsMonitor, total_shares: u64, cause: DecisionCause) -> StaticRefresh {
        StaticRefresh {
            tracer: mon.tracer.clone(),
            now_tick: mon.now_tick,
            online: mon.online,
            host_total: mon.host_total,
            total_shares,
            cause,
        }
    }

    /// Install `spec`'s bounds and limits into `ns`, tracing each view
    /// the clamp moved.
    fn apply(&self, id: CgroupId, ns: &mut SysNamespace, spec: &CgroupSpec) {
        let cpu_before = ns.effective_cpu();
        let mem_before = ns.effective_memory();
        ns.set_cpu_bounds(CpuBounds::compute(
            &spec.cpu,
            self.total_shares,
            self.online,
        ));
        ns.set_mem_limits(
            spec.mem.soft_limit_or(self.host_total),
            spec.mem.hard_limit_or(self.host_total),
        );
        let cpu_after = ns.effective_cpu();
        let mem_after = ns.effective_memory();
        if cpu_after != cpu_before {
            self.tracer.emit_cpu(
                self.now_tick,
                id,
                CpuDecision {
                    cause: self.cause,
                    before: cpu_before,
                    after: cpu_after,
                    utilization: 0.0,
                    had_slack: false,
                },
            );
        }
        if mem_after != mem_before {
            self.tracer.emit_mem(
                self.now_tick,
                id,
                MemDecision {
                    cause: self.cause,
                    before: mem_before,
                    after: mem_after,
                    usage: Bytes(0),
                    free: Bytes(0),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_cfs::{CfsSim, GroupDemand};
    use arv_cgroups::{CgroupSpec, CpuController, MemController};
    use arv_mem::MemSimConfig;
    use arv_sim_core::SimDuration;

    const P: SimDuration = SimDuration::from_millis(24);

    fn testbed() -> (CgroupManager, NsMonitor, CfsSim, MemSim, UsageLedger) {
        let cfs = CfsSim::with_cpus(20);
        let mem = MemSim::new(MemSimConfig::paper_testbed());
        let monitor = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());
        (CgroupManager::new(), monitor, cfs, mem, UsageLedger::new())
    }

    fn paper_spec() -> CgroupSpec {
        CgroupSpec::new(
            CpuController::unlimited(20).with_quota_cpus(10.0),
            MemController::unlimited(),
        )
    }

    #[test]
    fn sync_creates_namespaces_with_paper_bounds() {
        let (mut cgm, mut mon, _, mut mem, _) = testbed();
        let ids: Vec<CgroupId> = (0..5).map(|_| cgm.create(paper_spec())).collect();
        for id in &ids {
            mem.register(*id, MemController::unlimited());
        }
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 5);
        // 5 equal-share containers on 20 cores with a 10-core limit:
        // lower = 4, E starts at 4.
        for id in &ids {
            let ns = mon.namespace(*id).unwrap();
            assert_eq!(
                ns.cpu_bounds(),
                CpuBounds {
                    lower: 4,
                    upper: 10
                }
            );
            assert_eq!(ns.effective_cpu(), 4);
        }
    }

    #[test]
    fn container_churn_moves_everyones_lower_bound() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        // Alone: lower = min(10, 20, ceil(1·20)) = 10.
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
        let b = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        // Two equal containers: ceil(20/2) = 10 → still 10.
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
        for _ in 0..3 {
            cgm.create(paper_spec());
        }
        mon.sync(&mut cgm);
        // Five containers: ceil(20/5) = 4.
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 4);
        assert_eq!(mon.namespace(b).unwrap().cpu_bounds().lower, 4);
    }

    #[test]
    fn removal_restores_bounds_and_drops_namespace() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        let c = cgm.create(paper_spec());
        let d = cgm.create(paper_spec());
        let e = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 4);
        for id in [b, c, d, e] {
            cgm.remove(id);
        }
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 1);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
        assert!(mon.namespace(b).is_none());
    }

    #[test]
    fn tick_drives_effective_cpu_growth() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        // Five sibling cgroups (lower bound 4 for each); only `a` runs, so
        // it can expand into the others' slack.
        let a = cgm.create(paper_spec());
        for _ in 0..4 {
            cgm.create(paper_spec());
        }
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        assert_eq!(mon.effective_cpu(a), Some(4));
        for _ in 0..10 {
            let demand = GroupDemand::cpu_bound(a, 20, 1024, 10.0);
            let alloc = cfs.allocate(P, &[demand]);
            ledger.record(&alloc);
            mon.tick(&ledger, &mem);
        }
        // With slack and saturation, E climbs to the 10-core upper bound.
        assert_eq!(mon.effective_cpu(a), Some(10));
    }

    #[test]
    fn removal_between_ticks_leaves_no_stale_namespace() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        for id in [a, b] {
            mem.register(id, MemController::unlimited());
        }
        mon.sync(&mut cgm);
        // One tick with both containers running.
        let demands = [
            GroupDemand::cpu_bound(a, 20, 1024, 10.0),
            GroupDemand::cpu_bound(b, 20, 1024, 10.0),
        ];
        ledger.record(&cfs.allocate(P, &demands));
        mon.tick(&ledger, &mem);
        let e_a_before = mon.effective_cpu(a).unwrap();
        // `b` disappears between ticks; the ledger still carries its
        // last-window usage when the next tick fires.
        cgm.remove(b);
        mem.unregister(b);
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 1);
        assert!(mon.namespace(b).is_none());
        assert!(mon.effective_cpu(b).is_none());
        ledger.record(&cfs.allocate(P, &demands[..1]));
        mon.tick(&ledger, &mem);
        // No stale update resurrected `b`, and `a` keeps adapting —
        // alone now, its bounds opened up to the full 10-core quota.
        assert_eq!(mon.len(), 1);
        assert!(mon.namespace(b).is_none());
        assert!(mon.effective_cpu(a).unwrap() >= e_a_before);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
    }

    #[test]
    fn tick_before_any_allocation_is_harmless() {
        let (mut cgm, mut mon, _, mem, ledger) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        mon.tick(&ledger, &mem);
        assert_eq!(mon.effective_cpu(a), Some(10));
    }

    #[test]
    fn update_event_refreshes_limits() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().upper, 10);
        cgm.update(
            a,
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(2.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(1)),
            ),
        );
        mon.sync(&mut cgm);
        let ns = mon.namespace(a).unwrap();
        assert_eq!(ns.cpu_bounds().upper, 2);
        assert_eq!(ns.effective_memory(), Bytes::from_gib(1));
    }

    #[test]
    fn sync_without_events_is_noop() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        let before = mon.namespace(a).unwrap().cpu_bounds();
        mon.sync(&mut cgm); // no new events
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds(), before);
    }

    /// Drain the manager through a pipe, numbering events as the host
    /// driver would.
    fn pump(
        cgm: &mut CgroupManager,
        pipe: &mut arv_cgroups::EventPipe,
    ) -> Vec<arv_cgroups::SeqEvent> {
        for ev in cgm.drain_events() {
            pipe.push(ev);
        }
        pipe.drain()
    }

    #[test]
    fn ingest_tracks_sequence_and_applies_events() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        let events = pump(&mut cgm, &mut pipe);
        let rep = mon.ingest(&events, &cgm);
        assert_eq!(rep.applied, 2);
        assert_eq!(rep.duplicates, 0);
        assert!(!rep.gap);
        assert_eq!(mon.len(), 2);
        assert!(mon.namespace(a).is_some() && mon.namespace(b).is_some());
    }

    #[test]
    fn ingest_skips_duplicates_without_resetting_state() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        let a = cgm.create(paper_spec());
        mem.register(a, MemController::unlimited());
        let events = pump(&mut cgm, &mut pipe);
        mon.ingest(&events, &cgm);
        // Grow the dynamic view past its initial value.
        for _ in 0..3 {
            let alloc = cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]);
            ledger.record(&alloc);
            mon.tick(&ledger, &mem);
        }
        let grown = mon.effective_cpu(a).unwrap();
        // Replay the Created event (duplicate delivery).
        let rep = mon.ingest(&events, &cgm);
        assert_eq!(rep.duplicates, 1);
        assert_eq!(rep.applied, 0);
        assert_eq!(mon.effective_cpu(a), Some(grown), "duplicate reset state");
    }

    #[test]
    fn ingest_reports_gap_on_lost_event() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        cgm.create(paper_spec());
        cgm.create(paper_spec());
        let mut events = pump(&mut cgm, &mut pipe);
        events.remove(0); // lose the first Created in transit
        let rep = mon.ingest(&events, &cgm);
        assert!(rep.gap);
        assert_eq!(rep.applied, 1);
        assert_eq!(mon.len(), 1, "lost create not yet reconciled");
    }

    #[test]
    fn resync_recreates_missing_and_drops_orphans() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let ids: Vec<CgroupId> = (0..4).map(|_| cgm.create(paper_spec())).collect();
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 4);
        // Simulate event loss in both directions: a removal whose event
        // vanishes (orphan namespace) and a creation whose event
        // vanishes (missing namespace).
        cgm.remove(ids[1]);
        let late = cgm.create(paper_spec());
        let _ = cgm.drain_events(); // events lost
        mon.sync(&mut cgm); // nothing to apply — monitor is now wrong
        assert!(mon.namespace(ids[1]).is_some(), "orphan still present");
        assert!(mon.namespace(late).is_none(), "new container missing");

        mon.resync(&mut cgm);
        assert!(mon.namespace(ids[1]).is_none(), "orphan survived resync");
        assert!(mon.namespace(late).is_some(), "missing ns not recreated");
        assert_eq!(mon.len(), 4);
    }

    #[test]
    fn resync_matches_from_scratch_sync() {
        // After arbitrary loss, a resynced monitor must agree with a
        // fresh monitor built from the same hierarchy via sync.
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        cgm.remove(a);
        let ids: Vec<CgroupId> = (0..3).map(|_| cgm.create(paper_spec())).collect();
        cgm.update(
            ids[0],
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(2.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(1)),
            ),
        );
        let _ = cgm.drain_events(); // every event lost
        mon.resync(&mut cgm);

        let (_, mut fresh, _, _, _) = testbed();
        // Replay the hierarchy into a fresh manager so `sync` sees it.
        let mut cgm2 = CgroupManager::new();
        // Burn ids so the two managers agree on numbering.
        let burned = cgm2.create(paper_spec());
        cgm2.remove(burned);
        for _ in 0..3 {
            cgm2.create(paper_spec());
        }
        cgm2.update(
            ids[0],
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(2.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(1)),
            ),
        );
        fresh.sync(&mut cgm2);

        assert_eq!(mon.len(), fresh.len());
        for id in &ids {
            let (r, f) = (mon.namespace(*id).unwrap(), fresh.namespace(*id).unwrap());
            assert_eq!(r.cpu_bounds(), f.cpu_bounds(), "{id:?} bounds differ");
            assert_eq!(r.effective_cpu(), f.effective_cpu());
            assert_eq!(r.effective_memory(), f.effective_memory());
        }
    }

    #[test]
    fn recover_resumes_views_from_snapshot_not_floor() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        for _ in 0..4 {
            cgm.create(paper_spec());
        }
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        for _ in 0..10 {
            mon.observe_tick();
            ledger.record(&cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]));
            mon.tick(&ledger, &mem);
        }
        assert_eq!(mon.effective_cpu(a), Some(10));
        let snap = mon.snapshot();
        assert_eq!(snap.get(a.0).unwrap().e_cpu, 10);

        // Cold restart: a fresh monitor would serve the 4-CPU floor.
        let (_, mut fresh, _, _, _) = testbed();
        let out = fresh.recover(&snap, &mut cgm);
        assert_eq!(out.restored, 5);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.admitted, 0);
        assert_eq!(
            fresh.effective_cpu(a),
            Some(10),
            "warm restart must resume the converged view"
        );
    }

    #[test]
    fn recover_reconciles_against_current_hierarchy() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        let mut snap = mon.snapshot();
        // Doctor the journal: claim `a` had converged to 16 CPUs —
        // beyond today's 10-CPU quota — and include a vanished
        // container.
        if let Some(e) = snap.entries.iter_mut().find(|e| e.id == a.0) {
            e.e_cpu = 16;
        }
        snap.entries.push(arv_persist::ViewState {
            id: 999,
            e_cpu: 8,
            e_mem: 1 << 30,
            e_avail: 1 << 29,
            last_tick: 0,
        });
        snap.entries.sort_by_key(|e| e.id);
        // Meanwhile a new container arrived that the journal never saw.
        let late = cgm.create(paper_spec());

        let (_, mut fresh, _, _, _) = testbed();
        let out = fresh.recover(&snap, &mut cgm);
        assert_eq!(out.restored, 2);
        assert_eq!(out.reconciled, 1, "16 CPUs clamped to the quota");
        assert_eq!(out.dropped, 1, "vanished container discarded");
        assert_eq!(out.admitted, 1, "late container admitted cold");
        assert_eq!(fresh.effective_cpu(a), Some(10), "clamped to fresh upper");
        assert!(fresh.namespace(b).is_some());
        let late_ns = fresh.namespace(late).unwrap();
        assert_eq!(
            late_ns.effective_cpu(),
            late_ns.cpu_bounds().lower,
            "unjournaled container starts at the floor"
        );
        assert!(fresh.namespace(CgroupId(999)).is_none());
    }

    #[test]
    fn recover_emits_restored_provenance() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        for _ in 0..4 {
            cgm.create(paper_spec());
        }
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        for _ in 0..10 {
            ledger.record(&cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]));
            mon.tick(&ledger, &mem);
        }
        let snap = mon.snapshot();
        let (_, mut fresh, _, _, _) = testbed();
        fresh.set_tracer(arv_telemetry::Tracer::bounded(64));
        fresh.recover(&snap, &mut cgm);
        let events = fresh.tracer().events();
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                arv_telemetry::EventKind::Pipeline(PipelineEvent::Restored)
            )),
            "restored pipeline event missing"
        );
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                arv_telemetry::EventKind::Cpu(d) if d.cause == DecisionCause::Restored
            )),
            "restored cpu decision missing"
        );
    }

    #[test]
    fn observe_tick_advances_and_updates_stamp_namespaces() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        assert_eq!(mon.namespace(a).unwrap().last_tick(), 0);
        for _ in 0..5 {
            mon.observe_tick();
        }
        assert_eq!(mon.now_tick(), 5);
        // The namespace has not been refreshed: its stamp lags.
        assert_eq!(mon.namespace(a).unwrap().last_tick(), 0);
        ledger.record(&cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]));
        mon.tick_window(&ledger, &mem);
        assert_eq!(mon.namespace(a).unwrap().last_tick(), 5);
    }

    #[test]
    fn limit_only_batch_refreshes_just_the_named_namespaces() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        mon.ingest(&pump(&mut cgm, &mut pipe), &cgm);
        // Knock `b`'s bounds off what its cgroup says; only a refresh
        // that reaches `b` puts them back.
        let stray = CpuBounds { lower: 1, upper: 1 };
        mon.namespace_mut(b).unwrap().set_cpu_bounds(stray);

        // A memory-only update to `a` keeps the share total: only `a`
        // is refreshed.
        let mem_only = CgroupSpec::new(
            CpuController::unlimited(20).with_quota_cpus(10.0),
            MemController::unlimited().with_hard_limit(Bytes::from_gib(2)),
        );
        cgm.update(a, mem_only);
        mon.ingest(&pump(&mut cgm, &mut pipe), &cgm);
        assert_eq!(mon.namespace(a).unwrap().hard_limit(), Bytes::from_gib(2));
        assert_eq!(mon.namespace(b).unwrap().cpu_bounds(), stray);

        // A share change moves the denominator: every namespace is
        // refreshed, `b` included.
        cgm.update(
            a,
            CgroupSpec::new(mem_only.cpu.with_shares(2048), mem_only.mem),
        );
        mon.ingest(&pump(&mut cgm, &mut pipe), &cgm);
        assert_eq!(
            mon.namespace(b).unwrap().cpu_bounds(),
            CpuBounds {
                lower: 7,
                upper: 10
            }
        );
    }

    #[test]
    fn limit_only_batch_with_a_gap_refreshes_everything() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        mon.ingest(&pump(&mut cgm, &mut pipe), &cgm);
        let limited = |gib| {
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(10.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(gib)),
            )
        };
        cgm.update(b, limited(1));
        cgm.update(a, limited(2));
        let mut events = pump(&mut cgm, &mut pipe);
        events.remove(0); // `b`'s update is lost in transit
        let rep = mon.ingest(&events, &cgm);
        assert!(rep.gap);
        // The gap makes the refresh full, so `b`'s change lands anyway.
        assert_eq!(mon.namespace(a).unwrap().hard_limit(), Bytes::from_gib(2));
        assert_eq!(mon.namespace(b).unwrap().hard_limit(), Bytes::from_gib(1));
    }
}

/// Differential check of [`NsMonitor::ingest`]'s incremental refresh
/// against the full refresh every applied batch used to run.
#[cfg(test)]
mod ingest_differential {
    use super::*;
    use arv_cfs::{CfsSim, GroupDemand};
    use arv_cgroups::{CpuController, EventPipe, MemController};
    use arv_mem::MemSimConfig;
    use arv_sim_core::SimDuration;
    use proptest::prelude::*;

    const P: SimDuration = SimDuration::from_millis(24);
    const MIB: u64 = 1 << 20;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Create {
            shares: u64,
            quota: f64,
        },
        /// Memory-only update: soft = hard / 2.
        MemLimits {
            pick: usize,
            hard_mib: u64,
        },
        /// Quota-only update.
        Quota {
            pick: usize,
            cpus: f64,
        },
        /// Share-changing update.
        Shares {
            pick: usize,
            shares: u64,
        },
        Remove {
            pick: usize,
        },
        /// Deliver the queued events, then run one update-timer firing.
        Tick {
            runnable: u32,
            charge_mib: u64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (2u64..4096, 1.0f64..16.0).prop_map(|(shares, quota)| Op::Create { shares, quota }),
            (0usize..64, 64u64..4096).prop_map(|(pick, hard_mib)| Op::MemLimits { pick, hard_mib }),
            (0usize..64, 1.0f64..16.0).prop_map(|(pick, cpus)| Op::Quota { pick, cpus }),
            (0usize..64, 2u64..4096).prop_map(|(pick, shares)| Op::Shares { pick, shares }),
            (0usize..64).prop_map(|pick| Op::Remove { pick }),
            // Listed twice: a tick delivers the batch, so batches stay
            // short enough that many hold only limit changes.
            (0u32..24, 0u64..256).prop_map(|(runnable, charge_mib)| Op::Tick {
                runnable,
                charge_mib
            }),
            (0u32..24, 0u64..256).prop_map(|(runnable, charge_mib)| Op::Tick {
                runnable,
                charge_mib
            }),
        ]
    }

    /// `ingest` with every applied batch refreshing every namespace.
    fn ingest_full(mon: &mut NsMonitor, events: &[SeqEvent], cgm: &CgroupManager) {
        let (report, _) = mon.apply_events(events, cgm);
        if report.applied > 0 {
            mon.recompute_all(cgm, DecisionCause::StaticRefresh);
        }
    }

    fn assert_same(inc: &NsMonitor, full: &NsMonitor) {
        assert_eq!(inc.len(), full.len());
        for (id, ns) in &inc.namespaces {
            let other = full.namespaces.get(id).expect("same membership");
            // Bounds, limits, views, prediction history and stamp.
            assert_eq!(format!("{ns:?}"), format!("{other:?}"), "{id:?} diverged");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_ingest_matches_full_refresh(ops in prop::collection::vec(op(), 1..96)) {
            let cfs = CfsSim::with_cpus(20);
            let mut mem = MemSim::new(MemSimConfig::paper_testbed());
            let mut cgm = CgroupManager::new();
            let mut pipe = EventPipe::new(1024);
            let mut ledger = UsageLedger::new();
            let mut inc = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());
            let mut full = inc.clone();
            inc.set_tracer(Tracer::bounded(1 << 16));
            full.set_tracer(Tracer::bounded(1 << 16));
            let mut live: Vec<(CgroupId, CgroupSpec)> = Vec::new();

            for op in ops.iter().copied().chain([Op::Tick { runnable: 4, charge_mib: 0 }]) {
                let mut update = |live: &mut Vec<(CgroupId, CgroupSpec)>,
                                  pick: usize,
                                  f: &dyn Fn(CgroupSpec) -> CgroupSpec| {
                    if live.is_empty() {
                        return;
                    }
                    let i = pick % live.len();
                    let (id, spec) = live[i];
                    let next = f(spec);
                    cgm.update(id, next);
                    mem.set_limits(id, next.mem);
                    live[i].1 = next;
                };
                match op {
                    Op::Create { shares, quota } => {
                        let spec = CgroupSpec::new(
                            CpuController::unlimited(20)
                                .with_shares(shares)
                                .with_quota_cpus(quota),
                            MemController::unlimited(),
                        );
                        let id = cgm.create(spec);
                        mem.register(id, spec.mem);
                        live.push((id, spec));
                    }
                    Op::MemLimits { pick, hard_mib } => update(&mut live, pick, &|s| {
                        CgroupSpec::new(
                            s.cpu,
                            MemController::unlimited()
                                .with_hard_limit(Bytes(hard_mib * MIB))
                                .with_soft_limit(Bytes(hard_mib / 2 * MIB)),
                        )
                    }),
                    Op::Quota { pick, cpus } => update(&mut live, pick, &|s| {
                        CgroupSpec::new(s.cpu.with_quota_cpus(cpus), s.mem)
                    }),
                    Op::Shares { pick, shares } => update(&mut live, pick, &|s| {
                        CgroupSpec::new(s.cpu.with_shares(shares), s.mem)
                    }),
                    Op::Remove { pick } => {
                        if !live.is_empty() {
                            let (id, _) = live.remove(pick % live.len());
                            cgm.remove(id);
                            mem.unregister(id);
                            ledger.forget(id);
                        }
                    }
                    Op::Tick { runnable, charge_mib } => {
                        for ev in cgm.drain_events() {
                            pipe.push(ev);
                        }
                        let events = pipe.drain();
                        let rep = inc.ingest(&events, &cgm);
                        ingest_full(&mut full, &events, &cgm);
                        prop_assert!(!rep.gap);
                        assert_same(&inc, &full);

                        let demands: Vec<GroupDemand> = live
                            .iter()
                            .map(|(id, s)| {
                                GroupDemand::cpu_bound(*id, runnable, s.cpu.shares, 20.0)
                            })
                            .collect();
                        for (id, _) in &live {
                            let _ = mem.charge(*id, Bytes(charge_mib * MIB));
                        }
                        ledger.record(&cfs.allocate(P, &demands));
                        for mon in [&mut inc, &mut full] {
                            mon.observe_tick();
                            mon.tick_window(&ledger, &mem);
                        }
                        ledger.reset_window();
                        assert_same(&inc, &full);
                    }
                }
            }
            prop_assert_eq!(inc.tracer().dropped_events(), 0);
            prop_assert_eq!(inc.tracer().events(), full.tracer().events());
        }
    }
}
