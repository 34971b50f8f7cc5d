//! Property-based invariants over the full stack: whatever the container
//! mix and load pattern, the views stay inside their bounds, accounting
//! balances, and physical memory is never oversubscribed. One more case
//! holds the paper's view invariants at 20k containers, where a per-tick
//! cost that grows with N² would show.

use arv_cfs::{CfsSim, GroupDemand, UsageLedger};
use arv_cgroups::{
    Bytes, CgroupId, CgroupManager, CgroupSpec, CpuController, EventPipe, MemController,
};
use arv_container::{ContainerSpec, SimHost};
use arv_mem::{MemSim, MemSimConfig};
use arv_resview::NsMonitor;
use arv_sim_core::SimDuration;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ContainerPlan {
    quota: Option<f64>,
    shares: u64,
    hard_mib: Option<u64>,
    runnable: Vec<u32>,
    charge_mib: Vec<u16>,
}

fn plan_strategy() -> impl Strategy<Value = ContainerPlan> {
    (
        prop::option::of(1.0f64..16.0),
        2u64..4096,
        prop::option::of(256u64..4096),
        prop::collection::vec(0u32..32, 8..24),
        prop::collection::vec(0u16..200, 8..24),
    )
        .prop_map(
            |(quota, shares, hard_mib, runnable, charge_mib)| ContainerPlan {
                quota,
                shares,
                hard_mib,
                runnable,
                charge_mib,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn views_and_accounting_hold_for_arbitrary_mixes(
        plans in prop::collection::vec(plan_strategy(), 1..6)
    ) {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut spec = ContainerSpec::new(format!("c{i}"), 20).cpu_shares(p.shares);
                if let Some(q) = p.quota {
                    spec = spec.cpus(q);
                }
                if let Some(h) = p.hard_mib {
                    spec = spec.memory(Bytes::from_mib(h));
                }
                host.launch(&spec)
            })
            .collect();

        let steps = plans.iter().map(|p| p.runnable.len()).max().unwrap();
        for step in 0..steps {
            let mut demands = Vec::new();
            for (id, p) in ids.iter().zip(&plans) {
                let runnable = *p.runnable.get(step % p.runnable.len()).unwrap();
                if runnable > 0 {
                    demands.push(host.demand(*id, runnable));
                }
                let charge = *p.charge_mib.get(step % p.charge_mib.len()).unwrap();
                let _ = host.charge(*id, Bytes::from_mib(u64::from(charge)));
            }
            host.step(&demands);

            let mut resident_total = Bytes::ZERO;
            for (id, p) in ids.iter().zip(&plans) {
                // 1. Effective CPU within its namespace bounds.
                let ns = host.monitor().namespace(*id).unwrap();
                let e = ns.effective_cpu();
                let b = ns.cpu_bounds();
                prop_assert!(e >= b.lower && e <= b.upper, "E_CPU {e} outside {b:?}");

                // 2. Effective memory within [soft, hard].
                let e_mem = host.effective_memory(*id);
                let hard = p
                    .hard_mib
                    .map(Bytes::from_mib)
                    .unwrap_or_else(|| host.total_memory());
                prop_assert!(e_mem <= hard, "E_MEM {e_mem} above hard {hard}");

                // 3. Hard limit enforced on resident memory.
                let resident = host.memory_usage(*id);
                prop_assert!(resident <= hard, "resident {resident} above hard {hard}");
                resident_total += resident;
            }
            // 4. Physical memory never oversubscribed.
            prop_assert!(resident_total <= host.total_memory());
            prop_assert_eq!(
                host.free_memory(),
                host.total_memory() - resident_total
            );
        }

        // 5. Termination releases everything.
        for id in ids {
            host.terminate(id);
        }
        prop_assert_eq!(host.free_memory(), host.total_memory());
        prop_assert_eq!(host.container_count(), 0);
    }

    #[test]
    fn sysconf_is_always_consistent_with_the_namespace(
        n in 1u32..8,
        loads in prop::collection::vec(0u32..24, 4..16),
    ) {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = (0..n)
            .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20)))
            .collect();
        for (step, load) in loads.iter().enumerate() {
            let id = ids[step % ids.len()];
            if *load > 0 {
                let d = host.demand(id, *load);
                host.step(&[d]);
            } else {
                host.step(&[]);
            }
            for id in &ids {
                let via_sysconf =
                    host.sysconf(Some(*id), arv_resview::Sysconf::NprocessorsOnln) as u32;
                prop_assert_eq!(via_sysconf, host.effective_cpu(*id));
                let mem_pages = host.sysconf(Some(*id), arv_resview::Sysconf::PhysPages);
                prop_assert_eq!(
                    mem_pages * arv_resview::PAGE_SIZE,
                    host.effective_memory(*id).as_u64() / arv_resview::PAGE_SIZE
                        * arv_resview::PAGE_SIZE
                );
            }
        }
    }
}

/// The paper's view invariants at 20k containers, on the monitor layer
/// alone (cgroups, memory, CFS, ledger and `NsMonitor`; no daemon):
/// after every update-timer firing, lower ≤ E_CPU ≤ upper,
/// soft ≤ E_MEM ≤ hard, and E_CPU moved at most one CPU. A hot set runs
/// with slack for eight firings (views grow), then every container runs
/// and slack vanishes (views shrink). Memory-only `docker update`s land
/// between firings through the sequence-numbered event pipe.
#[test]
fn view_invariants_hold_at_twenty_thousand_containers() {
    const N: u32 = 20_000;
    const FIRINGS: u32 = 16;
    const HOT: u32 = 24;
    const P: SimDuration = SimDuration::from_millis(24);
    let cfs = CfsSim::with_cpus(128);
    let mut mem = MemSim::new(MemSimConfig::with_total(Bytes::from_gib(4096)));
    let mut cgm = CgroupManager::new();
    let mut pipe = EventPipe::new(N as usize + 64);
    let mut ledger = UsageLedger::new();
    let mut mon = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());

    let mem_limits = |hard_mib: u64| {
        MemController::unlimited()
            .with_hard_limit(Bytes::from_mib(hard_mib))
            .with_soft_limit(Bytes::from_mib(hard_mib / 2))
    };
    let ids: Vec<CgroupId> = (0..N)
        .map(|i| {
            let cpu = CpuController::unlimited(128)
                .with_shares(512 + u64::from(i % 4) * 512)
                .with_quota_cpus(f64::from(2 + i % 15));
            let mem_ctl = mem_limits(256 + u64::from(i % 8) * 256);
            let id = cgm.create(CgroupSpec::new(cpu, mem_ctl));
            mem.register(id, mem_ctl);
            id
        })
        .collect();
    let mut deliver = |cgm: &mut CgroupManager, mon: &mut NsMonitor| {
        for ev in cgm.drain_events() {
            pipe.push(ev);
        }
        let report = mon.ingest(&pipe.drain(), cgm);
        assert!(!report.gap && report.duplicates == 0);
    };
    deliver(&mut cgm, &mut mon);
    assert_eq!(mon.len(), N as usize);

    let hot: Vec<usize> = (0..HOT).map(|h| (h * (N / HOT)) as usize).collect();
    let mut hot_total: Vec<u32> = Vec::new();
    let mut prev_cpu: Vec<u32> = ids
        .iter()
        .map(|id| mon.effective_cpu(*id).unwrap())
        .collect();
    for firing in 0..FIRINGS {
        let demands: Vec<GroupDemand> = if firing < FIRINGS / 2 {
            hot.iter()
                .map(|h| {
                    let id = ids[*h];
                    let _ = mem.charge(id, Bytes::from_mib(64));
                    GroupDemand::cpu_bound(id, 4, 1024, 16.0)
                })
                .collect()
        } else {
            ids.iter()
                .map(|id| GroupDemand::cpu_bound(*id, 1, 1024, 16.0))
                .collect()
        };
        ledger.record(&cfs.allocate(P, &demands));
        mon.observe_tick();
        mon.tick_window(&ledger, &mem);
        ledger.reset_window();

        for (i, id) in ids.iter().enumerate() {
            let ns = mon.namespace(*id).unwrap();
            let (e, b) = (ns.effective_cpu(), ns.cpu_bounds());
            assert!(
                e >= b.lower && e <= b.upper,
                "{id:?}: E_CPU {e} outside {b:?}"
            );
            assert!(
                e.abs_diff(prev_cpu[i]) <= 1,
                "{id:?}: E_CPU moved {} -> {e} in one firing",
                prev_cpu[i]
            );
            let m = ns.effective_memory();
            assert!(
                m >= ns.soft_limit() && m <= ns.hard_limit(),
                "{id:?}: E_MEM {m} outside [{}, {}]",
                ns.soft_limit(),
                ns.hard_limit()
            );
            prev_cpu[i] = e;
        }

        // A few memory-only updates between firings: the share total is
        // unchanged, so only these namespaces are refreshed.
        for k in 0..4 {
            let id = ids[((firing * 4 + k) * 997 % N) as usize];
            let spec = CgroupSpec::new(
                cgm.get(id).unwrap().cpu,
                mem_limits(512 + u64::from(k) * 256),
            );
            cgm.update(id, spec);
            mem.set_limits(id, spec.mem);
        }
        deliver(&mut cgm, &mut mon);
        hot_total.push(hot.iter().map(|i| prev_cpu[*i]).sum());
    }
    // The hot set grew while slack lasted, and the all-busy firings
    // pulled it back down.
    let (start, peak, end) = (hot_total[0], hot_total[7], hot_total[15]);
    assert!(peak > start && end < peak, "hot-set E_CPU {hot_total:?}");
}
