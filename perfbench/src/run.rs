//! The measured loop and the phases of one run.
//!
//! Untraced (`--trace 0`): set the main host up three times (median =
//! `setup_s`), run the loop on the scale-probe host (`large / 8`
//! containers) and then on the main host, and report the end-to-end
//! metrics. Traced (`--trace 1`): set up once, run half the time
//! untraced and half traced with the per-layer replay, then repeat the
//! back-to-back tick with consumers attached one at a time.
//!
//! One loop iteration is one update-timer period: step the host and
//! deliver fleet frames (timed as the tick), check the fleet rollup
//! against the monitor, run a read window on both connections, then
//! apply the tick's launches and `docker update`s, each followed over
//! the wire until the new view shows.
//!
//! A period in which the hypervisor stole CPU time from the VM (the
//! `steal` column of `/proc/stat` moved) counts in the checks but not
//! in the timings. The `*_p90` tails are medians of block-wise p90s
//! (see [`Blocked`]), and `reads_per_s` comes from each connection's
//! request cycle, averaged between its p10 and p90.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arv_resview::PAGE_SIZE;
use arv_viewd::wire::KIND_SYSCONF;
use arv_viewd::MetricsSnapshot;

use crate::gen::{KeyStream, Workload, PERIOD_MS};
use crate::probe::{steal_ticks, Speedometer, REF_US};
use crate::readers::{Conn, Job, ReadStats, ReaderThread, Until};
use crate::rig::{Attach, Rig};
use crate::shadow::Shadow;
use crate::spans::{self_times_by_name, Recorder};
use crate::stats::{Blocked, Samples};

/// Whether an untraced run has set up often enough: at least
/// `MIN_SETUPS` times, and more (up to `MAX_SETUPS`) while the set-ups
/// so far took under `SETUP_BUDGET_S` in total. `setup_s` is their
/// median.
fn setups_done(reps: usize, spent_s: f64) -> bool {
    const MIN_SETUPS: usize = 3;
    const MAX_SETUPS: usize = 60;
    const SETUP_BUDGET_S: f64 = 2.0;
    reps >= MAX_SETUPS || (reps >= MIN_SETUPS && spent_s >= SETUP_BUDGET_S)
}
/// Readers stop this long before a paced tick is due, leaving room for
/// the tick's limit changes.
const READ_MARGIN: Duration = Duration::from_millis(2);
/// The paper's bounds are checked for every container every this many ticks.
const BOUNDS_EVERY: u64 = 8;
/// Back-to-back ticks per consumer configuration in the traced run.
const ATTACH_TICKS: usize = 30;
/// Samples per block of the block-wise p90s (see [`Blocked`]): ticks,
/// wire round trips, and limit updates.
const TICK_BLOCK: usize = 16;
const READ_BLOCK: usize = 256;
const UPDATE_BLOCK: usize = 64;
/// Stolen periods stay in the timings when fewer than this many
/// periods were free of steal.
const MIN_CLEAN_PERIODS: u64 = 10;

fn period() -> Duration {
    Duration::from_millis(PERIOD_MS)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Measured workload properties and other report lines.
    pub lines: Vec<String>,
    pub notes: Vec<String>,
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p90", "ms"),
    ("tick_exponent", "ratio"),
    ("read_us_p50", "us"),
    ("read_us_p90", "us"),
    ("reads_per_s", "1/s"),
    ("inproc_read_ns_p50", "ns"),
    ("propagate_us_p50", "us"),
    ("propagate_us_p90", "us"),
    ("fleet_visible_ms_p50", "ms"),
    ("fleet_visible_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("cfs.allocate_us", "us"),
    ("ledger.record_us", "us"),
    ("mem.kswapd_us", "us"),
    ("monitor.tick_us", "us"),
    ("monitor.tick_ns_per_container", "ns"),
    ("monitor.snapshot_us", "us"),
    ("monitor.views_changed_share", "ratio"),
    ("monitor.ingest_us", "us"),
    ("monitor.events_per_update", "count"),
    ("host.launch_us.small", "us"),
    ("host.launch_us.large", "us"),
    ("host.update_limits_us", "us"),
    ("viewd.mirror_us", "us"),
    ("viewd.publishes_per_tick", "count"),
    ("viewd.publish_useful_ratio", "ratio"),
    ("viewd.read_ns", "ns"),
    ("viewd.render_ns", "ns"),
    ("viewd.cache_hit_ratio", "ratio"),
    ("wire.overhead_us", "us"),
    ("wire.shed", "count"),
    ("wire.errors", "count"),
    ("persist.journal_us", "us"),
    ("persist.records_per_tick", "count"),
    ("persist.bytes_per_tick", "B"),
    ("persist.useful_ratio", "ratio"),
    ("periphery.observe_us", "us"),
    ("periphery.delta_entries_per_tick", "count"),
    ("controller.ingest_us", "us"),
    ("controller.rollup_us", "us"),
    ("bench.tick_late_ms", "ms"),
    ("bench.reads_per_tick", "count"),
    ("bench.failed_share", "ratio"),
    ("trace.step_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_step_us", "us"),
    ("trace.overhead_read_us", "us"),
    ("attach.none_step_us", "us"),
    ("attach.viewd_us", "us"),
    ("attach.journal_us", "us"),
    ("attach.periphery_us", "us"),
    ("attach.all_us", "us"),
    ("attach.sum_of_parts_us", "us"),
];

impl Outcome {
    /// Record a metric; its unit comes from the metric tables.
    fn put(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is in no table"))
            .1;
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Metrics in the order of `table`; panics if one is missing.
    pub fn ordered(&self, table: &[(&str, &str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|(name, _)| {
                self.metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .clone()
            })
            .collect()
    }
}

/// What one loop over a rig measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub ticks: u64,
    /// Periods left out of the timings because CPU time was stolen in
    /// them.
    pub periods_stolen: u64,
    /// Whether they were kept, for want of periods without steal.
    pub stolen_kept: bool,
    /// Ticks after which kswapd was reclaiming.
    pub reclaim_ticks: u64,
    /// The main thread's speedometer walks, µs.
    pub walks_us: Samples,
    /// Step plus fleet delivery, wall ms.
    pub tick_wall_ms: Samples,
    /// Step plus fleet delivery, ms.
    pub tick_ms: Blocked,
    /// Step alone, µs.
    pub step_us: Samples,
    /// How late each step started against its schedule, wall ms.
    pub late_ms: Samples,
    pub reads: ReadStats,
    /// Request cycles of the main thread's and the reader thread's
    /// connection, µs.
    pub conn_cycle_us: [Samples; 2],
    /// Every wire round trip, reads and propagation polls, in the order
    /// they ended, µs.
    pub wire_rtt_us: Blocked,
    pub propagate_us: Blocked,
    pub fleet_visible_ms: Blocked,
    pub update_us: Samples,
    pub ctl_ingest_us: Samples,
    pub rollup_us: Samples,
    pub changed_share: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    // Traced loop only.
    pub publishes: Samples,
    pub useful_publish: Samples,
    pub journal_records: Samples,
    pub journal_bytes: Samples,
    pub journal_useful: Samples,
    pub periphery_entries: Samples,
}

impl LoopStats {
    fn new() -> LoopStats {
        LoopStats {
            tick_ms: Blocked::new(TICK_BLOCK),
            wire_rtt_us: Blocked::new(READ_BLOCK),
            propagate_us: Blocked::new(UPDATE_BLOCK),
            fleet_visible_ms: Blocked::new(UPDATE_BLOCK),
            ..LoopStats::default()
        }
    }

    /// Closed-loop throughput: each connection completes one request per
    /// mean request cycle, the mean taken between the cycles' p10 and
    /// p90. The trim drops cycles the VM lost its CPU in; a mean rather
    /// than a median because the cycles spread wide (p10 about half the
    /// median), so the median jumps with small shifts in their mix.
    fn reads_per_s(&mut self) -> f64 {
        self.conn_cycle_us
            .iter_mut()
            .filter(|c| c.len() > 0)
            .map(|c| 1e6 / c.trimmed_mean(10.0, 90.0))
            .sum()
    }

    fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = ok {
            self.failed += 1;
            self.note(msg);
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Add another loop's stats (one period's, as a rule): its checks
    /// always, its timings and workload properties when `timings`.
    /// Read checks move into this loop's own counts.
    fn absorb(&mut self, o: LoopStats, timings: bool) {
        self.attempted += o.attempted + o.reads.attempted;
        self.failed += o.failed + o.reads.failed;
        self.reads.io_errors += o.reads.io_errors;
        for msg in o.notes.into_iter().chain(o.reads.notes) {
            self.note(msg);
        }
        if !timings {
            return;
        }
        self.ticks += o.ticks;
        self.reclaim_ticks += o.reclaim_ticks;
        self.tick_wall_ms.extend(&o.tick_wall_ms);
        self.tick_ms.extend(&o.tick_ms.all);
        self.step_us.extend(&o.step_us);
        self.late_ms.extend(&o.late_ms);
        self.reads.rtt_us.extend(&o.reads.rtt_us);
        self.reads.inproc_ns.extend(&o.reads.inproc_ns);
        for (mine, theirs) in self.conn_cycle_us.iter_mut().zip(&o.conn_cycle_us) {
            mine.extend(theirs);
        }
        self.wire_rtt_us.extend(&o.wire_rtt_us.all);
        self.propagate_us.extend(&o.propagate_us.all);
        self.fleet_visible_ms.extend(&o.fleet_visible_ms.all);
        self.update_us.extend(&o.update_us);
        self.ctl_ingest_us.extend(&o.ctl_ingest_us);
        self.rollup_us.extend(&o.rollup_us);
        self.changed_share.extend(&o.changed_share);
        self.publishes.extend(&o.publishes);
        self.useful_publish.extend(&o.useful_publish);
        self.journal_records.extend(&o.journal_records);
        self.journal_bytes.extend(&o.journal_bytes);
        self.journal_useful.extend(&o.journal_useful);
        self.periphery_entries.extend(&o.periphery_entries);
    }
}

/// Counters read around a traced step.
struct Counters {
    generations: u64,
    journal_len: usize,
    periphery_entries: u64,
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        let client = rig.server.as_ref().map(|s| s.client());
        Counters {
            generations: client.map_or(0, |c| {
                rig.slots.iter().filter_map(|id| c.generation(*id)).sum()
            }),
            journal_len: rig.host.journal_bytes().map_or(0, <[u8]>::len),
            periphery_entries: rig.host.periphery().map_or(0, |p| p.stats().entries),
        }
    }
}

/// Follow one `docker update` until the new view shows over the wire.
#[allow(clippy::too_many_arguments)]
fn update_and_follow(
    rig: &mut Rig,
    slot: usize,
    conn: &mut Conn,
    sm: &mut Speedometer,
    shadow: Option<&mut Shadow>,
    sample_ingest: bool,
    rec: &mut Recorder,
    parent: Option<u64>,
    st: &mut LoopStats,
    pending: &mut Vec<Instant>,
) {
    let id = rig.slots[slot];
    let before = rig.view(id);
    let pre_update = (shadow.is_some() && sample_ingest).then(|| rig.host.monitor().clone());
    let f = sm.factor();
    let s0 = rec.now_ns();
    let t0 = Instant::now();
    let spec = rig.update(slot);
    st.update_us.push(us(t0.elapsed()));
    let upd = rec.record(
        "host.update_limits",
        s0,
        rec.now_ns(),
        parent,
        u64::from(id.0),
    );
    if let Some(sh) = shadow {
        sh.on_update(id, &spec, pre_update, rec, Some(upd));
    }
    pending.push(t0);
    let after = rig.view(id);
    if after == before {
        return; // only updates that moved the view count
    }
    let (key, want, old) = if after.1 != before.1 {
        ("phys_pages", after.1 / PAGE_SIZE, before.1 / PAGE_SIZE)
    } else {
        ("nprocessors_onln", u64::from(after.0), u64::from(before.0))
    };
    loop {
        let s1 = rec.now_ns();
        let t = Instant::now();
        let reply = conn.client.request(KIND_SYSCONF, Some(id), key);
        let rtt = us(t.elapsed()) * f;
        st.wire_rtt_us.push(rtt);
        rec.record("wire.request", s1, rec.now_ns(), Some(upd), u64::from(id.0));
        let value = match &reply {
            Ok(Some(r)) if !r.shed && !r.degraded => std::str::from_utf8(&r.body)
                .ok()
                .and_then(|s| s.parse::<u64>().ok()),
            _ => None,
        };
        if value == Some(want) {
            st.propagate_us.push(us(t0.elapsed()) * f);
            st.check(Ok(()));
            return;
        }
        if value != Some(old) {
            st.check(Err(format!(
                "update of {id:?}: {key} read {value:?}, want {old} or {want}"
            )));
            return;
        }
        if t0.elapsed() > period() {
            st.check(Err(format!(
                "update of {id:?}: {key} not visible within one period"
            )));
            return;
        }
    }
}

/// Run the loop on `rig` for `secs`.
fn drive(
    rig: &mut Rig,
    opts: &Opts,
    secs: f64,
    mut shadow: Option<&mut Shadow>,
    rec: &mut Recorder,
    epoch: Instant,
) -> std::io::Result<LoopStats> {
    let w = rig.w;
    let n = rig.slots.len();
    let sock: PathBuf = rig.socket().expect("the loop needs the wire server").into();
    let mut conn = Conn::connect(&sock, KeyStream::new(opts.seed, 0, n), 1)?;
    let reader = ReaderThread::spawn(
        Conn::connect(&sock, KeyStream::new(opts.seed, 1, n), 2)?,
        Recorder::new(epoch, 2, rec.enabled()),
    );
    let vc = rig.server.as_ref().expect("viewd attached").client();
    let mut inproc_keys = KeyStream::new(opts.seed, 2, n);
    let tracing = shadow.is_some();

    let mut st = LoopStats::new();
    let mut stolen = LoopStats::new();
    let mut prev_views = rig.view_states();
    let mut pending: Vec<Instant> = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut due = Instant::now();
    let mut sm = Speedometer::new();
    while Instant::now() < end {
        // When this period's step is scheduled: on the 24 ms grid when
        // paced, else as soon as the previous period ends.
        let mut slept = Duration::ZERO;
        let scheduled = if w.paced {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                slept = now.elapsed();
            }
            let scheduled = due;
            due += period();
            scheduled
        } else {
            Instant::now()
        };
        let mut it = LoopStats::new();
        let steal0 = steal_ticks();
        let iter = rec.open("period", None, rig.tick);
        rig.advance_cycle();
        let demands = rig.demands();
        let pre = tracing.then(|| Shadow::pre_step(rig));
        let before = tracing.then(|| Counters::read(rig));

        it.late_ms
            .push(ms(Instant::now().saturating_duration_since(scheduled)));
        let f = sm.factor();
        let tick_span = rec.open("tick", iter, rig.tick);
        let t = rig.step(&demands, rec, tick_span);
        let delivered = Instant::now();
        rec.close(tick_span);
        if rig.host.mem().is_reclaiming() {
            it.reclaim_ticks += 1;
        }
        it.ticks += 1;
        it.tick_ms.push(ms(t.total) * f);
        it.tick_wall_ms.push(ms(t.total));
        it.step_us.push(us(t.step));
        it.ctl_ingest_us.push(us(t.ingest));

        if let (Some(sh), Some(pre)) = (shadow.as_deref_mut(), pre) {
            let sp = rec.open("shadow", iter, rig.tick);
            sh.replay(rig, pre, &demands, rec, sp);
            rec.close(sp);
        }

        // The fleet rollup must equal the monitor's ground truth after
        // every tick; updates since the last tick are then visible.
        let truth = rig.fleet_truth();
        let s0 = rec.now_ns();
        let t0 = Instant::now();
        let rollup = rig.ctl.cluster_capacity();
        it.rollup_us.push(us(t0.elapsed()));
        rec.record("controller.cluster_capacity", s0, rec.now_ns(), iter, 0);
        if truth.matches(&rollup) {
            // The paced loop's wait for the scheduled tick is the
            // benchmark idling, not the program working, so it is left
            // out (and kept out of the reference-core scaling).
            for t0 in pending.drain(..) {
                it.fleet_visible_ms
                    .push(ms((delivered - t0).saturating_sub(slept)) * f);
            }
            it.check(Ok(()));
        } else {
            pending.clear();
            it.check(Err(format!(
                "tick {}: rollup {rollup:?} != monitor {truth:?}",
                rig.tick
            )));
        }

        let views = rig.view_states();
        let changed = views
            .iter()
            .filter(|(id, v)| prev_views.get(id) != Some(v))
            .count();
        it.changed_share.push(changed as f64 / n as f64);
        if let Some(b) = before {
            let a = Counters::read(rig);
            let publishes = a.generations.saturating_sub(b.generations) / 2;
            it.publishes.push(publishes as f64);
            if publishes > 0 {
                it.useful_publish.push(changed as f64 / publishes as f64);
            }
            if a.journal_len > b.journal_len {
                let bytes = &rig.host.journal_bytes().expect("journal attached")
                    [b.journal_len..a.journal_len];
                let records = arv_persist::decode_records(bytes).records.len();
                it.journal_records.push(records as f64);
                it.journal_bytes.push(bytes.len() as f64);
                if records > 0 {
                    it.journal_useful.push(changed as f64 / records as f64);
                }
            }
            it.periphery_entries
                .push(a.periphery_entries.saturating_sub(b.periphery_entries) as f64);
        }
        prev_views = views;

        if rig.tick.is_multiple_of(BOUNDS_EVERY) {
            let (checked, bad) = rig.check_bounds();
            it.attempted += checked;
            if bad > 0 {
                it.check(Err(format!(
                    "tick {}: {bad} views outside their bounds",
                    rig.tick
                )));
            }
        }

        let exp = Arc::new(rig.expected());
        let until = if w.paced {
            Until::Deadline(due - READ_MARGIN)
        } else {
            Until::Count(w.reads_per_tick)
        };
        reader.start(Job {
            exp: Arc::clone(&exp),
            until,
            parent: iter,
        });
        let mine = conn.burst(
            &exp,
            until,
            Some((&vc, &mut inproc_keys)),
            &mut sm,
            rec,
            iter,
        );
        let theirs = reader.wait();
        it.conn_cycle_us[0].extend(&mine.cycle_us);
        it.conn_cycle_us[1].extend(&theirs.cycle_us);
        it.wire_rtt_us.extend(&mine.rtt_us);
        it.wire_rtt_us.extend(&theirs.rtt_us);
        it.reads.absorb(mine);
        it.reads.absorb(theirs);

        // Limit changes land after the read window, so every reply in
        // the window is checked against one published state, and the
        // propagation polls find the serving threads awake.
        let ev = rig.inputs.tick_events(rig.tick);
        if let Some(slot) = ev.replace {
            let old = rig.slots[slot];
            let (spec, id) = rig.replace(slot);
            if let Some(sh) = shadow.as_deref_mut() {
                sh.on_replace(rig, old, &spec, id);
            }
        }
        for (i, slot) in ev.updates.iter().enumerate() {
            update_and_follow(
                rig,
                *slot,
                &mut conn,
                &mut sm,
                shadow.as_deref_mut(),
                i == 0,
                rec,
                iter,
                &mut it,
                &mut pending,
            );
        }
        rec.close(iter);
        if steal_ticks() == steal0 {
            st.absorb(it, true);
        } else {
            stolen.absorb(it, true);
        }
    }
    rec.absorb(reader.finish());
    // Periods in which the hypervisor gave this VM's CPUs to someone
    // else measure the host, not the program: their timings are left
    // out, unless that would leave too few periods to measure.
    st.periods_stolen = stolen.ticks;
    st.stolen_kept = st.ticks < MIN_CLEAN_PERIODS;
    st.absorb(stolen, st.stolen_kept);
    st.walks_us = sm.walks_us;
    if rig.oom > 0 {
        st.check(Err(format!("{} memory charges failed", rig.oom)));
    }
    Ok(st)
}

/// Median back-to-back step time (µs) of the main host with consumers
/// attached one at a time, and with none and all of them. The hosts
/// step in turn, so drift in machine speed hits every configuration
/// alike.
fn attach_costs(opts: &Opts, sock: &Path) -> std::io::Result<HashMap<&'static str, f64>> {
    let only = |viewd, journal, periphery| Attach {
        viewd,
        wire: false,
        journal,
        periphery,
    };
    let mut sm = Speedometer::new();
    let mut rigs = Vec::new();
    for (name, attach) in [
        ("none", only(false, false, false)),
        ("viewd", only(true, false, false)),
        ("journal", only(false, true, false)),
        ("periphery", only(false, false, true)),
        ("all", only(true, true, true)),
    ] {
        let (rig, _) = Rig::build(opts.w, opts.seed, opts.w.large, attach, sock, &mut sm)?;
        rigs.push((name, rig, Samples::new()));
    }
    let mut off = Recorder::new(Instant::now(), 0, false);
    for _ in 0..ATTACH_TICKS {
        for (_, rig, s) in rigs.iter_mut() {
            rig.advance_cycle();
            let demands = rig.demands();
            s.push(us(rig.step(&demands, &mut off, None).step));
        }
    }
    Ok(rigs
        .into_iter()
        .map(|(name, rig, mut s)| {
            rig.shutdown();
            (name, s.median())
        })
        .collect())
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn hit_ratio(before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    hits as f64 / (hits + misses).max(1) as f64
}

/// Properties of the inputs a run actually saw, for the report.
fn properties(out: &mut Outcome, st: &LoopStats, hit: f64) {
    out.lines.push(format!(
        "properties: views_changed_share={:.4} cache_hit_ratio={:.4} reads_per_tick={:.1} reclaim_tick_share={:.3} ticks={} stolen_periods={} ({})",
        st.changed_share.mean(),
        hit,
        st.reads.rtt_us.len() as f64 / st.ticks.max(1) as f64,
        st.reclaim_ticks as f64 / st.ticks.max(1) as f64,
        st.ticks,
        st.periods_stolen,
        if st.stolen_kept {
            "kept: too few periods without steal"
        } else {
            "left out of the timings"
        }
    ));
    let mut p = st.walks_us.clone();
    out.lines.push(format!(
        "machine: speedometer walk p10={:.1}us p50={:.1}us p90={:.1}us mean={:.1}us n={} (times below are reference-core: wall time x {REF_US}us / walk)",
        p.percentile(10.0),
        p.median(),
        p.percentile(90.0),
        p.mean(),
        p.len()
    ));
}

fn describe(out: &mut Outcome, label: &str, s: &Samples, unit: &str) {
    let mut s = s.clone();
    out.lines.push(format!("{label}: {}", s.describe(unit)));
}

pub fn run(opts: &Opts, work_dir: &Path) -> std::io::Result<Outcome> {
    let epoch = Instant::now();
    let w = opts.w;
    let sock = |tag: &str| work_dir.join(format!("viewd-{}-{tag}.sock", std::process::id()));
    let mut out = Outcome::default();
    let mut sm = Speedometer::new();
    let mut setups = Samples::new();
    let mut spent = 0.0;
    let mut main: Option<Rig> = None;
    while main.is_none() || (!opts.trace && !setups_done(setups.len(), spent)) {
        if let Some(old) = main.take() {
            old.shutdown();
        }
        let (rig, took) = Rig::build(w, opts.seed, w.large, Attach::ALL, &sock("large"), &mut sm)?;
        setups.push(took);
        spent += took;
        main = Some(rig);
    }
    let reps = setups.len();
    let mut rig = main.expect("at least one set-up");
    let setup_s = setups.median();

    let mut rec = Recorder::new(epoch, 1, opts.trace);
    let (mut small, _) = Rig::build(w, opts.seed, w.small, Attach::ALL, &sock("small"), &mut sm)?;
    if opts.trace {
        let mut out_t = trace_run(opts, &mut rig, &small, &mut rec, epoch, &sock("attach"))?;
        small.shutdown();
        rig.shutdown();
        let path = work_dir.join(format!("spans-{}-seed{}.jsonl", w.name, opts.seed));
        rec.write_jsonl(&path)?;
        out_t.lines.push(format!(
            "spans: {} written to {} ({} dropped)",
            rec.spans().len(),
            path.display(),
            rec.dropped()
        ));
        return Ok(out_t);
    }

    let small_st = drive(
        &mut small,
        opts,
        opts.seconds * w.small_share,
        None,
        &mut rec,
        epoch,
    )?;
    small.shutdown();
    let m0 = rig.server.as_ref().expect("viewd").metrics();
    let mut st = drive(
        &mut rig,
        opts,
        opts.seconds * (1.0 - w.small_share),
        None,
        &mut rec,
        epoch,
    )?;
    let m1 = rig.server.as_ref().expect("viewd").metrics();
    rig.shutdown();

    let small_p50 = small_st.tick_ms.all.clone().median();
    let large_p50 = st.tick_ms.all.median();
    let exponent = (large_p50 / small_p50).ln() / ((w.large as f64) / (w.small as f64)).ln();
    out.put("setup_s", setup_s);
    out.put("tick_ms_p50", large_p50);
    out.put("tick_ms_p90", st.tick_ms.p90());
    out.put("tick_exponent", exponent);
    out.put("read_us_p50", st.wire_rtt_us.all.median());
    out.put("read_us_p90", st.wire_rtt_us.p90());
    out.put("reads_per_s", st.reads_per_s());
    out.put("inproc_read_ns_p50", st.reads.inproc_ns.median());
    out.put("propagate_us_p50", st.propagate_us.all.median());
    out.put("propagate_us_p90", st.propagate_us.p90());
    out.put("fleet_visible_ms_p50", st.fleet_visible_ms.all.median());
    out.put("fleet_visible_ms_p90", st.fleet_visible_ms.p90());
    out.put("peak_rss_mib", peak_rss_mib());

    out.attempted = st.attempted + small_st.attempted;
    out.failed = st.failed + small_st.failed;
    out.notes = st.notes.clone();
    out.notes.extend(small_st.notes.iter().cloned());
    properties(&mut out, &st, hit_ratio(&m0, &m1));
    out.lines.push(format!(
        "setup: {} containers, median of {} set-ups: {setup_s:.3}s",
        w.large, reps
    ));
    describe(
        &mut out,
        &format!("tick at {}", w.small),
        &small_st.tick_ms.all,
        "ms",
    );
    describe(
        &mut out,
        &format!("tick at {}", w.large),
        &st.tick_ms.all,
        "ms",
    );
    describe(
        &mut out,
        &format!("tick at {}, wall time", w.large),
        &st.tick_wall_ms,
        "ms",
    );
    describe(&mut out, "wire read", &st.wire_rtt_us.all, "us");
    describe(
        &mut out,
        "in-process read per call",
        &st.reads.inproc_ns,
        "ns",
    );
    describe(&mut out, "propagate", &st.propagate_us.all, "us");
    describe(&mut out, "fleet visible", &st.fleet_visible_ms.all, "ms");
    out.lines.push(format!(
        "block p90s (median over blocks of {TICK_BLOCK} ticks / {READ_BLOCK} round trips / {UPDATE_BLOCK} updates): tick {:.3}ms over {} blocks, wire read {:.3}us over {}, propagate {:.3}us over {}, fleet visible {:.3}ms over {}",
        st.tick_ms.p90(),
        st.tick_ms.blocks(),
        st.wire_rtt_us.p90(),
        st.wire_rtt_us.blocks(),
        st.propagate_us.p90(),
        st.propagate_us.blocks(),
        st.fleet_visible_ms.p90(),
        st.fleet_visible_ms.blocks(),
    ));
    out.lines.push(format!(
        "request cycle per connection (p10-p90 mean): main {:.3}us, reader {:.3}us",
        st.conn_cycle_us[0].trimmed_mean(10.0, 90.0),
        st.conn_cycle_us[1].trimmed_mean(10.0, 90.0)
    ));
    Ok(out)
}

/// The traced run: per-layer metrics, reconciliation, overhead, and
/// the attach-one-at-a-time costs.
fn trace_run(
    opts: &Opts,
    rig: &mut Rig,
    small: &Rig,
    rec: &mut Recorder,
    epoch: Instant,
    attach_sock: &Path,
) -> std::io::Result<Outcome> {
    let w = opts.w;
    let n = w.large as f64;
    let mut out = Outcome::default();
    let mut off = Recorder::new(epoch, 3, false);
    let mut base = drive(rig, opts, opts.seconds / 2.0, None, &mut off, epoch)?;
    let mut shadow = Shadow::new(rig);
    let m0 = rig.server.as_ref().expect("viewd").metrics();
    let mut st = drive(rig, opts, opts.seconds / 2.0, Some(&mut shadow), rec, epoch)?;
    let m1 = rig.server.as_ref().expect("viewd").metrics();
    let layers = &shadow.times;

    let configs = attach_costs(opts, attach_sock)?;
    let none = configs["none"];

    for (name, v) in layers.step_layers() {
        out.put(name, v);
    }
    let snapshot = layers.monitor_snapshot.mean();
    out.put(
        "monitor.tick_ns_per_container",
        layers.monitor_tick.mean() * 1e3 / n,
    );
    out.put("monitor.views_changed_share", st.changed_share.mean());
    out.put("monitor.ingest_us", layers.monitor_ingest.mean());
    out.put("monitor.events_per_update", layers.events_per_update.mean());
    out.put("host.launch_us.small", small.launch_us.mean());
    out.put("host.launch_us.large", rig.launch_us.mean());
    out.put("host.update_limits_us", st.update_us.mean());
    out.put("viewd.publishes_per_tick", st.publishes.mean());
    out.put("viewd.publish_useful_ratio", st.useful_publish.mean());
    out.put("viewd.read_ns", m1.hit_latency_ns);
    out.put("viewd.render_ns", m1.miss_latency_ns);
    out.put("viewd.cache_hit_ratio", hit_ratio(&m0, &m1));
    let rtt = st.wire_rtt_us.all.mean();
    out.put("wire.overhead_us", rtt - m1.wire_latency_ns / 1e3);
    out.put("wire.shed", (m1.requests_shed - m0.requests_shed) as f64);
    out.put(
        "wire.errors",
        (m1.wire_errors - m0.wire_errors + st.reads.io_errors) as f64,
    );
    out.put("persist.records_per_tick", st.journal_records.mean());
    out.put("persist.bytes_per_tick", st.journal_bytes.mean());
    out.put("persist.useful_ratio", st.journal_useful.mean());
    out.put(
        "periphery.delta_entries_per_tick",
        st.periphery_entries.mean(),
    );
    out.put("controller.ingest_us", st.ctl_ingest_us.mean());
    out.put("controller.rollup_us", st.rollup_us.mean());
    out.put("bench.tick_late_ms", st.late_ms.mean());
    out.put(
        "bench.reads_per_tick",
        st.reads.rtt_us.len() as f64 / st.ticks.max(1) as f64,
    );
    let attempted = st.attempted + base.attempted;
    let failed = st.failed + base.failed;
    out.put(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );

    // Reconciliation: the step's layers plus the unattributed rest add
    // up to the traced step time.
    let step = st.step_us.mean();
    let attributed: f64 = layers.step_layers().iter().map(|(_, v)| v).sum();
    out.put("trace.step_us", step);
    out.put("trace.unattributed_us", step - attributed);
    out.put("trace.attributed_share", attributed / step);
    let mut base_step = base.step_us.clone();
    let mut traced_step = st.step_us.clone();
    out.put(
        "trace.overhead_step_us",
        traced_step.median() - base_step.median(),
    );
    out.put(
        "trace.overhead_read_us",
        st.wire_rtt_us.all.median() - base.wire_rtt_us.all.median(),
    );
    for (name, v) in [
        ("attach.none_step_us", none),
        ("attach.viewd_us", configs["viewd"] - none),
        ("attach.journal_us", configs["journal"] - none),
        ("attach.periphery_us", configs["periphery"] - none),
        ("attach.all_us", configs["all"] - none),
        (
            "attach.sum_of_parts_us",
            configs["viewd"] + configs["journal"] + configs["periphery"] - 3.0 * none,
        ),
    ] {
        out.put(name, v);
    }

    out.attempted = attempted;
    out.failed = failed;
    out.notes = base.notes;
    out.notes.extend(st.notes.iter().cloned());
    properties(&mut out, &st, hit_ratio(&m0, &m1));
    out.lines.push(format!(
        "reconcile: step {step:.1}us = layers {attributed:.1}us + rest {:.1}us",
        step - attributed
    ));
    for (name, v) in layers.step_layers() {
        out.lines.push(format!("  {name:<24} {v:>10.1}us"));
    }
    out.lines.push(format!(
        "consumers, attached alone vs replayed: viewd {:.1}us vs mirror {:.1}us; journal {:.1}us vs append+sync {:.1}us (+snapshot {snapshot:.1}us); periphery {:.1}us vs observe {:.1}us (+snapshot {snapshot:.1}us); all three {:.1}us",
        configs["viewd"] - none,
        layers.viewd_mirror.mean(),
        configs["journal"] - none,
        layers.journal.mean(),
        configs["periphery"] - none,
        layers.periphery_observe.mean(),
        configs["all"] - none,
    ));
    let self_ns = self_times_by_name(rec.spans());
    let mut by_name: Vec<_> = self_ns.into_iter().collect();
    by_name.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    out.lines.push(format!(
        "self time by span (traced half): {}",
        by_name
            .iter()
            .take(12)
            .map(|(k, v)| format!("{k}={:.1}ms", *v as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(out)
}
