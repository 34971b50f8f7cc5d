//! Readers: closed-loop wire requests and timed batches of in-process
//! `ViewClient` calls over the seeded key mix, each reply checked
//! against the views the host holds at that tick.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{render, Sysconf, PAGE_SIZE};
use arv_viewd::wire::{sysconf_key, WireClient, WireResponse, KIND_READ, KIND_SYSCONF};
use arv_viewd::ViewClient;

use crate::gen::{Caller, Key, KeyStream, Req};
use crate::probe::Speedometer;
use crate::rig::Expected;
use crate::spans::Recorder;
use crate::stats::Samples;

/// In-process calls per timed batch.
const INPROC_BATCH: usize = 32;
/// Wire requests between two in-process batches.
const INPROC_EVERY: usize = 8;

/// How long a read window lasts.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Count(usize),
    Deadline(Instant),
}

/// What one read window measured.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Wire round trips, reference-core microseconds.
    pub rtt_us: Samples,
    /// In-process per-call cost of each batch, reference-core
    /// nanoseconds.
    pub inproc_ns: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub io_errors: u64,
    /// Reference-core microseconds from the start of one wire request
    /// to when the next is ready to send on this connection: the closed
    /// loop's request cycle, reply check included.
    pub cycle_us: Samples,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl ReadStats {
    pub fn absorb(&mut self, other: ReadStats) {
        self.rtt_us.extend(&other.rtt_us);
        self.inproc_ns.extend(&other.inproc_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.io_errors += other.io_errors;
        for n in other.notes {
            self.note(n);
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    fn verdict(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = ok {
            self.failed += 1;
            self.note(msg);
        }
    }
}

fn caller_id(exp: &Expected, caller: Caller) -> Option<CgroupId> {
    match caller {
        Caller::Slot(s) => Some(CgroupId(exp.ids[s])),
        Caller::Host => None,
        Caller::Unknown(id) => Some(CgroupId(id)),
    }
}

/// Expected `sysconf` value and generation for `key`.
fn expect_sysconf(exp: &Expected, caller: Option<CgroupId>, name: &str) -> (u64, u64) {
    let page = PAGE_SIZE;
    match caller.and_then(|id| exp.views.get(&id.0)) {
        Some(v) => {
            let value = match name {
                "nprocessors_onln" => u64::from(v.cpus),
                "phys_pages" => v.mem / page,
                "avphys_pages" => v.avail / page,
                _ => page,
            };
            (value, v.generation)
        }
        None => {
            let h = &exp.host;
            let value = match name {
                "nprocessors_onln" => u64::from(h.online_cpus),
                "phys_pages" => h.total_memory.as_u64() / page,
                "avphys_pages" => h.free_memory.as_u64() / page,
                _ => page,
            };
            (value, 0)
        }
    }
}

/// Renders shared by many keys, cached by the values they depend on.
#[derive(Default)]
struct RenderCache {
    by_cpus: HashMap<(bool, u32), String>,
}

impl RenderCache {
    /// Expected file image and generation for `path` as `caller`.
    fn expect_read(
        &mut self,
        exp: &Expected,
        caller: Option<CgroupId>,
        path: &str,
    ) -> (String, u64) {
        let (cpus, mem, avail, generation) = match caller.and_then(|id| exp.views.get(&id.0)) {
            Some(v) => (v.cpus, v.mem, v.avail, v.generation),
            None => (
                exp.host.online_cpus,
                exp.host.total_memory.as_u64(),
                exp.host.free_memory.as_u64(),
                0,
            ),
        };
        let image = match path {
            "/proc/cpuinfo" | "/proc/stat" => {
                let stat = path == "/proc/stat";
                self.by_cpus
                    .entry((stat, cpus))
                    .or_insert_with(|| {
                        if stat {
                            render::stat(cpus)
                        } else {
                            render::cpuinfo(cpus)
                        }
                    })
                    .clone()
            }
            "/proc/meminfo" => render::meminfo(Bytes(mem), Bytes(avail)),
            "/sys/devices/system/cpu/online" => render::cpu_list(cpus),
            "cpu.max" => render::cpu_max(cpus, exp.host.cfs_period_us),
            _ => render::memory_max(Bytes(mem)),
        };
        (image, generation)
    }
}

/// Check one wire reply against the expected view.
fn check_wire(
    cache: &mut RenderCache,
    exp: &Expected,
    key: &Key,
    caller: Option<CgroupId>,
    reply: &Option<WireResponse>,
) -> Result<(), String> {
    let Some(r) = reply else {
        return Err(format!("{key:?}: not found"));
    };
    if r.shed || r.degraded {
        return Err(format!("{key:?}: shed={} degraded={}", r.shed, r.degraded));
    }
    let (ok, generation) = match key.req {
        Req::Sysconf(name) => {
            let (want, generation) = expect_sysconf(exp, caller, name);
            let got = std::str::from_utf8(&r.body)
                .ok()
                .and_then(|s| s.parse::<u64>().ok());
            (got == Some(want), generation)
        }
        Req::Read(path) => {
            let (want, generation) = cache.expect_read(exp, caller, path);
            (r.body == want.as_bytes(), generation)
        }
    };
    if !ok || r.generation != generation {
        return Err(format!(
            "{key:?}: wrong reply (generation {} want {generation})",
            r.generation
        ));
    }
    Ok(())
}

/// One wire request for `key`.
fn wire_request(
    client: &mut WireClient,
    caller: Option<CgroupId>,
    req: Req,
) -> std::io::Result<Option<WireResponse>> {
    match req {
        Req::Sysconf(name) => client.request(KIND_SYSCONF, caller, name),
        Req::Read(path) => client.request(KIND_READ, caller, path),
    }
}

/// Time a batch of in-process calls on the next keys, then check them.
/// Returns the wall nanoseconds per call.
fn inproc_batch(
    vc: &ViewClient,
    keys: &mut KeyStream,
    cache: &mut RenderCache,
    exp: &Expected,
    stats: &mut ReadStats,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> f64 {
    let batch: Vec<Key> = (0..INPROC_BATCH).map(|_| keys.next_key()).collect();
    let callers: Vec<Option<CgroupId>> = batch.iter().map(|k| caller_id(exp, k.caller)).collect();
    let queries: Vec<Option<Sysconf>> = batch
        .iter()
        .map(|k| match k.req {
            Req::Sysconf(name) => sysconf_key(name),
            Req::Read(_) => None,
        })
        .collect();
    let mut values = [0u64; INPROC_BATCH];
    let mut images = Vec::with_capacity(INPROC_BATCH);
    let s0 = rec.now_ns();
    let t = Instant::now();
    for i in 0..INPROC_BATCH {
        match (queries[i], batch[i].req) {
            (Some(q), _) => values[i] = vc.sysconf(callers[i], q),
            (None, Req::Read(path)) => images.push(vc.read(callers[i], path)),
            (None, Req::Sysconf(_)) => {}
        }
    }
    let per_call = t.elapsed().as_nanos() as f64 / INPROC_BATCH as f64;
    rec.record("viewd.inproc_batch", s0, rec.now_ns(), parent, 0);
    let mut images = images.into_iter();
    for i in 0..INPROC_BATCH {
        let ok = match batch[i].req {
            Req::Sysconf(name) => {
                let (want, _) = expect_sysconf(exp, callers[i], name);
                if values[i] == want {
                    Ok(())
                } else {
                    Err(format!(
                        "in-process {:?}: {} want {want}",
                        batch[i], values[i]
                    ))
                }
            }
            Req::Read(path) => {
                let (want, generation) = cache.expect_read(exp, callers[i], path);
                match images.next().flatten() {
                    Some(img)
                        if *img.image == want
                            && img.generation == generation
                            && !img.health.is_degraded() =>
                    {
                        Ok(())
                    }
                    other => Err(format!(
                        "in-process {:?}: wrong image (generation {:?})",
                        batch[i],
                        other.map(|i| i.generation)
                    )),
                }
            }
        };
        stats.verdict(ok);
    }
    per_call
}

/// One connection's request source.
pub struct Conn {
    pub client: WireClient,
    keys: KeyStream,
    cache: RenderCache,
    next_req: u64,
    tag: u64,
}

impl Conn {
    pub fn connect(sock: &Path, keys: KeyStream, tag: u64) -> std::io::Result<Conn> {
        Ok(Conn {
            client: WireClient::connect(sock)?,
            keys,
            cache: RenderCache::default(),
            next_req: 0,
            tag,
        })
    }

    /// A request id unique across connections.
    fn req_id(&mut self) -> u64 {
        self.next_req += 1;
        (self.tag << 40) | self.next_req
    }

    /// Closed-loop wire requests until `until`, one in flight. With
    /// `inproc`, a timed batch of in-process calls follows every few
    /// wire requests.
    pub fn burst(
        &mut self,
        exp: &Expected,
        until: Until,
        inproc: Option<(&ViewClient, &mut KeyStream)>,
        sm: &mut Speedometer,
        rec: &mut Recorder,
        parent: Option<u64>,
    ) -> ReadStats {
        let mut stats = ReadStats::default();
        let mut inproc = inproc;
        let mut last_start: Option<(Instant, f64)> = None;
        let mut done = 0usize;
        loop {
            match until {
                Until::Count(n) if done >= n => break,
                Until::Deadline(d) if Instant::now() >= d => break,
                _ => {}
            }
            let key = self.keys.next_key();
            let caller = caller_id(exp, key.caller);
            let req = self.req_id();
            // The cycle ends when the next request is ready, before a
            // speedometer re-timing.
            let ready = Instant::now();
            if let Some((t_prev, f_prev)) = last_start {
                stats
                    .cycle_us
                    .push((ready - t_prev).as_secs_f64() * 1e6 * f_prev);
            }
            let f = sm.factor();
            let s0 = rec.now_ns();
            let t = Instant::now();
            last_start = Some((t, f));
            let reply = wire_request(&mut self.client, caller, key.req);
            let rtt = t.elapsed();
            rec.record("wire.request", s0, rec.now_ns(), parent, req);
            done += 1;
            match reply {
                Ok(reply) => {
                    stats.rtt_us.push(rtt.as_secs_f64() * 1e6 * f);
                    let ok = check_wire(&mut self.cache, exp, &key, caller, &reply);
                    stats.verdict(ok);
                }
                Err(e) => {
                    stats.io_errors += 1;
                    stats.verdict(Err(format!("{key:?}: {e}")));
                }
            }
            if let Some((vc, keys)) = inproc.as_mut() {
                if done.is_multiple_of(INPROC_EVERY) {
                    let f = sm.factor();
                    let per_call =
                        inproc_batch(vc, keys, &mut self.cache, exp, &mut stats, rec, parent);
                    stats.inproc_ns.push(per_call * f);
                }
            }
        }
        stats
    }
}

/// One read window handed to the reader thread.
pub struct Job {
    pub exp: Arc<Expected>,
    pub until: Until,
    pub parent: Option<u64>,
}

/// The second generator thread: owns one connection and runs a read
/// window per job.
pub struct ReaderThread {
    jobs: Option<Sender<Job>>,
    results: Receiver<ReadStats>,
    handle: Option<JoinHandle<Recorder>>,
}

impl ReaderThread {
    pub fn spawn(mut conn: Conn, mut rec: Recorder) -> ReaderThread {
        let (jobs, job_rx) = channel::<Job>();
        let (res_tx, results) = channel();
        let handle = std::thread::Builder::new()
            .name("perfbench-reader".into())
            .spawn(move || {
                let mut sm = Speedometer::new();
                for job in job_rx {
                    let stats =
                        conn.burst(&job.exp, job.until, None, &mut sm, &mut rec, job.parent);
                    if res_tx.send(stats).is_err() {
                        break;
                    }
                }
                rec
            })
            .expect("spawn reader thread");
        ReaderThread {
            jobs: Some(jobs),
            results,
            handle: Some(handle),
        }
    }

    pub fn start(&self, job: Job) {
        self.jobs
            .as_ref()
            .expect("reader running")
            .send(job)
            .expect("reader thread alive");
    }

    pub fn wait(&self) -> ReadStats {
        self.results.recv().expect("reader thread alive")
    }

    /// Stop the thread and return its spans.
    pub fn finish(mut self) -> Recorder {
        self.jobs.take();
        self.handle
            .take()
            .expect("joined once")
            .join()
            .expect("reader thread panicked")
    }
}
