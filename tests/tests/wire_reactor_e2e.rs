//! End-to-end stress test for the readiness-driven wire tier: one viewd
//! daemon on the reactor, hammered simultaneously by hundreds of
//! well-behaved racing clients, a pack of slow clients that stop
//! reading (to be evicted), and hostile clients feeding the decoder
//! garbage and torn frames — while an in-process updater keeps the
//! views moving. The daemon must answer every well-behaved request
//! correctly throughout, account the abuse in its metrics, and still
//! serve a fresh client afterwards.
//!
//! A second test pins the shutdown promise: with hundreds of
//! connections parked and several flooding, `WireServer::shutdown`
//! must return in well under two seconds.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::effective_cpu::CpuBounds;
use arv_resview::effective_mem::{EffectiveMemory, EffectiveMemoryConfig};
use arv_resview::EffectiveCpuConfig;
use arv_viewd::codec::{read_frame, write_frame};
use arv_viewd::{
    parse_response, HostSpec, ServerConfig, ViewServer, WireServer, KIND_READ, MAX_RESPONSE,
};
use std::io::{self, Write as IoWrite};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Well-behaved clients racing reads against the moving views.
const RACING: usize = 220;
/// Requests each racing client must complete.
const REQS_PER_CLIENT: usize = 20;
/// Clients that request and never read: queue-depth eviction bait.
const SLOW: usize = 8;
/// Clients speaking garbage or tearing frames mid-prefix.
const HOSTILE: usize = 12;

const MIB: u64 = 1024 * 1024;

fn mk_server(ids: &[CgroupId]) -> ViewServer {
    let server = ViewServer::new(HostSpec::paper_testbed(), 8);
    for id in ids {
        server.register(
            *id,
            CpuBounds {
                lower: 1,
                upper: 16,
            },
            EffectiveCpuConfig::default(),
            EffectiveMemory::new(
                Bytes(64 * MIB),
                Bytes(1024 * MIB),
                Bytes::from_mib(1280),
                Bytes::from_mib(2560),
                EffectiveMemoryConfig::default(),
            ),
        );
    }
    server
}

fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "arv-wire-reactor-{}-{tag}.sock",
        std::process::id()
    ))
}

fn read_req(id: u32, key: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(5 + key.len());
    payload.push(KIND_READ);
    payload.extend_from_slice(&id.to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload
}

#[test]
fn hundreds_of_mixed_clients_hammer_one_reactor() {
    let ids: Vec<CgroupId> = (0..8).map(CgroupId).collect();
    let view = mk_server(&ids);
    let socket = test_socket("mixed");
    let cfg = ServerConfig::builder()
        .max_connections(RACING + SLOW + HOSTILE + 32)
        .rate_burst(1_000_000)
        .rate_refill_per_sec(1_000_000.0)
        // Small queue cap + long stall clock: the slow clients must die
        // by queue depth, deterministically, not by racing a timer.
        .outbound_queue_cap(16 * 1024)
        .write_deadline(Duration::from_secs(30))
        .build()
        .expect("config");
    let wire = WireServer::spawn_with_config(view.clone(), &socket, cfg).expect("spawn");

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(RACING + SLOW + HOSTILE));
    let ok_reads = Arc::new(AtomicU64::new(0));
    let hostile_closed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();

    // Updater: the views keep republishing while the storm runs.
    let updater = {
        let view = view.clone();
        let stop = Arc::clone(&stop);
        let ids = ids.clone();
        thread::spawn(move || {
            let mut cpus = 2u32;
            while !stop.load(Ordering::Acquire) {
                cpus = 2 + (cpus + 1) % 8;
                for id in &ids {
                    let bytes = Bytes(u64::from(cpus) * 64 * MIB);
                    view.mirror(*id, cpus, bytes, bytes);
                }
                thread::sleep(Duration::from_micros(500));
            }
        })
    };

    // Racing clients: every request must come back OK (or degraded)
    // with a plausible cpuinfo body.
    for c in 0..RACING {
        let socket = socket.clone();
        let barrier = Arc::clone(&barrier);
        let ok_reads = Arc::clone(&ok_reads);
        handles.push(thread::spawn(move || {
            let mut s = UnixStream::connect(&socket).expect("racing connect");
            barrier.wait();
            let id = (c % 8) as u32;
            let req = read_req(id, "/proc/cpuinfo");
            for _ in 0..REQS_PER_CLIENT {
                write_frame(&mut s, &req).expect("racing write");
                let resp = read_frame(&mut s, MAX_RESPONSE)
                    .expect("racing read")
                    .expect("server closed a well-behaved client");
                let parsed = parse_response(&resp)
                    .expect("parse")
                    .expect("registered container must never be NOT_FOUND");
                assert!(!parsed.shed, "racing client was shed under a huge burst");
                let body = String::from_utf8(parsed.body).expect("utf8 body");
                assert!(body.contains("processor"), "cpuinfo body lost its shape");
                ok_reads.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Slow clients: pile requests without ever reading. The reactor
    // must cut them loose (queue-depth eviction) without hurting
    // anyone else. Both outcomes of the race are fine: the write side
    // erroring out, or the pile simply ending (the eviction metric is
    // asserted below either way).
    for _ in 0..SLOW {
        let socket = socket.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut s = UnixStream::connect(&socket).expect("slow connect");
            barrier.wait();
            let req = read_req(0, "/proc/cpuinfo");
            let deadline = Instant::now() + Duration::from_secs(20);
            while Instant::now() < deadline {
                if write_frame(&mut s, &req).is_err() {
                    return; // evicted: the server hung up on us
                }
            }
        }));
    }

    // Hostile clients: garbage kinds (answered NOT_FOUND, connection
    // kept), oversized prefixes and torn frames (connection dropped).
    for c in 0..HOSTILE {
        let socket = socket.clone();
        let barrier = Arc::clone(&barrier);
        let hostile_closed = Arc::clone(&hostile_closed);
        handles.push(thread::spawn(move || {
            let mut s = UnixStream::connect(&socket).expect("hostile connect");
            barrier.wait();
            match c % 3 {
                0 => {
                    // Unknown request kind: the protocol answers
                    // NOT_FOUND and keeps serving the connection.
                    write_frame(&mut s, &[0xEE, 1, 2, 3, 4, 5]).expect("garbage write");
                    let resp = read_frame(&mut s, MAX_RESPONSE)
                        .expect("garbage read")
                        .expect("garbage must still be answered");
                    assert!(
                        parse_response(&resp).expect("parse").is_none(),
                        "garbage kind must be answered NOT_FOUND"
                    );
                }
                1 => {
                    // Oversized length prefix: untrustable framing, the
                    // server must hang up.
                    s.write_all(&(50_000_000u32).to_le_bytes()).expect("w");
                    // The server may hang up as soon as it has read the
                    // prefix, so the trailing bytes can meet a closed
                    // socket: that is the same outcome as the EOF below.
                    let hung_up = match s.write_all(&[0u8; 32]) {
                        Ok(()) => read_frame(&mut s, MAX_RESPONSE)
                            .map(|f| f.is_none())
                            .unwrap_or(true),
                        Err(e) => {
                            assert!(
                                matches!(
                                    e.kind(),
                                    io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                                ),
                                "oversized-prefix write failed for another reason: {e}"
                            );
                            true
                        }
                    };
                    if hung_up {
                        hostile_closed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    // Torn frame: half a prefix, then hang up. The
                    // server counts the torn framing and moves on.
                    s.write_all(&[7u8, 0]).expect("w");
                    drop(s);
                    hostile_closed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    for h in handles {
        h.join().expect("client thread panicked");
    }
    stop.store(true, Ordering::Release);
    updater.join().expect("updater");

    // Every well-behaved request was answered.
    assert_eq!(
        ok_reads.load(Ordering::Relaxed),
        (RACING * REQS_PER_CLIENT) as u64
    );
    assert!(hostile_closed.load(Ordering::Relaxed) >= (HOSTILE / 3) as u64);

    // The storm is visible in the daemon's own accounting.
    let m = view.metrics();
    assert!(
        m.wire_requests >= (RACING * REQS_PER_CLIENT) as u64,
        "wire_requests {} too low",
        m.wire_requests
    );
    assert!(m.wire_rejected >= 1, "torn/oversized framing never counted");
    assert!(m.wire_errors >= 1, "garbage kind never counted");
    assert!(
        m.conns_evicted_slow >= 1,
        "no slow client was evicted (backlog {})",
        m.conns_evicted_backlog
    );
    assert_eq!(
        m.conns_evicted_backlog, m.conns_evicted_slow,
        "with a 30s stall clock every eviction here is queue-depth"
    );

    // After the storm: a fresh client gets clean service.
    let mut s = UnixStream::connect(&socket).expect("fresh connect");
    write_frame(&mut s, &read_req(3, "/proc/cpuinfo")).expect("fresh write");
    let resp = read_frame(&mut s, MAX_RESPONSE)
        .expect("fresh read")
        .expect("fresh client must be served");
    let parsed = parse_response(&resp).expect("parse").expect("resp");
    assert!(!parsed.shed, "fresh client must get full service");

    wire.shutdown();
}

#[test]
fn shutdown_stays_prompt_with_hundreds_connected() {
    const PARKED: usize = 300;
    const FLOODERS: usize = 4;

    let ids = [CgroupId(1)];
    let view = mk_server(&ids);
    let socket = test_socket("prompt");
    let cfg = ServerConfig::builder()
        .max_connections(PARKED + FLOODERS + 8)
        .rate_burst(1_000_000)
        .rate_refill_per_sec(1_000_000.0)
        .build()
        .expect("config");
    let wire = WireServer::spawn_with_config(view, &socket, cfg).expect("spawn");

    // Park hundreds of idle connections on the reactor.
    let parked: Vec<UnixStream> = (0..PARKED)
        .map(|_| UnixStream::connect(&socket).expect("park"))
        .collect();

    // And keep a few connections busy with steady request traffic.
    let stop_flood = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = (0..FLOODERS)
        .map(|_| {
            let socket = socket.clone();
            let stop_flood = Arc::clone(&stop_flood);
            thread::spawn(move || {
                let Ok(mut s) = UnixStream::connect(&socket) else {
                    return;
                };
                let req = read_req(1, "/proc/cpuinfo");
                while !stop_flood.load(Ordering::Relaxed) {
                    if write_frame(&mut s, &req).is_err() {
                        break;
                    }
                    if read_frame(&mut s, MAX_RESPONSE).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    wire.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown took {elapsed:?} with {PARKED} parked + {FLOODERS} flooding clients"
    );

    stop_flood.store(true, Ordering::Release);
    for f in flooders {
        let _ = f.join();
    }
    drop(parked);
}
