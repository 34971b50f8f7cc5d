//! Readiness-driven reactor: the shared serving engine both daemons
//! ride (viewd's wire tier here, the fleet controller's in `arv-fleet`).
//!
//! The original wire tier dedicated one blocking thread to every
//! connection; past a few hundred clients the scheduler, not the
//! serving work, dominates tail latency — the same quota-amplified
//! context-switch pathology the related "CPU-Limits kill Performance"
//! measurements show. The reactor replaces it with N sharded event
//! loops (one epoll fd each, via the direct-FFI [`crate::sys`] module),
//! each owning a slab of nonblocking connections:
//!
//! * **Incremental reassembly** — reads land in a per-connection
//!   [`FrameDecoder`]; frames torn at any byte boundary decode exactly
//!   as the blocking codec would.
//! * **Vectored, batched writes** — responses queue per connection and
//!   drain through `writev`, several frames per syscall; a cached file
//!   image rides as a shared [`Arc<String>`] slice, so a hot read is
//!   served with **zero per-request body copies**.
//! * **Admission control** — the [`ServerConfig`] connection cap and
//!   per-connection token buckets are enforced here; the protocol
//!   service only learns *whether* a request arrived pressured and
//!   answers with its own shed policy.
//! * **Slow-client eviction** — the threaded tier's write-deadline kill
//!   becomes two triggers: an outbound queue-depth cap (a peer letting
//!   bytes pile up) and a write-stall clock (a peer accepting nothing
//!   at all past the deadline).
//! * **Prompt shutdown** — a stop flag checked per frame and per wake,
//!   with an eventfd to kick loops blocked in `epoll_wait`, so even a
//!   fully busy reactor stops within one poll interval.
//!
//! Protocols plug in through [`FrameService`]: one `handle` call per
//! whole request frame, returning a [`Response`] or closing the
//! connection. The service never sees sockets, readiness or queues.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::codec::FrameDecoder;
use crate::config::{ServerConfig, TokenBucket};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLOUT, EPOLLRDHUP, MAX_IOVECS};

/// Epoll tag reserved for each loop's wake eventfd.
const WAKE_TAG: u64 = u64::MAX;
/// How long one `epoll_wait` may block; bounds shutdown latency and the
/// eviction-scan period on an otherwise idle loop.
const POLL_MS: i32 = 10;
/// Minimum spacing of the slow-client eviction scan on a busy loop.
const SCAN_EVERY: Duration = Duration::from_millis(5);
/// Read chunk per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Why the reactor evicted a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The peer accepted no bytes at all for longer than the write
    /// deadline (the classic slow-client kill).
    WriteStall,
    /// The peer's outbound queue outgrew the configured cap — it reads
    /// too slowly for the traffic it requests.
    QueueDepth,
}

/// Body of a [`Response`]: how the bytes after the protocol header are
/// owned.
#[derive(Debug, Clone)]
pub enum ResponseBody {
    /// No body bytes beyond the head.
    Empty,
    /// Bytes built for this response.
    Owned(Vec<u8>),
    /// A shared cached image ([`crate::server::ViewImage`]'s backing
    /// string); queued and written in place — never copied per request.
    Shared(Arc<String>),
}

impl ResponseBody {
    fn len(&self) -> usize {
        match self {
            ResponseBody::Empty => 0,
            ResponseBody::Owned(v) => v.len(),
            ResponseBody::Shared(s) => s.len(),
        }
    }
}

/// One framed response: the `u32le` length prefix plus protocol head,
/// followed by an optionally shared body. Written with `writev`, so a
/// shared body is never copied into a contiguous frame.
#[derive(Debug, Clone)]
pub struct Response {
    head: Vec<u8>,
    body: ResponseBody,
}

impl Response {
    /// Frame `head_payload` (the protocol header bytes) plus `body`;
    /// the length prefix covers both.
    pub fn new(head_payload: &[u8], body: ResponseBody) -> Response {
        let total = head_payload.len() + body.len();
        let mut head = Vec::with_capacity(4 + head_payload.len());
        head.extend_from_slice(&(total as u32).to_le_bytes());
        head.extend_from_slice(head_payload);
        Response { head, body }
    }

    /// Frame a fully built payload (no shared body).
    pub fn from_payload(payload: Vec<u8>) -> Response {
        let mut head = Vec::with_capacity(4);
        head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        Response {
            head,
            body: ResponseBody::Owned(payload),
        }
    }

    /// Total bytes this response puts on the wire (prefix included).
    pub fn wire_len(&self) -> usize {
        self.head.len() + self.body.len()
    }
}

/// What the protocol service wants done with one request frame.
#[derive(Debug)]
pub enum ServiceAction {
    /// Queue this response on the connection.
    Reply(Response),
    /// Stop serving the connection (after flushing what's queued):
    /// framing can no longer be trusted, or the protocol is done.
    Close,
}

/// A protocol plugged into the reactor: called once per complete
/// request frame, plus lifecycle notifications for metrics.
///
/// `handle` runs on an event-loop thread and must not block on I/O;
/// everything the current services do (render-cache lookups, metric
/// expositions) is memory-bound, matching the paper's ~µs query cost.
pub trait FrameService: Send + Sync + 'static {
    /// Largest accepted request frame (the decoder drops the
    /// connection past it).
    fn max_request(&self) -> u32;

    /// Serve one whole request frame. `pressured` is true when the
    /// connection's token bucket ran dry — the service decides what
    /// that means (viewd sheds tier-2 work; the fleet ignores it).
    fn handle(&self, request: &[u8], pressured: bool) -> ServiceAction;

    /// A connection was accepted (before the cap check).
    fn on_accepted(&self) {}

    /// A connection was refused: over the cap, or its loop's slab full.
    fn on_conn_rejected(&self) {}

    /// A connection died with untrustable framing (oversized prefix or
    /// EOF mid-frame).
    fn on_frame_rejected(&self) {}

    /// A connection was evicted as a slow client.
    fn on_evicted(&self, reason: EvictReason) {
        let _ = reason;
    }
}

/// What one queued outbound chunk borrows its bytes from.
#[derive(Debug)]
enum OutChunk {
    Owned(Vec<u8>),
    Shared(Arc<String>),
}

impl OutChunk {
    fn as_bytes(&self) -> &[u8] {
        match self {
            OutChunk::Owned(v) => v,
            OutChunk::Shared(s) => s.as_bytes(),
        }
    }
}

/// Per-connection state inside a loop's slab.
struct Conn {
    stream: UnixStream,
    decoder: FrameDecoder,
    bucket: TokenBucket,
    out: VecDeque<OutChunk>,
    /// Bytes of the front chunk already written.
    front_written: usize,
    /// Total unwritten bytes across the queue.
    queued_bytes: usize,
    /// When the most recent write returned `WouldBlock` with the queue
    /// nonempty; cleared on any progress.
    stalled_since: Option<Instant>,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Stop reading; close once the queue drains.
    closing: bool,
}

impl Conn {
    fn new(stream: UnixStream, cfg: &ServerConfig, max_request: u32) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_request),
            bucket: TokenBucket::new(cfg.rate_burst, cfg.rate_refill_per_sec),
            out: VecDeque::new(),
            front_written: 0,
            queued_bytes: 0,
            stalled_since: None,
            interest: EPOLLIN | EPOLLRDHUP,
            closing: false,
        }
    }

    fn push_response(&mut self, resp: Response) {
        self.queued_bytes += resp.wire_len();
        self.out.push_back(OutChunk::Owned(resp.head));
        match resp.body {
            ResponseBody::Empty => {}
            ResponseBody::Owned(v) => {
                if !v.is_empty() {
                    self.out.push_back(OutChunk::Owned(v));
                }
            }
            ResponseBody::Shared(s) => {
                if !s.is_empty() {
                    self.out.push_back(OutChunk::Shared(s));
                }
            }
        }
    }

    /// Drop `n` written bytes off the front of the queue.
    fn consume(&mut self, mut n: usize) {
        self.queued_bytes = self.queued_bytes.saturating_sub(n);
        while n > 0 {
            let Some(front) = self.out.front() else { break };
            let remaining = front.as_bytes().len() - self.front_written;
            if n >= remaining {
                n -= remaining;
                self.front_written = 0;
                self.out.pop_front();
            } else {
                self.front_written += n;
                n = 0;
            }
        }
    }

    /// The interest mask this connection should have registered now.
    fn desired_interest(&self) -> u32 {
        let mut mask = 0;
        if !self.closing {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.out.is_empty() {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// Outcome of one readiness pass over a connection.
enum Fate {
    Keep,
    Close,
    /// Close and count as untrustable framing.
    Reject,
    Evict(EvictReason),
}

/// State shared between the accept thread and one event loop.
struct LoopShared {
    epoll: Epoll,
    wake: EventFd,
    inbox: Mutex<Vec<UnixStream>>,
}

/// A running sharded reactor bound to one Unix socket.
#[derive(Debug)]
pub struct Reactor {
    stop: Arc<AtomicBool>,
    socket_path: PathBuf,
    accept_handle: Option<JoinHandle<()>>,
    loop_handles: Vec<JoinHandle<()>>,
    loops: Vec<Arc<LoopShared>>,
}

impl std::fmt::Debug for LoopShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopShared").finish_non_exhaustive()
    }
}

impl Reactor {
    /// Bind `socket_path` (removing any stale socket file first) and
    /// serve `service` on `config.loops` event loops until shut down.
    pub fn spawn(
        service: Arc<dyn FrameService>,
        socket_path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> io::Result<Reactor> {
        config.validate()?;
        let socket_path = socket_path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));

        let mut loops = Vec::with_capacity(config.loops);
        let mut loop_handles = Vec::with_capacity(config.loops);
        for worker in 0..config.loops {
            let shared = Arc::new(LoopShared {
                epoll: Epoll::new()?,
                wake: EventFd::new()?,
                inbox: Mutex::new(Vec::new()),
            });
            shared.epoll.add(shared.wake.raw_fd(), EPOLLIN, WAKE_TAG)?;
            let handle = std::thread::Builder::new()
                .name(format!("arv-reactor-{worker}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop);
                    let active = Arc::clone(&active);
                    move || run_loop(&shared, service.as_ref(), &config, &stop, &active)
                })?;
            loops.push(shared);
            loop_handles.push(handle);
        }

        let accept_handle = std::thread::Builder::new()
            .name("arv-reactor-accept".into())
            .spawn({
                let loops = loops.clone();
                let stop = Arc::clone(&stop);
                move || run_accept(&listener, &loops, service.as_ref(), &config, &stop, &active)
            })?;

        Ok(Reactor {
            stop,
            socket_path,
            accept_handle: Some(accept_handle),
            loop_handles,
            loops,
        })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// Stop accepting, kick every loop awake, join all threads, unlink
    /// the socket. Idempotent; prompt even when every loop is busy.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for l in &self.loops {
            let _ = l.wake.signal();
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.loop_handles.drain(..) {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept loop: admit or refuse, then hand the stream to the next
/// event loop round-robin.
fn run_accept(
    listener: &UnixListener,
    loops: &[Arc<LoopShared>],
    service: &dyn FrameService,
    config: &ServerConfig,
    stop: &AtomicBool,
    active: &AtomicUsize,
) {
    let mut rr = 0usize;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                service.on_accepted();
                // Connection cap: the app-level bound on the accept
                // backlog. Closing the stream is the refusal — the
                // peer sees EOF.
                if active.load(Ordering::Acquire) >= config.max_connections {
                    service.on_conn_rejected();
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    service.on_conn_rejected();
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                let target = &loops[rr % loops.len()];
                rr = rr.wrapping_add(1);
                if let Ok(mut inbox) = target.inbox.lock() {
                    inbox.push(stream);
                } else {
                    active.fetch_sub(1, Ordering::AcqRel);
                    service.on_conn_rejected();
                    continue;
                }
                let _ = target.wake.signal();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// One event loop: wait for readiness, move bytes, serve frames.
fn run_loop(
    shared: &LoopShared,
    service: &dyn FrameService,
    config: &ServerConfig,
    stop: &AtomicBool,
    active: &AtomicUsize,
) {
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); 256];
    let mut read_buf = vec![0u8; READ_CHUNK];
    let mut last_scan = Instant::now();

    while let Ok(n) = shared.epoll.wait(&mut events, POLL_MS) {
        if stop.load(Ordering::Acquire) {
            break;
        }
        for ev in events.iter().take(n) {
            let mask = ev.events;
            let tag = ev.data;
            if tag == WAKE_TAG {
                shared.wake.drain();
                adopt_new_conns(shared, service, config, active, &mut slots, &mut free);
                continue;
            }
            let slot = tag as usize;
            let Some(conn) = slots.get_mut(slot).and_then(Option::as_mut) else {
                continue; // already closed this pass
            };
            let fate = handle_ready(conn, mask, service, config, stop, &mut read_buf);
            settle(shared, service, active, &mut slots, &mut free, slot, fate);
        }
        // Slow-client scan: cheap, so it runs on a short period, but
        // throttled so a hot loop doesn't pay it per wake.
        if last_scan.elapsed() >= SCAN_EVERY {
            last_scan = Instant::now();
            for slot in 0..slots.len() {
                let Some(conn) = slots.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                let stalled = conn
                    .stalled_since
                    .is_some_and(|t| t.elapsed() >= config.write_deadline);
                if stalled {
                    settle(
                        shared,
                        service,
                        active,
                        &mut slots,
                        &mut free,
                        slot,
                        Fate::Evict(EvictReason::WriteStall),
                    );
                }
            }
        }
    }
    // Shutdown: every connection closes; peers see EOF, like the
    // threaded tier's join-and-drop.
    for slot in slots.iter_mut() {
        if slot.take().is_some() {
            active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Register connections the accept thread handed over.
fn adopt_new_conns(
    shared: &LoopShared,
    service: &dyn FrameService,
    config: &ServerConfig,
    active: &AtomicUsize,
    slots: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
) {
    let streams = match shared.inbox.lock() {
        Ok(mut inbox) => std::mem::take(&mut *inbox),
        Err(_) => return,
    };
    for stream in streams {
        let slot = match free.pop() {
            Some(s) => s,
            None if slots.len() < config.slab_capacity => {
                slots.push(None);
                slots.len() - 1
            }
            None => {
                // Slab full: refuse the handoff, peer sees EOF.
                service.on_conn_rejected();
                active.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
        };
        let conn = Conn::new(stream, config, service.max_request());
        if shared
            .epoll
            .add(conn.stream.as_raw_fd(), conn.interest, slot as u64)
            .is_err()
        {
            service.on_conn_rejected();
            active.fetch_sub(1, Ordering::AcqRel);
            free.push(slot);
            continue;
        }
        slots[slot] = Some(conn);
    }
}

/// Apply a connection's fate: keep (with refreshed epoll interest) or
/// tear down with the right accounting.
fn settle(
    shared: &LoopShared,
    service: &dyn FrameService,
    active: &AtomicUsize,
    slots: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    fate: Fate,
) {
    match fate {
        Fate::Keep => {
            let Some(conn) = slots.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let desired = conn.desired_interest();
            if desired != conn.interest {
                conn.interest = desired;
                let _ = shared
                    .epoll
                    .modify(conn.stream.as_raw_fd(), desired, slot as u64);
            }
        }
        Fate::Close | Fate::Reject | Fate::Evict(_) => {
            let Some(conn) = slots.get_mut(slot).and_then(Option::take) else {
                return;
            };
            let _ = shared.epoll.delete(conn.stream.as_raw_fd());
            // Count the fate before closing: a peer that sees EOF must
            // also see the rejection or eviction in the metrics.
            match fate {
                Fate::Reject => service.on_frame_rejected(),
                Fate::Evict(reason) => service.on_evicted(reason),
                _ => {}
            }
            drop(conn);
            free.push(slot);
            active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One readiness pass: drain readable bytes into the decoder, serve
/// every complete frame, flush the outbound queue.
fn handle_ready(
    conn: &mut Conn,
    mask: u32,
    service: &dyn FrameService,
    config: &ServerConfig,
    stop: &AtomicBool,
    read_buf: &mut [u8],
) -> Fate {
    // Errors and hard hangups first; RDHUP alone still allows reading
    // the bytes the peer sent before half-closing, so it is left to the
    // read path's EOF handling.
    if mask & (crate::sys::EPOLLERR | crate::sys::EPOLLHUP) != 0 {
        return Fate::Close;
    }
    if mask & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.closing {
        loop {
            match conn.stream.read(read_buf) {
                Ok(0) => {
                    // EOF mid-frame is torn framing, same accounting as
                    // an oversized prefix; EOF between frames is a
                    // clean end of conversation.
                    if conn.decoder.has_partial() {
                        return Fate::Reject;
                    }
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.feed(&read_buf[..n]);
                    match serve_frames(conn, service, stop) {
                        Some(fate) => return fate,
                        None => {
                            if conn.closing {
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
    }
    match flush(conn) {
        Ok(()) => {}
        Err(_) => return Fate::Close,
    }
    if conn.queued_bytes > config.outbound_queue_cap {
        return Fate::Evict(EvictReason::QueueDepth);
    }
    if conn.closing && conn.out.is_empty() {
        return Fate::Close;
    }
    Fate::Keep
}

/// Serve every complete frame currently buffered. `Some(fate)` ends the
/// connection immediately; `None` keeps it (possibly marked closing).
fn serve_frames(conn: &mut Conn, service: &dyn FrameService, stop: &AtomicBool) -> Option<Fate> {
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(frame)) => {
                // Checked per frame, not only per wake: a connection
                // with steady pipelined traffic must not hold shutdown
                // hostage. Dropping the request closes the connection;
                // the peer sees EOF like any other server failure.
                if stop.load(Ordering::Acquire) {
                    return Some(Fate::Close);
                }
                let pressured = !conn.bucket.take();
                match service.handle(&frame, pressured) {
                    ServiceAction::Reply(resp) => conn.push_response(resp),
                    ServiceAction::Close => {
                        conn.closing = true;
                        return None;
                    }
                }
            }
            Ok(None) => return None,
            Err(_) => return Some(Fate::Reject),
        }
    }
}

/// Drain the outbound queue with vectored writes until empty or the
/// socket stops accepting bytes. Tracks the write-stall clock.
fn flush(conn: &mut Conn) -> io::Result<()> {
    let fd = conn.stream.as_raw_fd();
    while !conn.out.is_empty() {
        let mut bufs: Vec<&[u8]> = Vec::with_capacity(MAX_IOVECS.min(conn.out.len()));
        for (i, chunk) in conn.out.iter().take(MAX_IOVECS).enumerate() {
            let bytes = chunk.as_bytes();
            if i == 0 {
                bufs.push(&bytes[conn.front_written..]);
            } else {
                bufs.push(bytes);
            }
        }
        match crate::sys::writev_fd(fd, &bufs) {
            Ok(0) => break,
            Ok(n) => {
                conn.consume(n);
                conn.stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.stalled_since.is_none() {
                    conn.stalled_since = Some(Instant::now());
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.out.is_empty() {
        conn.stalled_since = None;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame};
    use std::io::Write;
    use std::sync::atomic::AtomicU64;

    /// Echoes each frame back, uppercased; closes on the frame "quit";
    /// sheds (empty reply) when pressured. Counts lifecycle events.
    struct EchoService {
        accepted: AtomicU64,
        rejected_conns: AtomicU64,
        rejected_frames: AtomicU64,
        evicted: AtomicU64,
        evicted_backlog: AtomicU64,
    }

    impl EchoService {
        fn new() -> Arc<EchoService> {
            Arc::new(EchoService {
                accepted: AtomicU64::new(0),
                rejected_conns: AtomicU64::new(0),
                rejected_frames: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                evicted_backlog: AtomicU64::new(0),
            })
        }
    }

    impl FrameService for EchoService {
        fn max_request(&self) -> u32 {
            1024
        }

        fn handle(&self, request: &[u8], pressured: bool) -> ServiceAction {
            if request == b"quit" {
                return ServiceAction::Close;
            }
            if pressured {
                return ServiceAction::Reply(Response::from_payload(b"SHED".to_vec()));
            }
            let upper: Vec<u8> = request.iter().map(|b| b.to_ascii_uppercase()).collect();
            ServiceAction::Reply(Response::new(&upper, ResponseBody::Empty))
        }

        fn on_accepted(&self) {
            self.accepted.fetch_add(1, Ordering::Relaxed);
        }

        fn on_conn_rejected(&self) {
            self.rejected_conns.fetch_add(1, Ordering::Relaxed);
        }

        fn on_frame_rejected(&self) {
            self.rejected_frames.fetch_add(1, Ordering::Relaxed);
        }

        fn on_evicted(&self, reason: EvictReason) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            if reason == EvictReason::QueueDepth {
                self.evicted_backlog.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn sock(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("arv-reactor-{}-{tag}.sock", std::process::id()))
    }

    #[test]
    fn echo_round_trips_across_loops() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder().loops(2).build().unwrap();
        let mut reactor = Reactor::spawn(svc.clone(), sock("echo"), cfg).unwrap();
        for conn_i in 0..3 {
            let mut s = UnixStream::connect(reactor.socket_path()).unwrap();
            for round in 0..10 {
                let msg = format!("hello-{conn_i}-{round}");
                write_frame(&mut s, msg.as_bytes()).unwrap();
                let resp = read_frame(&mut s, 1024).unwrap().unwrap();
                assert_eq!(resp, msg.to_ascii_uppercase().as_bytes());
            }
        }
        assert!(svc.accepted.load(Ordering::Relaxed) >= 3);
        reactor.shutdown();
        reactor.shutdown(); // idempotent
    }

    #[test]
    fn pipelined_frames_and_partial_writes_reassemble() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder().loops(1).build().unwrap();
        let reactor = Reactor::spawn(svc, sock("pipeline"), cfg).unwrap();
        let mut s = UnixStream::connect(reactor.socket_path()).unwrap();
        // Three pipelined frames, delivered in two torn chunks.
        let mut bytes = Vec::new();
        for msg in [b"aaa".as_slice(), b"bb", b"cccc"] {
            write_frame(&mut bytes, msg).unwrap();
        }
        let split = 5; // mid-prefix of nothing in particular
        s.write_all(&bytes[..split]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        s.write_all(&bytes[split..]).unwrap();
        for expect in [b"AAA".as_slice(), b"BB", b"CCCC"] {
            let resp = read_frame(&mut s, 1024).unwrap().unwrap();
            assert_eq!(resp, expect);
        }
    }

    #[test]
    fn close_action_flushes_then_closes() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder().loops(1).build().unwrap();
        let reactor = Reactor::spawn(svc, sock("close"), cfg).unwrap();
        let mut s = UnixStream::connect(reactor.socket_path()).unwrap();
        write_frame(&mut s, b"last").unwrap();
        write_frame(&mut s, b"quit").unwrap();
        // The response queued before "quit" still arrives...
        let resp = read_frame(&mut s, 1024).unwrap().unwrap();
        assert_eq!(resp, b"LAST");
        // ...then the server closes cleanly.
        assert!(read_frame(&mut s, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_counts_as_rejected_frame() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder().loops(1).build().unwrap();
        let reactor = Reactor::spawn(svc.clone(), sock("oversize"), cfg).unwrap();
        let mut s = UnixStream::connect(reactor.socket_path()).unwrap();
        s.write_all(&(1_000_000u32).to_le_bytes()).unwrap();
        s.write_all(&[0u8; 16]).unwrap();
        let mut buf = [0u8; 1];
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "untrustable framing must close the connection");
        assert!(svc.rejected_frames.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn connection_cap_refuses_excess() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder()
            .loops(1)
            .max_connections(1)
            .build()
            .unwrap();
        let reactor = Reactor::spawn(svc.clone(), sock("cap"), cfg).unwrap();
        let mut first = UnixStream::connect(reactor.socket_path()).unwrap();
        write_frame(&mut first, b"hi").unwrap();
        assert_eq!(read_frame(&mut first, 1024).unwrap().unwrap(), b"HI");
        let mut second = UnixStream::connect(reactor.socket_path()).unwrap();
        let _ = write_frame(&mut second, b"hi");
        let mut buf = [0u8; 1];
        let n = second.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "capped connection sees EOF");
        assert!(svc.rejected_conns.load(Ordering::Relaxed) >= 1);
        // The first connection keeps working.
        write_frame(&mut first, b"again").unwrap();
        assert_eq!(read_frame(&mut first, 1024).unwrap().unwrap(), b"AGAIN");
    }

    #[test]
    fn queue_depth_evicts_nonreading_client() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder()
            .loops(1)
            .outbound_queue_cap(4096)
            .write_deadline(Duration::from_secs(30))
            .build()
            .unwrap();
        let reactor = Reactor::spawn(svc.clone(), sock("depth"), cfg).unwrap();
        let mut s = UnixStream::connect(reactor.socket_path()).unwrap();
        let req = vec![b'x'; 512];
        // Never read a byte back; responses pile up past the cap.
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.evicted_backlog.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "reactor never evicted the peer");
            if write_frame(&mut s, &req).is_err() {
                break; // server closed us: eviction already landed
            }
        }
        let wait_deadline = Instant::now() + Duration::from_secs(10);
        while svc.evicted.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < wait_deadline, "eviction never counted");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.evicted_backlog.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn shutdown_is_prompt_under_busy_traffic() {
        let svc = EchoService::new();
        let cfg = ServerConfig::builder().loops(2).build().unwrap();
        let mut reactor = Reactor::spawn(svc, sock("busy-stop"), cfg).unwrap();
        let path = reactor.socket_path().to_path_buf();
        let stop_flood = Arc::new(AtomicBool::new(false));
        let flooders: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                let stop_flood = Arc::clone(&stop_flood);
                std::thread::spawn(move || {
                    let Ok(mut s) = UnixStream::connect(&path) else {
                        return;
                    };
                    while !stop_flood.load(Ordering::Relaxed) {
                        if write_frame(&mut s, b"busy").is_err() {
                            break;
                        }
                        if read_frame(&mut s, 1024).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        reactor.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?} under busy traffic",
            started.elapsed()
        );
        stop_flood.store(true, Ordering::Relaxed);
        for f in flooders {
            let _ = f.join();
        }
    }
}
