//! Framed TCP broadcast server.
//!
//! One accept thread registers subscribers; each subscriber owns a
//! bounded frame queue drained by a dedicated writer thread. The serve
//! loop only ever *enqueues* — a stalled client fills its own queue and
//! (under [`OverflowPolicy::DropNewest`]) loses frames, counted on
//! `net.dropped_frames`, while every other subscriber and the broadcast
//! tick itself stay unaffected. Per-connection write timeouts evict
//! clients whose TCP window has been closed for too long.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dbcast_obs::metrics::{Counter, Gauge};

/// What to do when a subscriber's frame queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Drop the newest frame for that subscriber and count it. The
    /// default: one slow client never back-pressures the serve loop.
    DropNewest,
    /// Block the broadcaster until space frees up. Only sensible in
    /// tests and in-process fleets where every client is guaranteed to
    /// drain; a production serve loop should never block on a client.
    Block,
}

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Frames buffered per subscriber before the overflow policy kicks in.
    pub queue_capacity: usize,
    /// Overflow behaviour for a full subscriber queue.
    pub overflow: OverflowPolicy,
    /// TCP write timeout; a write blocked longer evicts the connection.
    pub write_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            queue_capacity: 1024,
            overflow: OverflowPolicy::DropNewest,
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Resolved `net.*` metric handles (no-ops unless obs is enabled).
#[derive(Debug)]
struct NetMetrics {
    frames_sent: &'static Counter,
    bytes_sent: &'static Counter,
    dropped_frames: &'static Counter,
    subscribers: &'static Gauge,
    queue_depth: &'static Gauge,
    queue_peak: &'static Gauge,
}

impl NetMetrics {
    fn resolve() -> Self {
        let r = dbcast_obs::registry();
        NetMetrics {
            frames_sent: r.counter("net.frames_sent"),
            bytes_sent: r.counter("net.bytes_sent"),
            dropped_frames: r.counter("net.dropped_frames"),
            subscribers: r.gauge("net.subscribers"),
            queue_depth: r.gauge("net.subscriber.queue_depth"),
            queue_peak: r.gauge("net.subscriber.queue_peak"),
        }
    }
}

/// Bounded MPSC byte-blob queue with close semantics.
///
/// Hand-rolled because the slow-client policy needs a hard bound, an
/// observable depth (the `queue_peak` signal) and an explicit `close`;
/// `std::sync::mpsc::sync_channel` offers the bound but neither of the
/// other two.
#[derive(Debug)]
struct BoundedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<Arc<Vec<u8>>>,
    closed: bool,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Tries to enqueue without blocking. Returns `false` when the
    /// queue is full (caller counts a drop) or already closed.
    fn try_push(&self, msg: Arc<Vec<u8>>) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        if st.closed || st.items.len() >= self.capacity {
            return false;
        }
        st.items.push_back(msg);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Enqueues, waiting for space. Returns `false` only if closed.
    fn push_blocking(&self, msg: Arc<Vec<u8>>) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        while !st.closed && st.items.len() >= self.capacity {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.items.push_back(msg);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues, blocking until a message or close. `None` means the
    /// queue was closed and fully drained.
    fn pop(&self) -> Option<Arc<Vec<u8>>> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(msg) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(msg);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Frames currently buffered (a back-pressure signal, not a sync
    /// point: the writer may be draining concurrently).
    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }
}

/// One connected client: its queue and writer thread.
#[derive(Debug)]
struct Subscriber {
    queue: Arc<BoundedQueue>,
    /// Set by the writer thread when the connection died; the next
    /// broadcast prunes the entry.
    dead: Arc<AtomicBool>,
    writer: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct Roster {
    subscribers: Vec<Subscriber>,
    /// Latest directory blob; handed to every new subscriber first so a
    /// late joiner can interpret the frames that follow.
    directory: Option<Arc<Vec<u8>>>,
}

#[derive(Debug)]
struct Shared {
    roster: Mutex<Roster>,
    stop: AtomicBool,
    config: NetConfig,
    metrics: NetMetrics,
    // Per-server copies of the obs counters: the registry is
    // process-global and sums every server in the process, while these
    // count this instance alone.
    dropped: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    queue_peak: AtomicU64,
}

/// A broadcast fan-out server on a TCP listener.
///
/// Dropping the server shuts it down: the accept loop stops, every
/// subscriber queue closes, and writer threads are joined.
#[derive(Debug)]
pub struct BroadcastServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl BroadcastServer {
    /// Binds `addr` and starts accepting subscribers.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            roster: Mutex::new(Roster { subscribers: Vec::new(), directory: None }),
            stop: AtomicBool::new(false),
            config,
            metrics: NetMetrics::resolve(),
            dropped: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new().name("dbcast-bcast-accept".into()).spawn(
            move || {
                for stream in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        register_subscriber(&accept_shared, stream);
                    }
                }
            },
        )?;
        Ok(BroadcastServer { shared, addr, accept: Mutex::new(Some(accept)) })
    }

    /// The bound socket address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Publishes the directory handed to every future subscriber, and
    /// broadcasts it to everyone currently connected.
    pub fn set_directory(&self, blob: Arc<Vec<u8>>) {
        let mut roster = self.shared.roster.lock().expect("roster poisoned");
        roster.directory = Some(Arc::clone(&blob));
        broadcast_locked(&self.shared, &mut roster, blob);
    }

    /// Enqueues a pre-encoded frame for every live subscriber.
    ///
    /// Under [`OverflowPolicy::DropNewest`] a full subscriber queue
    /// drops this frame *for that subscriber only* and increments
    /// `net.dropped_frames`.
    pub fn broadcast(&self, blob: Arc<Vec<u8>>) {
        let mut roster = self.shared.roster.lock().expect("roster poisoned");
        broadcast_locked(&self.shared, &mut roster, blob);
    }

    /// Number of currently live subscribers.
    pub fn subscriber_count(&self) -> usize {
        let roster = self.shared.roster.lock().expect("roster poisoned");
        roster.subscribers.iter().filter(|s| !s.dead.load(Ordering::SeqCst)).count()
    }

    /// Frames dropped to the slow-client policy since startup.
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped.load(Ordering::SeqCst)
    }

    /// Frames successfully written to sockets since startup.
    pub fn frames_sent(&self) -> u64 {
        self.shared.frames_sent.load(Ordering::SeqCst)
    }

    /// Bytes successfully written to sockets since startup.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes_sent.load(Ordering::SeqCst)
    }

    /// High-watermark of any subscriber's queue depth since startup —
    /// how close the slow-client policy has come to engaging.
    pub fn queue_peak(&self) -> u64 {
        self.shared.queue_peak.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes every subscriber queue (letting queued
    /// frames drain), and joins all threads. Idempotent.
    pub fn shutdown(&self) {
        if !self.shared.stop.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(handle) = self.accept.lock().expect("accept poisoned").take() {
            let _ = handle.join();
        }
        let mut subs = {
            let mut roster = self.shared.roster.lock().expect("roster poisoned");
            std::mem::take(&mut roster.subscribers)
        };
        for sub in &subs {
            sub.queue.close();
        }
        for sub in &mut subs {
            if let Some(handle) = sub.writer.take() {
                let _ = handle.join();
            }
        }
        self.shared.metrics.subscribers.set(0.0);
    }
}

impl Drop for BroadcastServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn register_subscriber(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let queue = Arc::new(BoundedQueue::new(shared.config.queue_capacity));
    let dead = Arc::new(AtomicBool::new(false));
    let writer = {
        let queue = Arc::clone(&queue);
        let dead = Arc::clone(&dead);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("dbcast-bcast-writer".into())
            .spawn(move || writer_loop(stream, &queue, &dead, &shared))
    };
    let writer = match writer {
        Ok(handle) => handle,
        Err(_) => return,
    };
    let mut roster = shared.roster.lock().expect("roster poisoned");
    if let Some(dir) = &roster.directory {
        // The directory must be the first thing a subscriber sees; the
        // queue is empty here so this cannot fail short of a close.
        let _ = queue.try_push(Arc::clone(dir));
    }
    roster.subscribers.push(Subscriber { queue, dead, writer: Some(writer) });
    let live = roster.subscribers.iter().filter(|s| !s.dead.load(Ordering::SeqCst)).count();
    shared.metrics.subscribers.set(live as f64);
}

fn writer_loop(
    mut stream: TcpStream,
    queue: &BoundedQueue,
    dead: &AtomicBool,
    shared: &Shared,
) {
    while let Some(blob) = queue.pop() {
        if stream.write_all(&blob).and_then(|()| stream.flush()).is_err() {
            // Timeout or hangup: evict this client, drain nothing more.
            dead.store(true, Ordering::SeqCst);
            queue.close();
            return;
        }
        shared.frames_sent.fetch_add(1, Ordering::SeqCst);
        shared.bytes_sent.fetch_add(blob.len() as u64, Ordering::SeqCst);
        shared.metrics.frames_sent.inc();
        shared.metrics.bytes_sent.add(blob.len() as u64);
    }
    let _ = stream.flush();
}

fn broadcast_locked(shared: &Shared, roster: &mut Roster, blob: Arc<Vec<u8>>) {
    let mut pruned = false;
    for sub in &mut roster.subscribers {
        if sub.dead.load(Ordering::SeqCst) {
            pruned = true;
            continue;
        }
        let delivered = match shared.config.overflow {
            OverflowPolicy::DropNewest => sub.queue.try_push(Arc::clone(&blob)),
            OverflowPolicy::Block => sub.queue.push_blocking(Arc::clone(&blob)),
        };
        if !delivered {
            shared.dropped.fetch_add(1, Ordering::SeqCst);
            shared.metrics.dropped_frames.inc();
        }
    }
    // Back-pressure gauges: the deepest live queue right now, and its
    // high-watermark — visible *before* the drop counter starts moving.
    let depth = roster
        .subscribers
        .iter()
        .filter(|s| !s.dead.load(Ordering::SeqCst))
        .map(|s| s.queue.len())
        .max()
        .unwrap_or(0) as u64;
    let peak = shared.queue_peak.fetch_max(depth, Ordering::SeqCst).max(depth);
    shared.metrics.queue_depth.set(depth as f64);
    shared.metrics.queue_peak.set(peak as f64);
    if pruned {
        roster.subscribers.retain_mut(|sub| {
            if !sub.dead.load(Ordering::SeqCst) {
                return true;
            }
            sub.queue.close();
            if let Some(handle) = sub.writer.take() {
                let _ = handle.join();
            }
            false
        });
        let live = roster.subscribers.len();
        shared.metrics.subscribers.set(live as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn frame_blob(tag: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![tag; 64])
    }

    #[test]
    fn fans_out_to_multiple_subscribers() {
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        let addr = server.addr();
        let mut clients: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        while server.subscriber_count() < 3 {
            std::thread::yield_now();
        }
        server.broadcast(frame_blob(7));
        for c in &mut clients {
            let mut buf = [0u8; 64];
            c.read_exact(&mut buf).expect("read fan-out");
            assert!(buf.iter().all(|&b| b == 7));
        }
        server.shutdown();
    }

    #[test]
    fn slow_client_drops_do_not_block_the_broadcaster() {
        let config = NetConfig {
            queue_capacity: 4,
            overflow: OverflowPolicy::DropNewest,
            write_timeout: Some(Duration::from_millis(200)),
        };
        let server = BroadcastServer::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.addr();
        // A subscriber that never reads: its socket buffer and queue
        // fill up, after which frames must be dropped, not block.
        let stalled = TcpStream::connect(addr).expect("connect");
        while server.subscriber_count() < 1 {
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        for i in 0..20_000 {
            server.broadcast(frame_blob((i % 251) as u8));
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "broadcast loop was back-pressured by a stalled client"
        );
        assert!(server.dropped_frames() > 0, "overflowing a 4-slot queue must count drops");
        assert!(
            server.queue_peak() >= 4,
            "the queue-depth high-watermark must reach the 4-slot capacity, saw {}",
            server.queue_peak()
        );
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn new_subscriber_receives_directory_first() {
        let server =
            BroadcastServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
        server.set_directory(Arc::new(vec![9u8; 16]));
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        while server.subscriber_count() < 1 {
            std::thread::yield_now();
        }
        server.broadcast(frame_blob(1));
        let mut dir = [0u8; 16];
        client.read_exact(&mut dir).expect("directory first");
        assert!(dir.iter().all(|&b| b == 9));
        server.shutdown();
    }
}
