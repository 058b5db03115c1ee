//! TCP line-protocol server.
//!
//! "When the core components of the toolkit run as a server, we found it
//! very convenient to allow clients to issue queries" (paper §4.1.4). The
//! server speaks the command-line protocol over TCP with a **bounded
//! worker pool** over a shared service:
//!
//! * Commands are classified read vs. write ([`Command::is_read`]). Reads
//!   execute through [`FerretService::execute_read`] under
//!   `RwLock::read()`, so N connections run N queries concurrently —
//!   each still using the engine's sharded scan internally. Only writes
//!   (`delete`) take the exclusive lock.
//! * A fixed number of worker threads ([`ServeConfig::workers`]) serve
//!   connections from a bounded queue ([`ServeConfig::queue_depth`]);
//!   when the queue is full, new connections get one `BUSY` line and are
//!   closed instead of piling up.
//! * Admission control ([`AdmissionControl`]) caps in-flight queries
//!   across the process; a saturated server answers `BUSY` immediately
//!   rather than queueing forever.
//! * Shutdown drains gracefully: workers finish the command in flight,
//!   then close their connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use ferret_core::telemetry::MetricsRegistry;

use crate::admission::AdmissionControl;
use crate::protocol::{parse_command, render_error, render_reply, Command, BUSY_LINE};
use crate::service::FerretService;

/// Serving configuration shared by the TCP and HTTP servers.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving connections. A connection occupies its
    /// worker until it disconnects, so this also bounds concurrently
    /// *connected* clients.
    pub workers: usize,
    /// Connections allowed to wait for a free worker before new arrivals
    /// are turned away with a `BUSY` line.
    pub queue_depth: usize,
    /// Maximum queries executing at once across all connections
    /// (`0` = unlimited); excess queries get `BUSY`/503.
    pub max_inflight: usize,
    /// Artificial latency injected per admitted query (slot held while
    /// sleeping) — a load/soak-testing knob, `None` in production.
    pub hold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(4);
        Self {
            workers,
            queue_depth: 4 * workers,
            max_inflight: 4 * workers,
            hold: None,
        }
    }
}

/// Shared state between an accept loop and its connection workers
/// (used by both the TCP and HTTP servers).
pub(crate) struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    pub(crate) fn new(depth: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues a connection; on a full queue the stream is handed back
    /// so the caller can reject it.
    pub(crate) fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().expect("queue poisoned");
        if q.len() >= self.depth {
            return Err(stream);
        }
        q.push_back(stream);
        self.ready.notify_one();
        Ok(())
    }

    /// Wakes every waiting worker (used during shutdown).
    pub(crate) fn notify_all(&self) {
        self.ready.notify_all();
    }

    /// Pops the next connection, or `None` once `shutdown` is set.
    pub(crate) fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            // ordering: Relaxed; flag only ends the wait loop, queue mutex + join order the rest
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(100))
                .expect("queue poisoned");
            q = guard;
        }
    }
}

/// Everything a connection worker needs to serve commands.
struct ServeContext {
    service: Arc<RwLock<FerretService>>,
    admission: Arc<AdmissionControl>,
    registry: Option<Arc<MetricsRegistry>>,
    hold: Option<Duration>,
}

impl ServeContext {
    fn observe_lock_wait(&self, lock: &str, waited: Duration) {
        if let Some(reg) = &self.registry {
            reg.observe_latency(
                "ferret_lock_wait_seconds",
                "Time spent waiting for the service lock, by lock kind.",
                &[("lock", lock)],
                waited,
            );
        }
    }

    /// Executes one parsed command with read/write dispatch, admission
    /// control, and lock-wait accounting; returns the rendered reply.
    fn dispatch(&self, command: &Command) -> String {
        if command.is_read() {
            // Similarity queries are the expensive reads; they are the
            // unit admission control meters.
            let _slot = if matches!(command, Command::Query { .. }) {
                match self.admission.try_admit() {
                    Some(guard) => Some(guard),
                    None => return BUSY_LINE.to_string(),
                }
            } else {
                None
            };
            let start = Instant::now();
            let svc = self.service.read();
            self.observe_lock_wait("read", start.elapsed());
            let reply = match svc.execute_read(command) {
                Ok(resp) => render_reply(command, &resp),
                Err(e) => render_error(&e),
            };
            drop(svc);
            if let (Some(hold), Command::Query { .. }) = (self.hold, command) {
                std::thread::sleep(hold);
            }
            reply
        } else {
            let start = Instant::now();
            let mut svc = self.service.write();
            self.observe_lock_wait("write", start.elapsed());
            match svc.execute(command) {
                Ok(resp) => render_reply(command, &resp),
                Err(e) => render_error(&e),
            }
        }
    }
}

/// A running TCP server.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts serving `service` on `addr` (use port 0 for an ephemeral
    /// port) with default [`ServeConfig`] and a private admission
    /// controller. Returns once the listener is bound.
    pub fn start(service: Arc<RwLock<FerretService>>, addr: &str) -> std::io::Result<Self> {
        let config = ServeConfig::default();
        let registry = service.read().telemetry().cloned();
        let admission = Arc::new(AdmissionControl::new(
            config.max_inflight,
            registry.as_ref(),
        ));
        Self::start_with(service, addr, config, admission)
    }

    /// Starts serving with an explicit configuration and admission
    /// controller. Pass the same controller to the HTTP server to cap
    /// in-flight queries across both surfaces.
    pub fn start_with(
        service: Arc<RwLock<FerretService>>,
        addr: &str,
        config: ServeConfig,
        admission: Arc<AdmissionControl>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_accept = Arc::clone(&shutdown);
        let registry = service.read().telemetry().cloned();
        let context = Arc::new(ServeContext {
            service,
            admission,
            registry,
            hold: config.hold,
        });
        let queue = Arc::new(ConnQueue::new(config.queue_depth));
        // Nonblocking accept loop so shutdown is prompt.
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let handle = std::thread::spawn(move || {
            let pool: Vec<_> = (0..workers)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let stop = Arc::clone(&shutdown_accept);
                    let ctx = Arc::clone(&context);
                    std::thread::spawn(move || {
                        while let Some(stream) = queue.pop(&stop) {
                            let _ = handle_connection(stream, &ctx, &stop);
                        }
                    })
                })
                .collect();
            loop {
                // ordering: Relaxed; stop flag carries no data, stop()/drop join after
                if shutdown_accept.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Err(mut rejected) = queue.push(stream) {
                            // Queue full: one BUSY line, then close.
                            let _ = rejected.write_all(BUSY_LINE.as_bytes());
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            queue.notify_all();
            for w in pool {
                let _ = w.join();
            }
        });
        Ok(Self {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop and workers (graceful
    /// drain: each worker finishes the command in flight first).
    pub fn stop(mut self) {
        // ordering: Relaxed; the join below is the real synchronization point
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // ordering: Relaxed; the join below is the real synchronization point
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    context: &ServeContext,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(b"ferret ready\n")?;
    let mut line = String::new();
    loop {
        // ordering: Relaxed; graceful-drain check between commands, no data rides on it
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF.
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                // Parse outside any lock; only execution needs the
                // service.
                let reply = match parse_command(trimmed) {
                    Ok(cmd) => context.dispatch(&cmd),
                    Err(e) => render_error(&e),
                };
                writer.write_all(reply.as_bytes())?;
                writer.flush()?;
                if reply.starts_with("OK bye") {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    Ok(())
}

/// A minimal blocking client for the line protocol (used by tools, tests,
/// and the web interface).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and consumes the greeting line.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        reader.read_line(&mut greeting)?;
        Ok(Self { reader, writer })
    }

    /// Sends one command and reads the full response.
    ///
    /// The first line is `OK <n>` / `OK <tag>` / `ERR <msg>`; `n` further
    /// payload lines follow for numeric statuses, and help responses are
    /// read until their known length.
    pub fn send(&mut self, command: &str) -> std::io::Result<String> {
        self.writer.write_all(command.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut status = String::new();
        self.reader.read_line(&mut status)?;
        let mut out = status.clone();
        let mut extra_lines = 0usize;
        if let Some(rest) = status.strip_prefix("OK ") {
            let tag = rest.trim();
            if let Ok(n) = tag.parse::<usize>() {
                extra_lines = n;
            } else if tag == "help" {
                extra_lines = crate::protocol::HELP_TEXT.lines().count();
            }
        }
        for _ in 0..extra_lines {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            out.push_str(&line);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_core::engine::EngineConfig;
    use ferret_core::object::{DataObject, ObjectId};
    use ferret_core::sketch::SketchParams;
    use ferret_core::vector::FeatureVector;

    fn service() -> Arc<RwLock<FerretService>> {
        let config = EngineConfig::basic(
            SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(),
            3,
        );
        let mut svc = FerretService::in_memory(config).unwrap();
        for i in 0..5u64 {
            let x = 0.1 + i as f32 * 0.2;
            svc.insert(
                ObjectId(i),
                DataObject::single(FeatureVector::new(vec![x, x]).unwrap()),
                None,
            )
            .unwrap();
        }
        Arc::new(RwLock::new(svc))
    }

    #[test]
    fn query_over_tcp() {
        let server = Server::start(service(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.send("query id=0 k=2 mode=brute").unwrap();
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK 2");
        assert!(lines[1].starts_with("0 "));
        assert!(lines[2].starts_with("1 "));
        server.stop();
    }

    #[test]
    fn multiple_commands_one_connection() {
        let server = Server::start(service(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.send("stat").unwrap().contains("objects 5"));
        assert!(client.send("help").unwrap().contains("delete id=<n>"));
        assert!(client.send("bogus").unwrap().starts_with("ERR"));
        assert!(client.send("quit").unwrap().starts_with("OK bye"));
        server.stop();
    }

    #[test]
    fn concurrent_clients() {
        let server = Server::start(service(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..5 {
                        let reply = c.send("query id=1 k=3 mode=sketch").unwrap();
                        assert!(reply.starts_with("OK 3"), "{reply}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn mutation_over_tcp_is_shared() {
        let svc = service();
        let server = Server::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.send("delete id=4").unwrap(), "OK\n");
        assert_eq!(svc.read().engine().len(), 4);
        server.stop();
    }

    #[test]
    fn saturated_admission_returns_busy_not_a_hang() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
        let config = ServeConfig {
            workers: 4,
            queue_depth: 8,
            max_inflight: 1,
            hold: Some(Duration::from_millis(400)),
        };
        let server =
            Server::start_with(Arc::clone(&svc), "127.0.0.1:0", config, admission).unwrap();
        let addr = server.addr();

        // One client occupies the single slot for ≥400ms...
        let slow = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.send("query id=0 k=2 mode=brute").unwrap()
        });
        // Start the second client only once the slow query holds the
        // slot; otherwise the second client may win the race for it and
        // never see BUSY.
        let inflight = registry.gauge("ferret_inflight_queries", "", &[]);
        let deadline = Instant::now() + Duration::from_secs(10);
        while inflight.get() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...while a second keeps trying until it gets turned away. The
        // reply must come back promptly (BUSY, not a queued hang).
        let mut fast = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_busy = false;
        while Instant::now() < deadline {
            let start = Instant::now();
            let reply = fast.send("query id=1 k=1 mode=brute").unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "reply took {:?}",
                start.elapsed()
            );
            if reply.starts_with("ERR BUSY") {
                saw_busy = true;
                break;
            }
            assert!(reply.starts_with("OK"), "{reply}");
        }
        assert!(saw_busy, "saturating the limit never produced BUSY");
        assert!(slow.join().unwrap().starts_with("OK"));
        assert!(
            registry
                .counter_value("ferret_rejected_total", &[])
                .unwrap()
                >= 1
        );
        server.stop();
    }

    #[test]
    fn non_query_commands_bypass_admission() {
        let svc = service();
        let registry = Arc::new(ferret_core::telemetry::MetricsRegistry::new());
        svc.write().enable_telemetry(Arc::clone(&registry));
        // A zero-slot controller rejects every query...
        let admission = Arc::new(AdmissionControl::new(1, Some(&registry)));
        let _held = admission.try_admit().unwrap();
        let config = ServeConfig {
            workers: 2,
            queue_depth: 4,
            max_inflight: 1,
            hold: None,
        };
        let server =
            Server::start_with(Arc::clone(&svc), "127.0.0.1:0", config, admission).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // ...but stat/attr/help/delete still work.
        assert!(client.send("query id=0").unwrap().starts_with("ERR BUSY"));
        assert!(client.send("stat").unwrap().contains("objects 5"));
        assert_eq!(client.send("delete id=4").unwrap(), "OK\n");
        server.stop();
    }
}
