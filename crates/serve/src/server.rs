//! The serve daemon: acceptor + work-stealing shard pool.
//!
//! The acceptor thread distributes connections round-robin over
//! per-worker deques; an idle worker first drains its own deque, then
//! steals from the back of its peers', so a burst of slow jobs on one
//! shard cannot starve the rest. Job execution itself reuses the
//! deterministic order-preserving parallel map inside `ses-core`, so a
//! served artifact is byte-identical whatever the shard or worker count.
//!
//! Routes:
//!
//! * `POST /v1/campaign` / `/v1/suite` / `/v1/ecc-grid` / `/v1/fuzz` —
//!   run (or answer from cache) one job; the response body is the
//!   schema-versioned artifact, with `X-Cache: hit|miss` and `X-Job-Key`
//!   headers.
//! * `GET /v1/stats` — live serving counters as JSON.
//! * `GET /v1/healthz` — liveness probe.
//!
//! Every failure path (bad route, bad method, malformed JSON, invalid
//! job, worker panic) answers with a structured JSON error body and the
//! daemon keeps serving.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ses_metrics::{JsonValue, SCHEMA_VERSION};

use crate::cache::ResultCache;
use crate::http::{read_request, write_error, write_response, HttpError, Request};
use crate::job::{job_key_hash, JobSpec, SharedRuns};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            cache_bytes: 64 << 20,
            max_body_bytes: 1 << 20,
        }
    }
}

struct Shared {
    cache: ResultCache,
    runs: SharedRuns,
    queues: Vec<Mutex<VecDeque<TcpStream>>>,
    pending: Mutex<usize>,
    wake: Condvar,
    stop: AtomicBool,
    max_body: usize,
    requests: AtomicU64,
    errors: AtomicU64,
    jobs_executed: AtomicU64,
}

/// A running daemon; dropping the handle does *not* stop it — call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor and worker pool.
    pub fn start(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        } else {
            config.threads
        };
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_bytes),
            runs: SharedRuns::default(),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            max_body: config.max_body_bytes,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
        });

        let mut workers = Vec::with_capacity(threads);
        for me in 0..threads {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))?,
            );
        }

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if acceptor_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let n = acceptor_shared.queues.len();
                    // Count the connection before queueing it: a worker
                    // that pops it first would otherwise decrement
                    // `pending` below zero.
                    *acceptor_shared.pending.lock().unwrap() += 1;
                    acceptor_shared.queues[next % n]
                        .lock()
                        .unwrap()
                        .push_back(stream);
                    next = next.wrapping_add(1);
                    acceptor_shared.wake.notify_one();
                }
            })?;

        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins all threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.wake.notify_all();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            self.shared.wake.notify_all();
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        let stream = next_connection(shared, me);
        match stream {
            Some(mut stream) => handle_connection(shared, &mut stream),
            None => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Pop from our own deque front, else steal from a peer's back, else
/// sleep on the condvar until the acceptor enqueues something.
fn next_connection(shared: &Shared, me: usize) -> Option<TcpStream> {
    let n = shared.queues.len();
    loop {
        if let Some(s) = shared.queues[me].lock().unwrap().pop_front() {
            *shared.pending.lock().unwrap() -= 1;
            return Some(s);
        }
        for peer in 1..n {
            let q = (me + peer) % n;
            if let Some(s) = shared.queues[q].lock().unwrap().pop_back() {
                *shared.pending.lock().unwrap() -= 1;
                return Some(s);
            }
        }
        let pending = shared.pending.lock().unwrap();
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        if *pending > 0 {
            continue; // raced with an enqueue; retry the scan
        }
        let (_guard, timeout) = shared
            .wake
            .wait_timeout(pending, std::time::Duration::from_millis(50))
            .unwrap();
        if timeout.timed_out() && shared.stop.load(Ordering::SeqCst) {
            return None;
        }
    }
}

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let request = match read_request(stream, shared.max_body) {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            write_error(stream, &e);
            return;
        }
    };
    match route(shared, &request) {
        Ok((extra, body)) => {
            let headers: Vec<(&str, &str)> =
                extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let _ = write_response(stream, 200, &headers, &body);
        }
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            write_error(stream, &e);
        }
    }
}

type RouteOk = (Vec<(&'static str, String)>, String);

fn route(shared: &Shared, request: &Request) -> Result<RouteOk, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") | ("GET", "/healthz") => {
            let mut doc = JsonValue::object();
            doc.set("schema_version", SCHEMA_VERSION)
                .set("artifact", "health")
                .set("ok", true);
            Ok((Vec::new(), doc.render()))
        }
        ("GET", "/v1/stats") => Ok((Vec::new(), stats_body(shared))),
        ("POST", path) if path.starts_with("/v1/") => {
            let kind = &path["/v1/".len()..];
            serve_job(shared, kind, &request.body)
        }
        ("POST", _) => Err(HttpError::new(
            404,
            format!("unknown route '{}'", request.path),
        )),
        ("GET", _) => Err(HttpError::new(
            404,
            format!("unknown route '{}'", request.path),
        )),
        (method, _) => Err(HttpError::new(405, format!("method '{method}' not allowed"))),
    }
}

fn serve_job(shared: &Shared, kind: &str, body: &[u8]) -> Result<RouteOk, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::new(400, "request body is not valid UTF-8"))?;
    let doc = JsonValue::parse(text)
        .map_err(|e| HttpError::new(400, format!("malformed JSON body: {e}")))?;
    let spec =
        JobSpec::parse(kind, &doc).map_err(|e| HttpError::new(e.status, e.message.clone()))?;
    let canonical = spec.canonical();
    let key_hex = format!("{:016x}", job_key_hash(&canonical));

    let run = |spec: &JobSpec| -> Result<Arc<String>, HttpError> {
        shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
        // A panicking job must not take the worker down: catch it and
        // answer 500 (the artifact pipeline itself never panics on valid
        // configs; this is belt-and-braces for the robustness battery).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spec.execute(&shared.runs)
        }));
        match result {
            Ok(Ok(bytes)) => Ok(Arc::new(bytes)),
            Ok(Err(e)) => Err(HttpError::new(e.status, e.message)),
            Err(_) => Err(HttpError::new(500, "job execution panicked")),
        }
    };

    let (bytes, hit) = if spec.cacheable() {
        shared.cache.get_or_compute(&canonical, || run(&spec))?
    } else {
        (run(&spec)?, false)
    };
    Ok((
        vec![
            ("X-Cache", if hit { "hit" } else { "miss" }.to_string()),
            ("X-Job-Key", key_hex),
        ],
        bytes.as_str().to_string(),
    ))
}

fn stats_body(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    let mut doc = JsonValue::object();
    doc.set("schema_version", SCHEMA_VERSION)
        .set("artifact", "serve_stats")
        .set("requests", shared.requests.load(Ordering::Relaxed))
        .set("errors", shared.errors.load(Ordering::Relaxed))
        .set("jobs_executed", shared.jobs_executed.load(Ordering::Relaxed))
        .set("workers", shared.queues.len())
        .set("prepared_campaigns", shared.runs.len());
    let mut c = JsonValue::object();
    c.set("hits", cache.hits)
        .set("misses", cache.misses)
        .set("evictions", cache.evictions)
        .set("too_large", cache.too_large)
        .set("entries", cache.entries)
        .set("bytes", cache.bytes)
        .set("budget", cache.budget);
    doc.set("cache", c);
    doc.render()
}
