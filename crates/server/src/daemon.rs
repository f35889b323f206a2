//! The serving daemon: document store, worker pool, admission control,
//! and graceful shutdown.
//!
//! A [`Server`] owns a corpus of documents (keyed by `u64` id, each
//! belonging to one compiled [`Engine`] family) and a fixed worker pool
//! fed by a bounded work queue:
//!
//! * **write verbs** (`load`/`open`/`propagate`/`commit`/`close`) are
//!   admitted into the queue — or pushed back with a `retry` frame when
//!   the queue is at capacity — and executed by worker threads;
//! * **read-only verbs** (`verify`/`count`) take a fast path on the
//!   connection thread, never queueing behind writes;
//! * `hello`/`stats` are answered inline; `shutdown` drains every queued
//!   and in-flight request, replies with the final stats snapshot, and
//!   stops the accept loop;
//! * `snapshot` (a write verb) writes the committed corpus out as a flat
//!   snapshot file (`xvu_tree::snapshot`); the inverse is
//!   [`Server::preload_corpus`], the parse-free cold-start path.
//!
//! Request latencies (including queueing for writes), queue depth,
//! admission rejects, evictions, and propagation-cache counters are all
//! observable via the `stats` verb ([`crate::StatsSnapshot`]).
//!
//! ## One owner per document
//!
//! Each store entry is the only owner of its document. It sits behind
//! its own mutex and is either *open* — a [`Session`] holding the
//! document, its view and its memos — or *parked*, holding just the
//! committed document and the identifier high-water mark. The entry
//! also holds the document's pending propagation. A request locks the
//! entry for its whole duration, which isolates requests per document
//! while different documents proceed in parallel.
//!
//! At most [`ServerConfig::pool_capacity`] entries are open at once. A
//! recency list orders them; opening one more parks the least recently
//! used entry that no request holds. If every open entry is busy, the
//! request is pushed back with `retry` at once.
//!
//! Locks are taken in one order: an entry, then the recency list, then
//! other entries only by `try_lock`. No thread blocks on an entry while
//! holding the store map, the recency list or another entry.
//!
//! ## Determinism across eviction
//!
//! Parking moves the document and its fresh-identifier high-water mark
//! out of the session ([`Session::into_document`],
//! [`Session::id_gen`]) and drops only the *session-private* state: the
//! slot-keyed propagation-cache memos and intern-id map. Reopening
//! restores the floor ([`Session::merge_id_gen`]), so replies are
//! byte-identical whether or not an eviction happened in between — the
//! property the fleet differential driver ([`crate::run_fleet`]) checks
//! end to end. Structure-keyed memos live in the engine-owned
//! [`xvu_propagate::SharedMemoCache`] and **survive eviction**: a
//! reopened session re-interns its document and warms straight from the
//! shared tier instead of recomputing, and the `stats` verb reports that
//! tier separately (`shared_cache` object) from the session-local
//! counters (`cache` object). `load` and `close` reset the entry in
//! place instead, identifier floor included: a closed document starts a
//! fresh session history, exactly like a direct [`Engine::open`].

use crate::metrics::{Metrics, StatsSnapshot};
use crate::protocol::{check_hello, Frame, Recv, Verb, PROTOCOL_VERSION};
use crate::transport::{StreamTransport, Transport};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, TryLockError};
use std::time::{Duration, Instant};
use xvu_edit::{parse_script, script_to_term, Script};
use xvu_propagate::{
    count_optimal_propagations, CacheStats, Engine, Propagation, Session, SharedCacheStats,
};
use xvu_tree::{
    parse_term_with_ids, to_term_with_ids, Alphabet, CorpusBuilder, DocTree, NodeIdGen,
    SnapshotFile,
};

/// Daemon sizing and admission knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing write verbs.
    pub workers: usize,
    /// Bounded work-queue depth; writes beyond it are pushed back with
    /// `retry`.
    pub queue_capacity: usize,
    /// How many documents may hold an open session at once; the least
    /// recently used idle one is parked to make room.
    pub pool_capacity: usize,
    /// Backoff suggested to pushed-back clients, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            pool_capacity: 64,
            retry_after_ms: 2,
        }
    }
}

/// What [`Server::serve_listener`] / [`Server::serve_transport`] hand
/// back after shutdown.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// The final metrics snapshot (also sent as the `shutdown` reply).
    pub stats: StatsSnapshot,
    /// Whether every queued and in-flight request completed within the
    /// drain window.
    pub drained_clean: bool,
}

/// One stored document and everything the daemon knows about it. The
/// entry is the document's only owner.
struct Entry<'e> {
    family: usize,
    /// `None` only inside [`Entry::park`], which moves the session out.
    state: Option<DocState<'e>>,
    /// The last `propagate` result, awaiting `commit` (boxed: most
    /// entries have none, and a `Propagation` is large).
    pending: Option<Box<Propagation>>,
}

/// Where an entry's document lives.
enum DocState<'e> {
    /// An open session owns the document.
    Open(Box<Session<'e>>),
    /// No session: the committed document and, after an eviction, the
    /// identifier high-water mark to restore on reopen.
    Parked {
        doc: DocTree,
        gen: Option<NodeIdGen>,
    },
}

impl Entry<'_> {
    /// Parks an open session by move, keeping its identifier floor, and
    /// returns its final cache counters; `None` if already parked.
    fn park(&mut self) -> Option<CacheStats> {
        let Some(DocState::Open(session)) = self
            .state
            .take_if(|state| matches!(state, DocState::Open(_)))
        else {
            return None;
        };
        let stats = session.cache_stats();
        let gen = Some(session.id_gen());
        self.state = Some(DocState::Parked {
            doc: session.into_document(),
            gen,
        });
        Some(stats)
    }

    fn document(&self) -> &DocTree {
        match &self.state {
            Some(DocState::Open(session)) => session.document(),
            Some(DocState::Parked { doc, .. }) => doc,
            None => unreachable!("only park empties the state, and it refills it"),
        }
    }
}

/// A store entry, shared between the store map and the recency list.
type Shared<'e> = Arc<Mutex<Entry<'e>>>;

/// One queued write request.
struct Job {
    frame: Frame,
    enqueued: Instant,
    reply: mpsc::Sender<Frame>,
}

/// Queue state under one mutex: jobs, in-flight count, shutdown flag.
struct WorkQueue {
    jobs: VecDeque<Job>,
    in_flight: usize,
    shutdown: bool,
}

/// The long-lived serving daemon. Construct once over the compiled
/// family engines, then run [`Server::serve_listener`] (TCP) or
/// [`Server::serve_transport`] (stdio or an in-memory pipe).
pub struct Server<'e> {
    engines: &'e [Engine],
    cfg: ServerConfig,
    store: Mutex<HashMap<u64, Shared<'e>>>,
    /// The open entries, least recently used first.
    recency: Mutex<Vec<(u64, Shared<'e>)>>,
    live_cache: Mutex<HashMap<u64, CacheStats>>,
    metrics: Metrics,
    queue: Mutex<WorkQueue>,
    work_ready: Condvar,
    drained: Condvar,
    stopped: AtomicBool,
    drained_clean: AtomicBool,
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<'e> Server<'e> {
    /// A daemon serving documents of the given families.
    pub fn new(engines: &'e [Engine], cfg: ServerConfig) -> Server<'e> {
        assert!(!engines.is_empty(), "a server needs at least one family");
        Server {
            engines,
            cfg: ServerConfig {
                workers: cfg.workers.max(1),
                pool_capacity: cfg.pool_capacity.max(1),
                ..cfg
            },
            store: Mutex::new(HashMap::new()),
            recency: Mutex::new(Vec::new()),
            live_cache: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            queue: Mutex::new(WorkQueue {
                jobs: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            stopped: AtomicBool::new(false),
            drained_clean: AtomicBool::new(true),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// A current metrics snapshot (what the `stats` verb returns).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let live = {
            let map = relock(self.live_cache.lock());
            map.values().fold(CacheStats::default(), |mut acc, s| {
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.invalidated += s.invalidated;
                acc.entries += s.entries;
                acc.shared_hits += s.shared_hits;
                acc.shared_misses += s.shared_misses;
                acc.published += s.published;
                acc
            })
        };
        // The shared tier is engine-owned: its counters need no retired /
        // live split (eviction never touches it), just a sum over the
        // server's families.
        let shared = self.engines.iter().map(|e| e.shared_cache_stats()).fold(
            SharedCacheStats::default(),
            |mut acc, s| {
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.published += s.published;
                acc.entries += s.entries;
                acc
            },
        );
        let resident = relock(self.recency.lock()).len();
        self.metrics
            .snapshot(live, shared, resident, self.cfg.pool_capacity)
    }

    /// Initiates shutdown from outside a connection (equivalent to the
    /// `shutdown` verb, minus the reply).
    pub fn request_shutdown(&self) {
        self.drain(Duration::from_secs(30));
    }

    /// Whether the daemon has fully stopped accepting work.
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Serves TCP connections until a `shutdown` request completes.
    /// Every connection gets its own thread; write verbs funnel into the
    /// shared worker pool.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<ServerReport> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.worker_loop());
            }
            loop {
                if self.stopped() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                        scope.spawn(move || self.conn_loop(StreamTransport::new(stream)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            // belt and braces: if the accept loop exited abnormally, make
            // sure the workers can drain and terminate
            self.drain(Duration::from_secs(30));
        });
        Ok(self.final_report())
    }

    /// Serves one transport (the `--stdio` mode) until the peer sends
    /// `shutdown` or closes the stream; either way the queue is drained
    /// before returning.
    pub fn serve_transport<T: Transport>(&self, transport: T) -> ServerReport {
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.worker_loop());
            }
            self.conn_loop(transport);
            self.drain(Duration::from_secs(30));
        });
        self.final_report()
    }

    fn final_report(&self) -> ServerReport {
        ServerReport {
            stats: self.stats_snapshot(),
            drained_clean: self.drained_clean.load(Ordering::Acquire),
        }
    }

    // ---- connection side ------------------------------------------------

    fn conn_loop<T: Transport>(&self, mut t: T) {
        loop {
            match t.recv() {
                Ok(Recv::Idle) => {
                    if self.stopped() {
                        break;
                    }
                }
                Ok(Recv::Eof) => break,
                Ok(Recv::Frame(req)) => {
                    let resp = self.dispatch(req);
                    if t.send(&resp).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    // malformed peers get a typed error, then the
                    // connection closes (framing can no longer be trusted)
                    let _ = t.send(&Frame::err(format!("protocol error: {e}")));
                    break;
                }
            }
        }
    }

    /// Routes one request frame to its handler and produces the reply.
    fn dispatch(&self, req: Frame) -> Frame {
        self.metrics.count_request(req.verb);
        let resp = match req.verb {
            Verb::Hello => match check_hello(&req.payload) {
                Ok(()) => Frame::ok(format!("xvu {PROTOCOL_VERSION}")),
                Err(e) => Frame::err(e.to_string()),
            },
            Verb::Stats => Frame::ok(self.stats_snapshot().to_json()),
            Verb::Verify | Verb::Count => {
                if self.shutting_down() {
                    Frame::err("shutting down")
                } else {
                    let start = Instant::now();
                    let resp = self.handle_read(req.verb, &req.payload);
                    self.metrics.read_latency.record(start.elapsed());
                    resp
                }
            }
            Verb::Load
            | Verb::Open
            | Verb::Propagate
            | Verb::Commit
            | Verb::CloseDoc
            | Verb::Snapshot => self.enqueue_write(req),
            Verb::Shutdown => self.do_shutdown(),
            Verb::Ok | Verb::Err | Verb::Retry => Frame::err("not a request verb"),
        };
        if resp.verb == Verb::Err {
            self.metrics.count_error();
        }
        resp
    }

    fn shutting_down(&self) -> bool {
        relock(self.queue.lock()).shutdown
    }

    /// Admission control: bounded queue, reject-with-retry-after when
    /// deep. Blocks the connection thread until a worker replies.
    fn enqueue_write(&self, frame: Frame) -> Frame {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = relock(self.queue.lock());
            if q.shutdown {
                return Frame::err("shutting down");
            }
            if q.jobs.len() >= self.cfg.queue_capacity {
                self.metrics.rejected_writes.fetch_add(1, Ordering::Relaxed);
                return Frame::retry(self.cfg.retry_after_ms);
            }
            q.jobs.push_back(Job {
                frame,
                enqueued: Instant::now(),
                reply: tx,
            });
            self.metrics.observe_queue_depth(q.jobs.len() as u64);
            self.work_ready.notify_one();
        }
        rx.recv()
            .unwrap_or_else(|_| Frame::err("worker dropped the request"))
    }

    fn do_shutdown(&self) -> Frame {
        self.drain(Duration::from_secs(30));
        Frame::ok(self.stats_snapshot().to_json())
    }

    /// Sets the shutdown flag and waits (bounded) for queued plus
    /// in-flight work to finish; then stops the accept loop.
    fn drain(&self, window: Duration) {
        let clean = {
            let mut q = relock(self.queue.lock());
            q.shutdown = true;
            self.work_ready.notify_all();
            let deadline = Instant::now() + window;
            while !(q.jobs.is_empty() && q.in_flight == 0) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                q = relock(self.drained.wait_timeout(q, left)).0;
            }
            q.jobs.is_empty() && q.in_flight == 0
        };
        if !clean {
            self.drained_clean.store(false, Ordering::Release);
        }
        self.stopped.store(true, Ordering::Release);
    }

    // ---- worker side ----------------------------------------------------

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = relock(self.queue.lock());
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        q.in_flight += 1;
                        self.metrics.observe_queue_depth(q.jobs.len() as u64);
                        break Some(job);
                    }
                    if q.shutdown {
                        break None;
                    }
                    q = relock(self.work_ready.wait_timeout(q, Duration::from_millis(100))).0;
                }
            };
            let Some(job) = job else { return };
            let resp = self.handle_write(job.frame.verb, &job.frame.payload);
            if resp.verb == Verb::Err {
                self.metrics.count_error();
            }
            self.metrics.write_latency.record(job.enqueued.elapsed());
            let _ = job.reply.send(resp);
            let mut q = relock(self.queue.lock());
            q.in_flight -= 1;
            if q.shutdown && q.jobs.is_empty() && q.in_flight == 0 {
                self.drained.notify_all();
            }
        }
    }

    fn handle_write(&self, verb: Verb, payload: &str) -> Frame {
        match verb {
            Verb::Load => self.handle_load(payload),
            Verb::Open => self.handle_open(payload),
            Verb::Propagate => self.handle_propagate(payload),
            Verb::Commit => self.handle_commit(payload),
            Verb::CloseDoc => self.handle_close(payload),
            Verb::Snapshot => self.handle_snapshot(payload),
            other => Frame::err(format!("{} is not a write verb", other.name())),
        }
    }

    fn handle_read(&self, verb: Verb, payload: &str) -> Frame {
        match verb {
            Verb::Verify => self.handle_verify(payload),
            Verb::Count => self.handle_count(payload),
            other => Frame::err(format!("{} is not a read verb", other.name())),
        }
    }

    // ---- request handlers -----------------------------------------------

    fn handle_load(&self, payload: &str) -> Frame {
        let mut fields = payload.splitn(3, '\n');
        let (Some(id), Some(family), Some(term)) = (fields.next(), fields.next(), fields.next())
        else {
            return Frame::err("load expects doc_id\\nfamily\\nterm");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        let Ok(family) = family.parse::<usize>() else {
            return Frame::err(format!("bad family index {family:?}"));
        };
        if family >= self.engines.len() {
            return Frame::err(format!(
                "family {family} out of range (server has {})",
                self.engines.len()
            ));
        }
        let tree = match self.parse_doc(self.engines[family].alphabet(), term) {
            Ok(t) => t,
            Err(m) => return Frame::err(m),
        };
        if let Err(e) = self.engines[family].dtd().validate(&tree) {
            return Frame::err(format!("document violates the family DTD: {e}"));
        }
        self.put(doc_id, family, tree);
        Frame::ok("")
    }

    fn handle_open(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        self.with_session(doc_id, |session, _, engine| {
            Frame::ok(to_term_with_ids(session.view(), engine.alphabet()))
        })
    }

    fn handle_propagate(&self, payload: &str) -> Frame {
        let Some((id, term)) = payload.split_once('\n') else {
            return Frame::err("propagate expects doc_id\\nupdate-term");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        self.with_session(doc_id, |session, pending, engine| {
            let alpha = engine.alphabet();
            let update = match self.parse_update(alpha, term) {
                Ok(u) => u,
                Err(m) => return Frame::err(m),
            };
            let prop = match session.propagate(&update) {
                Ok(p) => p,
                Err(e) => return Frame::err(e.to_string()),
            };
            let Some(count) = count_optimal_propagations(&prop.forest) else {
                return Frame::err("optimal count overflows u128".to_owned());
            };
            let script = script_to_term(&prop.script, alpha);
            let reply = format!("{}\n{}\n{}", prop.cost, count, script);
            *pending = Some(Box::new(prop));
            Frame::ok(reply)
        })
    }

    fn handle_commit(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        let Some(shared) = self.entry(doc_id) else {
            return Frame::err(format!("unknown document {doc_id}"));
        };
        let mut entry = relock(shared.lock());
        // checked before a parked document is reopened for nothing
        if entry.pending.is_none() {
            return Frame::err(format!("document {doc_id} has no pending propagation"));
        }
        self.in_session(doc_id, &shared, &mut entry, |session, pending, _| {
            let prop = pending
                .as_deref()
                .expect("checked above, under the same lock");
            match session.commit(prop) {
                Ok(()) => {
                    *pending = None;
                    Frame::ok("")
                }
                // the propagation stays pending so the client may retry
                Err(e) => Frame::err(e.to_string()),
            }
        })
    }

    fn handle_close(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        let Some(shared) = self.entry(doc_id) else {
            return Frame::err(format!("unknown document {doc_id}"));
        };
        let mut entry = relock(shared.lock());
        self.reset(doc_id, &mut entry, None);
        Frame::ok("")
    }

    fn handle_snapshot(&self, payload: &str) -> Frame {
        let path = payload.trim();
        if path.is_empty() {
            return Frame::err("snapshot expects a destination path");
        }
        let corpus = self.encode_store();
        let docs = corpus.len();
        let bytes = corpus.finish();
        match std::fs::write(path, &bytes) {
            Ok(()) => Frame::ok(format!("docs={docs} bytes={}", bytes.len())),
            Err(e) => Frame::err(format!("cannot write snapshot {path:?}: {e}")),
        }
    }

    fn handle_verify(&self, payload: &str) -> Frame {
        let mut fields = payload.splitn(3, '\n');
        let (Some(id), Some(update), Some(candidate)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Frame::err("verify expects doc_id\\nupdate\\ncandidate");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        self.with_session(doc_id, |session, _, engine| {
            let alpha = engine.alphabet();
            let (update, candidate) = match (
                self.parse_update(alpha, update),
                self.parse_update(alpha, candidate),
            ) {
                (Ok(u), Ok(c)) => (u, c),
                (Err(m), _) | (_, Err(m)) => return Frame::err(m),
            };
            match session.verify(&update, &candidate) {
                Ok(()) => Frame::ok(""),
                Err(e) => Frame::err(e.to_string()),
            }
        })
    }

    fn handle_count(&self, payload: &str) -> Frame {
        let Some((id, term)) = payload.split_once('\n') else {
            return Frame::err("count expects doc_id\\nupdate-term");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        self.with_session(doc_id, |session, _, engine| {
            let update = match self.parse_update(engine.alphabet(), term) {
                Ok(u) => u,
                Err(m) => return Frame::err(m),
            };
            match session.count_optimal(&update) {
                Ok(n) => Frame::ok(n.to_string()),
                Err(e) => Frame::err(e.to_string()),
            }
        })
    }

    // ---- the document store ----------------------------------------------

    /// The store entry for `doc_id`, if loaded. Entries are never
    /// removed, so the handle stays the document's owner.
    fn entry(&self, doc_id: u64) -> Option<Shared<'e>> {
        relock(self.store.lock()).get(&doc_id).cloned()
    }

    /// Runs `f` on `doc_id`'s session with the entry locked; see
    /// [`Server::in_session`].
    fn with_session(
        &self,
        doc_id: u64,
        f: impl FnOnce(&mut Session<'e>, &mut Option<Box<Propagation>>, &'e Engine) -> Frame,
    ) -> Frame {
        let Some(shared) = self.entry(doc_id) else {
            return Frame::err(format!("unknown document {doc_id}"));
        };
        let mut entry = relock(shared.lock());
        self.in_session(doc_id, &shared, &mut entry, f)
    }

    /// Runs `f` on the locked `entry`'s session, opening the session
    /// first if the entry is parked. `f` also gets the entry's pending
    /// propagation and the family engine.
    fn in_session(
        &self,
        doc_id: u64,
        shared: &Shared<'e>,
        entry: &mut Entry<'e>,
        f: impl FnOnce(&mut Session<'e>, &mut Option<Box<Propagation>>, &'e Engine) -> Frame,
    ) -> Frame {
        if let Err(resp) = self.open_entry(doc_id, shared, entry) {
            return resp;
        }
        let Entry {
            family,
            state: Some(DocState::Open(session)),
            pending,
        } = entry
        else {
            unreachable!("open_entry leaves the entry open");
        };
        let resp = f(session, pending, &self.engines[*family]);
        relock(self.live_cache.lock()).insert(doc_id, session.cache_stats());
        resp
    }

    /// Makes the locked `entry` open and most recently used, reopening a
    /// parked document with its identifier floor restored.
    fn open_entry(
        &self,
        doc_id: u64,
        shared: &Shared<'e>,
        entry: &mut Entry<'e>,
    ) -> Result<(), Frame> {
        let Some(DocState::Parked { doc, gen }) = &entry.state else {
            let mut recency = relock(self.recency.lock());
            if let Some(pos) = recency.iter().position(|(id, _)| *id == doc_id) {
                let touched = recency.remove(pos);
                recency.push(touched);
            }
            return Ok(());
        };
        self.make_room(doc_id, shared)?;
        match self.engines[entry.family].open(doc) {
            Ok(mut session) => {
                if let Some(gen) = gen {
                    session.merge_id_gen(gen);
                }
                entry.state = Some(DocState::Open(Box::new(session)));
                Ok(())
            }
            Err(e) => {
                self.forget(doc_id);
                Err(Frame::err(e.to_string()))
            }
        }
    }

    /// Reserves a recency slot for `doc_id`, parking the least recently
    /// used idle entries while the open count is at capacity. Victims are
    /// taken with `try_lock`, so a busy entry is skipped, never blocked
    /// on. If every open entry is busy, replies `retry`.
    fn make_room(&self, doc_id: u64, shared: &Shared<'e>) -> Result<(), Frame> {
        let mut recency = relock(self.recency.lock());
        let mut i = 0;
        while recency.len() >= self.cfg.pool_capacity && i < recency.len() {
            let parked = match recency[i].1.try_lock() {
                Ok(mut victim) => victim.park(),
                Err(TryLockError::Poisoned(p)) => p.into_inner().park(),
                Err(TryLockError::WouldBlock) => {
                    i += 1;
                    continue;
                }
            };
            let (victim_id, _) = recency.remove(i);
            if let Some(stats) = parked {
                self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
                self.metrics.retire_cache_stats(&stats);
                relock(self.live_cache.lock()).remove(&victim_id);
            }
        }
        if recency.len() >= self.cfg.pool_capacity {
            self.metrics.rejected_writes.fetch_add(1, Ordering::Relaxed);
            return Err(Frame::retry(self.cfg.retry_after_ms));
        }
        recency.push((doc_id, Arc::clone(shared)));
        Ok(())
    }

    /// Drops `doc_id` from the recency list.
    fn forget(&self, doc_id: u64) {
        relock(self.recency.lock()).retain(|(id, _)| *id != doc_id);
    }

    /// Resets a locked entry in place, for `load` (`doc` replaces the
    /// document) and `close` (`doc` is `None`): the session is dropped,
    /// the pending propagation discarded and the identifier floor reset.
    fn reset(&self, doc_id: u64, entry: &mut Entry<'e>, doc: Option<DocTree>) {
        if let Some(stats) = entry.park() {
            self.metrics.retire_cache_stats(&stats);
            self.forget(doc_id);
        }
        relock(self.live_cache.lock()).remove(&doc_id);
        entry.pending = None;
        if let Some(DocState::Parked { doc: parked, gen }) = &mut entry.state {
            *gen = None;
            if let Some(doc) = doc {
                *parked = doc;
            }
        }
    }

    /// Stores `doc` under `doc_id` (`load` and preload): a new entry, or
    /// the existing one reset in place once any request on it finishes.
    fn put(&self, doc_id: u64, family: usize, doc: DocTree) {
        let shared = match relock(self.store.lock()).entry(doc_id) {
            MapEntry::Occupied(e) => Arc::clone(e.get()),
            MapEntry::Vacant(e) => {
                e.insert(Arc::new(Mutex::new(Entry {
                    family,
                    state: Some(DocState::Parked { doc, gen: None }),
                    pending: None,
                })));
                return;
            }
        };
        let mut entry = relock(shared.lock());
        entry.family = family;
        self.reset(doc_id, &mut entry, Some(doc));
    }

    /// Preloads the document store from a packed snapshot corpus — the
    /// cold-start path: no term/XML parsing, one bulk decode per
    /// document. Every document is checked against its family's alphabet
    /// (foreign labels are rejected, like the `load` verb) and DTD.
    /// Returns the number of documents loaded.
    pub fn preload_corpus(&self, corpus: &SnapshotFile) -> Result<usize, String> {
        let mut loaded = 0usize;
        for (i, entry) in corpus.entries().iter().enumerate() {
            let family = entry.family as usize;
            if family >= self.engines.len() {
                return Err(format!(
                    "doc {}: family {family} out of range (server has {})",
                    entry.doc_id,
                    self.engines.len()
                ));
            }
            let alpha = self.engines[family].alphabet();
            let mut scratch = alpha.clone();
            let tree = corpus
                .decode(i, &mut scratch)
                .map_err(|e| format!("doc {}: {e}", entry.doc_id))?;
            if scratch.len() != alpha.len() {
                return Err(format!(
                    "doc {}: document uses labels outside the family alphabet",
                    entry.doc_id
                ));
            }
            if let Err(e) = self.engines[family].dtd().validate(&tree) {
                return Err(format!(
                    "doc {}: document violates the family DTD: {e}",
                    entry.doc_id
                ));
            }
            self.put(entry.doc_id, family, tree);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Encodes every stored document in place — from its open session or
    /// its parked tree, evicting nothing — sorted by id, so equal stores
    /// produce byte-identical corpora. Each entry is locked in turn, so
    /// a document busy with a request is encoded once that request ends.
    fn encode_store(&self) -> CorpusBuilder {
        let mut entries: Vec<(u64, Shared<'e>)> = relock(self.store.lock())
            .iter()
            .map(|(&id, shared)| (id, Arc::clone(shared)))
            .collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut corpus = CorpusBuilder::new();
        for (id, shared) in entries {
            let entry = relock(shared.lock());
            let alpha = self.engines[entry.family].alphabet();
            corpus
                .push(id, entry.family as u32, entry.document(), alpha)
                .expect("stored documents always encode");
        }
        corpus
    }

    /// Serializes the committed store as a snapshot corpus image: what a
    /// cold restart would serve. Nothing is evicted.
    pub fn snapshot_store_bytes(&self) -> Vec<u8> {
        self.encode_store().finish()
    }

    /// Parses a script term over the family alphabet, rejecting labels
    /// the alphabet does not know.
    fn parse_update(&self, alpha: &Alphabet, term: &str) -> Result<Script, String> {
        let mut scratch = alpha.clone();
        let script =
            parse_script(&mut scratch, term).map_err(|e| format!("bad script term: {e}"))?;
        if scratch.len() != alpha.len() {
            return Err("script uses labels outside the family alphabet".to_owned());
        }
        Ok(script)
    }

    /// Parses a document term (identifiers come from the wire), rejecting
    /// unknown labels.
    fn parse_doc(&self, alpha: &Alphabet, term: &str) -> Result<DocTree, String> {
        let mut scratch = alpha.clone();
        let mut gen = NodeIdGen::new();
        let tree = parse_term_with_ids(&mut scratch, &mut gen, term)
            .map_err(|e| format!("bad document term: {e}"))?;
        if scratch.len() != alpha.len() {
            return Err("document uses labels outside the family alphabet".to_owned());
        }
        Ok(tree)
    }
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("families", &self.engines.len())
            .field("config", &self.cfg)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvu_dtd::parse_dtd;
    use xvu_tree::NodeId;
    use xvu_view::parse_annotation;

    /// DTD `r -> (a.h?)*` with `h` hidden: view of `r(a, h)` is `r(a)`.
    fn engines() -> [Engine; 1] {
        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.h?)*").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r h").unwrap();
        [Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .unwrap()]
    }

    fn server(engines: &[Engine], pool_capacity: usize) -> Server<'_> {
        Server::new(
            engines,
            ServerConfig {
                pool_capacity,
                ..ServerConfig::default()
            },
        )
    }

    /// Runs one write verb inline (no worker pool) and expects `ok`.
    fn ok(server: &Server<'_>, verb: Verb, payload: &str) -> String {
        let reply = server.handle_write(verb, payload);
        assert_eq!(reply.verb, Verb::Ok, "{verb:?} {payload:?}: {reply:?}");
        reply.payload
    }

    fn load(server: &Server<'_>, doc_id: u64, term: &str) {
        ok(server, Verb::Load, &format!("{doc_id}\n0\n{term}"));
    }

    fn open(server: &Server<'_>, doc_id: u64) -> String {
        ok(server, Verb::Open, &doc_id.to_string())
    }

    /// Documents with an open session, least recently used first.
    fn open_docs(server: &Server<'_>) -> Vec<u64> {
        relock(server.recency.lock())
            .iter()
            .map(|(id, _)| *id)
            .collect()
    }

    /// The identifier floor the entry would mint from next.
    fn floor(server: &Server<'_>, doc_id: u64) -> Option<NodeId> {
        let shared = server.entry(doc_id).unwrap();
        let entry = relock(shared.lock());
        match &entry.state {
            Some(DocState::Open(session)) => Some(session.id_gen().peek()),
            Some(DocState::Parked { gen, .. }) => gen.as_ref().map(NodeIdGen::peek),
            None => unreachable!("only park empties the state"),
        }
    }

    /// Holds `doc_id`'s entry on another thread for `hold` while `during`
    /// runs on this thread, then releases it. 300 ms is far past the 10,000-`yield_now` budget after which
    /// an earlier design stopped waiting for a busy session.
    fn while_busy<R>(
        server: &Server<'_>,
        doc_id: u64,
        hold: Duration,
        during: impl FnOnce() -> R,
    ) -> R {
        let shared = server.entry(doc_id).unwrap();
        let (busy, now_busy) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _held = relock(shared.lock());
                busy.send(()).unwrap();
                std::thread::sleep(hold);
            });
            now_busy.recv().unwrap();
            during()
        })
    }

    /// Inserts `a#{id}` after `a#1` in the view `r#0(a#1)`, then deletes
    /// it again: the document ends where it started but the session has
    /// minted past `id`.
    fn insert_then_delete(server: &Server<'_>, doc_id: u64, id: u64) {
        ok(
            server,
            Verb::Propagate,
            &format!("{doc_id}\nnop:r#0(nop:a#1, ins:a#{id})"),
        );
        ok(server, Verb::Commit, &doc_id.to_string());
        ok(
            server,
            Verb::Propagate,
            &format!("{doc_id}\nnop:r#0(nop:a#1, del:a#{id})"),
        );
        ok(server, Verb::Commit, &doc_id.to_string());
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        let engines = engines();
        let server = server(&engines, 2);
        for doc in 1..=4 {
            load(&server, doc, "r#0(a#1, h#2)");
        }
        open(&server, 1);
        open(&server, 2);
        open(&server, 3);
        assert_eq!(open_docs(&server), [2, 3], "doc 1 was least recent");
        // touching doc 2 protects it: opening doc 4 now evicts doc 3
        open(&server, 2);
        open(&server, 4);
        assert_eq!(open_docs(&server), [2, 4]);
        assert_eq!(server.stats_snapshot().evictions, 2);
    }

    #[test]
    fn an_entry_in_use_is_never_evicted() {
        let engines = engines();
        let server = server(&engines, 2);
        for doc in 1..=3 {
            load(&server, doc, "r#0(a#1, h#2)");
        }
        open(&server, 1);
        open(&server, 2);
        let busy = server.entry(1).unwrap();
        let held = relock(busy.lock());
        // doc 1 is least recent but busy: doc 2 is evicted instead
        open(&server, 3);
        drop(held);
        assert_eq!(open_docs(&server), [1, 3]);
        assert!(matches!(relock(busy.lock()).state, Some(DocState::Open(_))));
    }

    #[test]
    fn all_busy_entries_push_a_new_document_back() {
        let engines = engines();
        let server = server(&engines, 2);
        for doc in 1..=3 {
            load(&server, doc, "r#0(a#1, h#2)");
        }
        open(&server, 1);
        open(&server, 2);
        let (one, two) = (server.entry(1).unwrap(), server.entry(2).unwrap());
        let held = (relock(one.lock()), relock(two.lock()));
        let reply = server.handle_write(Verb::Open, "3");
        assert_eq!(reply.verb, Verb::Retry, "{reply:?}");
        let stats = server.stats_snapshot();
        assert_eq!((stats.pool_resident, stats.pool_capacity), (2, 2));
        assert_eq!(stats.rejected_writes, 1);
        drop(held);
        // with the entries idle again the same request succeeds by eviction
        assert_eq!(open(&server, 3), "r#0(a#1)");
        assert_eq!(open_docs(&server), [2, 3]);
    }

    #[test]
    fn close_resets_the_identifier_floor() {
        let engines = engines();
        let server = server(&engines, 4);
        load(&server, 1, "r#0(a#1, h#2)");
        open(&server, 1);
        insert_then_delete(&server, 1, 50);
        assert!(floor(&server, 1).unwrap() > NodeId(50));
        ok(&server, Verb::CloseDoc, "1");
        assert!(open_docs(&server).is_empty());
        assert_eq!(floor(&server, 1), None);
        // reopening starts a fresh history, like a direct Engine::open
        open(&server, 1);
        let fresh = engines[0]
            .open(
                &parse_term_with_ids(
                    &mut engines[0].alphabet().clone(),
                    &mut NodeIdGen::new(),
                    "r#0(a#1, h#2)",
                )
                .unwrap(),
            )
            .unwrap()
            .id_gen()
            .peek();
        assert_eq!(floor(&server, 1), Some(fresh));
    }

    #[test]
    fn evict_and_reopen_preserve_the_identifier_floor() {
        let engines = engines();
        let server = server(&engines, 1);
        load(&server, 1, "r#0(a#1, h#2)");
        load(&server, 2, "r#0(a#1)");
        open(&server, 1);
        insert_then_delete(&server, 1, 50);
        let before = floor(&server, 1).unwrap();
        assert!(before > NodeId(50));
        open(&server, 2); // evicts doc 1
        assert_eq!(open_docs(&server), [2]);
        assert_eq!(floor(&server, 1), Some(before), "parked with its floor");
        open(&server, 1); // evicts doc 2, reopens doc 1
        assert_eq!(floor(&server, 1), Some(before));
        assert_eq!(server.stats_snapshot().evictions, 2);
    }

    #[test]
    fn load_while_busy_is_what_the_next_open_serves() {
        let engines = engines();
        let server = server(&engines, 4);
        load(&server, 1, "r#0(a#1, h#2)");
        assert_eq!(open(&server, 1), "r#0(a#1)");
        while_busy(&server, 1, Duration::from_millis(300), || {
            load(&server, 1, "r#0(a#1, a#3)");
        });
        assert_eq!(open(&server, 1), "r#0(a#1, a#3)");
    }

    #[test]
    fn snapshot_while_busy_contains_the_commit() {
        let engines = engines();
        let server = server(&engines, 4);
        load(&server, 1, "r#0(a#1, h#2)");
        load(&server, 2, "r#0(a#1)");
        open(&server, 1);
        ok(&server, Verb::Propagate, "1\nnop:r#0(nop:a#1, ins:a#50)");
        ok(&server, Verb::Commit, "1");
        let path =
            std::env::temp_dir().join(format!("xvu-daemon-snapshot-{}.xvus", std::process::id()));
        let reply = while_busy(&server, 1, Duration::from_millis(300), || {
            ok(&server, Verb::Snapshot, path.to_str().unwrap())
        });
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reply, format!("docs=2 bytes={}", bytes.len()));
        let corpus = SnapshotFile::from_bytes(bytes).unwrap();
        assert_eq!(corpus.entries().len(), 2);
        let mut alpha = engines[0].alphabet().clone();
        let doc = corpus.decode(0, &mut alpha).unwrap();
        let term = to_term_with_ids(&doc, &alpha);
        assert!(term.contains("a#50"), "committed insert missing: {term}");
        // encoding is in place: nothing was evicted
        assert_eq!(open_docs(&server), [1]);
    }

    #[test]
    fn load_discards_the_pending_propagation() {
        let engines = engines();
        let server = server(&engines, 4);
        load(&server, 1, "r#0(a#1, h#2)");
        ok(&server, Verb::Propagate, "1\nnop:r#0(nop:a#1, ins:a#50)");
        load(&server, 1, "r#0(a#1)");
        let reply = server.handle_write(Verb::Commit, "1");
        assert_eq!(reply.verb, Verb::Err);
        assert!(
            reply.payload.contains("no pending propagation"),
            "{reply:?}"
        );
        assert!(
            open_docs(&server).is_empty(),
            "nothing to commit, nothing reopened"
        );
        assert_eq!(open(&server, 1), "r#0(a#1)");
    }
}
