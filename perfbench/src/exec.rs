//! The two executors of a plan: direct `Session` calls in this process,
//! and a daemon driven over one loopback `Client` connection. Both check
//! every reply against the plan's fingerprint and time each call; with a
//! tracer they also record spans and work counters.

use crate::plan::Bench;
use crate::trace::{
    live_bytes, nonvoluntary_switches, peak_bytes, process_cpu_s, reset_peak, timed, AllocCount,
    Tracer,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};
use xvu_edit::{script_footprint, script_to_term};
use xvu_propagate::{count_optimal_propagations, CacheStats, Engine, Propagation, Session};
use xvu_server::{Client, Server, ServerConfig};
use xvu_tree::{to_term_with_ids, Alphabet, DocTree, SnapshotFile};
use xvu_workload::fleet::{FleetFamily, FleetOp, FleetOpKind};

/// Samples of one replay of a plan: its set-up time and, for the timed
/// region after it, per-operation latencies and host counters.
#[derive(Debug, Default)]
pub struct Round {
    pub setup: Duration,
    /// Write and read latencies, in µs.
    pub writes: Vec<f64>,
    pub reads: Vec<f64>,
    /// Sum of the timed operation windows.
    pub busy: Duration,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Live heap before set-up: the plan and earlier rounds' samples.
    baseline: usize,
    /// Peak live heap during the timed region, above `baseline`.
    pub mem_peak: usize,
    pub wall: Duration,
    pub cpu_s: f64,
    pub nonvoluntary: u64,
}

impl Round {
    pub fn ops(&self) -> usize {
        self.writes.len() + self.reads.len()
    }

    fn fail(&mut self, op: usize, what: String) {
        self.failures.push(format!("op {op}: {what}"));
    }

    fn write(&mut self, d: Duration) {
        self.writes.push(d.as_secs_f64() * 1e6);
        self.busy += d;
    }

    fn read(&mut self, d: Duration) {
        self.reads.push(d.as_secs_f64() * 1e6);
        self.busy += d;
    }

    fn start_timed_region(&mut self) -> (Instant, f64, u64) {
        reset_peak();
        (Instant::now(), process_cpu_s(), nonvoluntary_switches())
    }

    fn end_timed_region(&mut self, (t0, cpu0, nv0): (Instant, f64, u64)) {
        self.wall = t0.elapsed();
        self.cpu_s = process_cpu_s() - cpu0;
        self.nonvoluntary = nonvoluntary_switches() - nv0;
        self.mem_peak = peak_bytes().saturating_sub(self.baseline);
    }
}

/// Opens the per-operation root span when tracing.
fn root(tr: &mut Option<&mut Tracer>, req: u64) -> u32 {
    tr.as_deref_mut().map_or(0, |t| t.open("bench.op", req, 0))
}

fn close(tr: &mut Option<&mut Tracer>, handle: u32) {
    if let Some(t) = tr.as_deref_mut() {
        t.close(handle);
    }
}

fn build_engines(families: &[FleetFamily]) -> Vec<Engine> {
    families.iter().map(FleetFamily::engine).collect()
}

/// Decodes every document of the corpus image into its family alphabet,
/// indexed by document id.
fn decode_corpus(bench: &Bench, bytes: Vec<u8>) -> Result<Vec<DocTree>, String> {
    let corpus = SnapshotFile::from_bytes(bytes).map_err(|e| e.to_string())?;
    (0..corpus.len())
        .map(|i| {
            let family = corpus.entries()[i].family as usize;
            let mut alpha: Alphabet = bench.plan.families[family].alpha.clone();
            corpus.decode(i, &mut alpha).map_err(|e| e.to_string())
        })
        .collect()
}

fn cache_delta(after: CacheStats, before: CacheStats, tr: &mut Option<&mut Tracer>) {
    if let Some(t) = tr.as_deref_mut() {
        let c = &mut t.counters;
        c.cache_hits += after.hits - before.hits;
        c.cache_misses += after.misses - before.misses;
        c.shared_hits += after.shared_hits - before.shared_hits;
        c.shared_misses += after.shared_misses - before.shared_misses;
        c.invalidated += after.invalidated - before.invalidated;
    }
}

/// One document of the in-process replay.
struct LibDoc<'e> {
    stored: DocTree,
    session: Option<Session<'e>>,
    /// The propagation awaiting commit, its latency and its allocations.
    pending: Option<(Propagation, Duration, AllocCount)>,
}

/// Replays the plan once on direct sessions. Set-up is engine compile,
/// corpus decode and the first `Engine::open`. A write is one edit
/// (`propagate` + `commit`); a read is one `verify` or `count`.
pub fn library_round(bench: &Bench, tr: &mut Option<&mut Tracer>, req: &mut u64) -> Round {
    let mut round = Round {
        baseline: live_bytes(),
        ..Round::default()
    };
    let plan = &bench.plan;
    let bytes = bench.corpus.clone();
    *req += 1;
    let t0 = Instant::now();
    let (engines, _) = timed(tr, "xvu_propagate.engine_build", *req, 0, || {
        build_engines(&plan.families)
    });
    let (decoded, _) = timed(tr, "xvu_tree.decode", *req, 0, || {
        decode_corpus(bench, bytes)
    });
    let decoded = match decoded {
        Ok(d) => d,
        Err(e) => {
            round.attempted += 1;
            round.fail(0, format!("corpus decode: {e}"));
            return round;
        }
    };
    let mut docs: Vec<LibDoc<'_>> = decoded
        .into_iter()
        .map(|stored| LibDoc {
            stored,
            session: None,
            pending: None,
        })
        .collect();
    let ops = &plan.ops;
    library_op(bench, &engines, &mut docs, 0, tr, *req, &mut round);
    round.setup = t0.elapsed();

    let region = round.start_timed_region();
    for i in 1..ops.len() {
        *req += 1;
        library_op(bench, &engines, &mut docs, i, tr, *req, &mut round);
    }
    round.end_timed_region(region);
    if let Some(t) = tr.as_deref_mut() {
        t.counters.doc_nodes = docs
            .iter()
            .map(|d| {
                d.session
                    .as_ref()
                    .map_or(&d.stored, |s| s.document())
                    .size()
            })
            .sum();
    }
    round
}

fn library_op<'e>(
    bench: &Bench,
    engines: &'e [Engine],
    docs: &mut [LibDoc<'e>],
    i: usize,
    tr: &mut Option<&mut Tracer>,
    req: u64,
    round: &mut Round,
) {
    let op: &FleetOp = &bench.plan.ops[i];
    let family = bench.plan.docs[op.doc as usize].family;
    let alpha = &bench.plan.families[family].alpha;
    let doc = &mut docs[op.doc as usize];
    if matches!(op.kind, FleetOpKind::Idle(_)) {
        return;
    }
    round.attempted += 1;
    if !matches!(op.kind, FleetOpKind::Open) && doc.session.is_none() {
        round.fail(i, format!("document {} is not open", op.doc));
        return;
    }
    let r = root(tr, req);
    match &op.kind {
        FleetOpKind::Open => {
            let (opened, _) = timed(tr, "xvu_propagate.open", req, r, || {
                engines[family].open(&doc.stored)
            });
            match opened {
                Ok(s) => {
                    if Some(to_term_with_ids(s.view(), alpha)) != op.expect.view {
                        round.fail(i, "open: view differs".to_owned());
                    }
                    doc.session = Some(s);
                }
                Err(e) => round.fail(i, format!("open: {e}")),
            }
        }
        FleetOpKind::Propagate(update) => {
            let s = doc.session.as_ref().expect("checked above");
            let traced = tr.is_some();
            if traced {
                let _ = timed(tr, "xvu_propagate.instance", req, r, || {
                    s.instance(update).map(|_| ())
                });
            }
            let before = traced.then(|| s.cache_stats());
            let a0 = AllocCount::now();
            let (res, d) = timed(tr, "xvu_propagate.propagate", req, r, || {
                s.propagate(update)
            });
            let allocs = AllocCount::now().since(a0);
            if let Some(before) = before {
                cache_delta(s.cache_stats(), before, tr);
            }
            match res {
                Ok(prop) => {
                    let (count, _) = timed(tr, "xvu_propagate.forest_count", req, r, || {
                        count_optimal_propagations(&prop.forest)
                    });
                    if Some(prop.cost) != op.expect.cost
                        || count != op.expect.count
                        || Some(script_to_term(&prop.script, alpha)) != op.expect.script
                    {
                        round.fail(i, "propagate: cost, count or script differs".to_owned());
                    }
                    if let Some(t) = tr.as_deref_mut() {
                        let (nodes, _) = timed(&mut Some(&mut *t), "xvu_edit.size", req, r, || {
                            prop.script.size()
                        });
                        let (changed, _) =
                            timed(&mut Some(&mut *t), "xvu_edit.footprint", req, r, || {
                                script_footprint(&prop.script).changed().len()
                            });
                        t.counters.script_nodes.push(nodes as f64);
                        t.counters.changed_nodes.push(changed as f64);
                    }
                    doc.pending = Some((prop, d, allocs));
                }
                Err(e) => round.fail(i, format!("propagate: {e}")),
            }
        }
        FleetOpKind::Verify { update, candidate } => {
            let s = doc.session.as_ref().expect("checked above");
            let (res, d) = timed(tr, "xvu_propagate.verify", req, r, || {
                s.verify(update, candidate)
            });
            round.read(d);
            if let Err(e) = res {
                round.fail(i, format!("verify: {e}"));
            }
        }
        FleetOpKind::Count(update) => {
            let s = doc.session.as_ref().expect("checked above");
            let (res, d) = timed(tr, "xvu_propagate.count", req, r, || {
                s.count_optimal(update)
            });
            round.read(d);
            match res {
                Ok(n) if Some(n) == op.expect.count => {}
                Ok(n) => round.fail(i, format!("count: got {n}, want {:?}", op.expect.count)),
                Err(e) => round.fail(i, format!("count: {e}")),
            }
        }
        FleetOpKind::Commit => {
            let s = doc.session.as_mut().expect("checked above");
            let Some((prop, prop_d, prop_allocs)) = doc.pending.take() else {
                round.fail(i, "commit: nothing pending".to_owned());
                close(tr, r);
                return;
            };
            let before = tr.is_some().then(|| s.cache_stats());
            let a0 = AllocCount::now();
            let (res, d) = timed(tr, "xvu_propagate.commit", req, r, || s.commit(&prop));
            let allocs = AllocCount::now().since(a0);
            round.write(prop_d + d);
            if let Err(e) = res {
                round.fail(i, format!("commit: {e}"));
            }
            if let Some(before) = before {
                cache_delta(s.cache_stats(), before, tr);
                let c = &mut tr.as_deref_mut().expect("traced").counters;
                c.commits += 1;
                c.edit_allocs
                    .push((prop_allocs.allocs + allocs.allocs) as f64);
                c.edit_bytes.push((prop_allocs.bytes + allocs.bytes) as f64);
            }
        }
        FleetOpKind::Close => {
            let s = doc.session.take().expect("checked above");
            let (stored, _) = timed(tr, "xvu_tree.clone", req, r, || s.document().clone());
            doc.stored = stored;
            doc.pending = None;
        }
        FleetOpKind::Idle(_) => unreachable!("skipped above"),
    }
    close(tr, r);
}

/// Replays the plan once against a fresh in-process daemon over one TCP
/// connection. Set-up is engine compile, corpus parse, `Server::new`,
/// `preload_corpus` and the first reply (the `hello` handshake). Writes
/// are `open`/`propagate`/`commit`/`close` round trips; reads are
/// `verify`/`count` round trips.
pub fn daemon_round(bench: &Bench, tr: &mut Option<&mut Tracer>, req: &mut u64) -> Round {
    let mut round = Round {
        baseline: live_bytes(),
        ..Round::default()
    };
    let plan = &bench.plan;
    let bytes = bench.corpus.clone();
    *req += 1;
    let t0 = Instant::now();
    let (engines, _) = timed(tr, "xvu_propagate.engine_build", *req, 0, || {
        build_engines(&plan.families)
    });
    let (corpus, _) = timed(tr, "xvu_tree.decode", *req, 0, || {
        SnapshotFile::from_bytes(bytes)
    });
    let server = Server::new(
        &engines,
        ServerConfig {
            pool_capacity: bench.pool_capacity,
            ..ServerConfig::default()
        },
    );
    round.attempted += 1;
    let preloaded = match corpus {
        Ok(c) => {
            timed(tr, "xvu_server.preload", *req, 0, || {
                server.preload_corpus(&c)
            })
            .0
        }
        Err(e) => Err(e.to_string()),
    };
    if let Err(e) = preloaded {
        round.fail(0, format!("preload: {e}"));
        return round;
    }
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            round.fail(0, format!("bind: {e}"));
            return round;
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_listener(listener));
        let (client, _) = timed(tr, "xvu_server.connect", *req, 0, || Client::connect(&addr));
        round.setup = t0.elapsed();
        match client {
            Ok(mut client) => {
                let region = round.start_timed_region();
                for i in 0..plan.ops.len() {
                    *req += 1;
                    daemon_op(bench, &mut client, i, tr, *req, &mut round);
                }
                round.end_timed_region(region);
                if let Some(t) = tr.as_deref_mut() {
                    let s = server.stats_snapshot();
                    let c = &mut t.counters;
                    c.evictions += s.evictions;
                    c.server_cache_hits += s.cache_hits;
                    c.server_cache_misses += s.cache_misses;
                    c.server_shared_hits += s.shared_hits;
                    c.server_shared_misses += s.shared_misses;
                    c.queue_max = c.queue_max.max(s.queue_max);
                    c.rejected_writes += s.rejected_writes;
                    c.retries += client.retries();
                }
            }
            Err(e) => round.fail(0, format!("connect: {e}")),
        }
        server.request_shutdown();
        match serving.join() {
            Ok(Ok(report)) if report.drained_clean => {}
            Ok(Ok(_)) => round.fail(0, "daemon did not drain cleanly".to_owned()),
            Ok(Err(e)) => round.fail(0, format!("serve: {e}")),
            Err(_) => round.fail(0, "server thread panicked".to_owned()),
        }
    });
    round
}

fn daemon_op<T: xvu_server::Transport>(
    bench: &Bench,
    client: &mut Client<T>,
    i: usize,
    tr: &mut Option<&mut Tracer>,
    req: u64,
    round: &mut Round,
) {
    let op = &bench.plan.ops[i];
    let wire = &bench.wire[i];
    let doc = op.doc;
    if matches!(op.kind, FleetOpKind::Idle(_)) {
        return;
    }
    round.attempted += 1;
    let r = root(tr, req);
    let failed = match &op.kind {
        FleetOpKind::Open => {
            let (res, d) = timed(tr, "xvu_server.open", req, r, || client.open(doc));
            round.write(d);
            match res {
                Ok(view) if Some(&view) == op.expect.view.as_ref() => None,
                Ok(_) => Some("open: view differs".to_owned()),
                Err(e) => Some(format!("open: {e}")),
            }
        }
        FleetOpKind::Propagate(_) => {
            let (res, d) = timed(tr, "xvu_server.propagate", req, r, || {
                client.propagate(doc, &wire.update)
            });
            round.write(d);
            match res {
                Ok(p)
                    if Some(p.cost) == op.expect.cost
                        && Some(p.count) == op.expect.count
                        && Some(&p.script) == op.expect.script.as_ref() =>
                {
                    None
                }
                Ok(_) => Some("propagate: cost, count or script differs".to_owned()),
                Err(e) => Some(format!("propagate: {e}")),
            }
        }
        FleetOpKind::Verify { .. } => {
            let (res, d) = timed(tr, "xvu_server.verify", req, r, || {
                client.verify(doc, &wire.update, &wire.candidate)
            });
            round.read(d);
            res.err().map(|e| format!("verify: {e}"))
        }
        FleetOpKind::Count(_) => {
            let (res, d) = timed(tr, "xvu_server.count", req, r, || {
                client.count(doc, &wire.update)
            });
            round.read(d);
            match res {
                Ok(n) if Some(n) == op.expect.count => None,
                Ok(n) => Some(format!("count: got {n}, want {:?}", op.expect.count)),
                Err(e) => Some(format!("count: {e}")),
            }
        }
        FleetOpKind::Commit => {
            let (res, d) = timed(tr, "xvu_server.commit", req, r, || client.commit(doc));
            round.write(d);
            res.err().map(|e| format!("commit: {e}"))
        }
        FleetOpKind::Close => {
            let (res, d) = timed(tr, "xvu_server.close", req, r, || client.close_doc(doc));
            round.write(d);
            res.err().map(|e| format!("close: {e}"))
        }
        FleetOpKind::Idle(_) => unreachable!("skipped above"),
    };
    if let Some(what) = failed {
        round.fail(i, what);
    }
    close(tr, r);
}
