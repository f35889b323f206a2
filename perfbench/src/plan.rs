//! The three workloads. Each is a [`FleetPlan`]: a corpus, the operations
//! one client issues in order, and the reply a direct `Session` gave to
//! each operation while the plan was generated. Everything here runs
//! before any timed region.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use xvu_edit::script_to_term;
use xvu_propagate::{count_optimal_propagations, Session};
use xvu_tree::{to_term_with_ids, DocTree, NodeIdGen};
use xvu_workload::fleet::{
    generate_fleet, Fingerprint, FleetConfig, FleetDoc, FleetFamily, FleetOp, FleetOpKind,
    FleetPlan,
};
use xvu_workload::scenario::{hospital, hospital_doc};
use xvu_workload::{ChurnConfig, ChurnStream};

/// Which serving path a workload measures end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `Session::propagate` + `Session::commit` in this process.
    Library,
    /// `xvu_server::Server` over loopback TCP, one `Client` connection.
    Daemon,
}

/// A generated workload: the plan, its corpus image, and every request
/// term already encoded for the wire.
pub struct Bench {
    pub name: &'static str,
    pub path: Path,
    pub plan: FleetPlan,
    pub corpus: Vec<u8>,
    pub wire: Vec<Wire>,
    /// Resident-session bound of the daemon's pool.
    pub pool_capacity: usize,
}

/// Request terms of one operation (empty where the verb takes none).
#[derive(Default)]
pub struct Wire {
    pub update: String,
    pub candidate: String,
}

pub const WORKLOADS: [&str; 3] = ["edit_large_doc", "serve_small_docs", "serve_evicting"];

impl Bench {
    pub fn generate(name: &str, seed: u64) -> Option<Bench> {
        let (name, path, plan, pool_capacity) = match name {
            // Library only, one 9,621-node hospital document. Per-edit
            // cost is linear in document size today: instance check, graph
            // build, assembly and commit all do O(document) work, and no
            // serving layer is involved. Footprint-proportional updates
            // must move this workload; the verify/count reads catch work
            // pushed from edits into reads.
            "edit_large_doc" => (WORKLOADS[0], Path::Library, edit_large_doc(seed), 1),
            // Daemon over ~4-node documents of six enumerated families.
            // Engine work is a few µs per request, so the round trip is
            // almost all serving stack: framing, admission queue, worker
            // handoff, pool checkout and reply. Nothing is evicted.
            "serve_small_docs" => (WORKLOADS[1], Path::Daemon, serve_small_docs(seed), 64),
            // Daemon over 32 hospital documents of 0.5k-2k nodes, twelve
            // open at once on the connection against a pool of four: the
            // working set exceeds the pool, so document switches evict
            // (write-back to the store) and reopen (`Engine::open`). This
            // isolates the store/pool duplication and shows the cost of
            // growing per-session state.
            "serve_evicting" => (
                WORKLOADS[2],
                Path::Daemon,
                serve_evicting(seed),
                EVICTING_POOL,
            ),
            _ => return None,
        };
        let corpus = plan.corpus_snapshot_bytes();
        let wire = plan
            .ops
            .iter()
            .map(|op| {
                let alpha = &plan.families[plan.docs[op.doc as usize].family].alpha;
                match &op.kind {
                    FleetOpKind::Propagate(u) | FleetOpKind::Count(u) => Wire {
                        update: script_to_term(u, alpha),
                        candidate: String::new(),
                    },
                    FleetOpKind::Verify { update, candidate } => Wire {
                        update: script_to_term(update, alpha),
                        candidate: script_to_term(candidate, alpha),
                    },
                    _ => Wire::default(),
                }
            })
            .collect();
        Some(Bench {
            name,
            path,
            plan,
            corpus,
            wire,
            pool_capacity,
        })
    }
}

/// Edits per replay of `edit_large_doc` (about one second of work).
const LARGE_EDITS: usize = 100;
/// Committed edits per replay of `serve_small_docs`.
const SMALL_UPDATES: usize = 3000;
/// Edits per replay of `serve_evicting`.
const EVICTING_EDITS: usize = 700;
const EVICTING_DOCS: usize = 32;
const EVICTING_OPEN: usize = 12;
const EVICTING_POOL: usize = 4;
/// (departments, patients per department) of the document at popularity
/// rank `i`: 517 to 1,929 nodes, nearly every rank a different size so
/// latency quantiles fall inside a smooth mix rather than between a few
/// sizes. Fixed by rank so the size of the hot documents does not depend
/// on the seed.
fn evicting_shape(i: usize) -> (usize, usize) {
    (4 + i % 5, 16 + (i * 7) % 15)
}

fn edit_large_doc(seed: u64) -> FleetPlan {
    churn_plan(&[(20, 60)], seed, LARGE_EDITS, 1)
}

fn serve_evicting(seed: u64) -> FleetPlan {
    let shapes: Vec<(usize, usize)> = (0..EVICTING_DOCS).map(evicting_shape).collect();
    churn_plan(&shapes, seed, EVICTING_EDITS, EVICTING_OPEN)
}

fn serve_small_docs(seed: u64) -> FleetPlan {
    generate_fleet(&FleetConfig {
        docs: 64,
        clients: 1,
        updates: SMALL_UPDATES,
        // think time is never replayed, so the plan carries none
        churn: ChurnConfig {
            idle_bias: 0.0,
            close_bias: 0.08,
            ..ChurnConfig::default()
        },
        seed,
        ..FleetConfig::default()
    })
}

/// Per block of ten edits, three run `verify` and one runs `count` before
/// the commit, at seeded positions. The shares differ so that the read
/// p50 falls inside the verify latencies and the p90 inside the count
/// latencies, not in the gap between the two.
const READ_BLOCK: usize = 10;
const VERIFY_PER_BLOCK: usize = 3;

/// Generates a plan of `edits` churn edits over hospital documents of the
/// given (departments, patients per department) shapes, by executing it on
/// direct sessions. Documents are picked by Zipf popularity (the first
/// hottest); at most `max_open` are open at once, and opening another
/// first closes the least recently used one.
fn churn_plan(shapes: &[(usize, usize)], seed: u64, edits: usize, max_open: usize) -> FleetPlan {
    let h = hospital();
    let docs: Vec<FleetDoc> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(depts, patients))| FleetDoc {
            id: i as u64,
            family: 0,
            doc: hospital_doc(&h, depts, patients, &mut NodeIdGen::new()),
        })
        .collect();
    let family = FleetFamily {
        name: "hospital".to_owned(),
        regime: "plain",
        root: h.alpha.get("hospital").expect("hospital label"),
        alpha: h.alpha,
        dtd: h.dtd,
        ann: h.ann,
    };
    let engine = family.engine();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB3_7C4A);
    let weights: Vec<u64> = (0..docs.len())
        .map(|i| (1e6 / ((i + 1) as f64).powf(ZIPF_S)) as u64)
        .collect();
    let total: u64 = weights.iter().sum();
    let mut store: Vec<DocTree> = docs.iter().map(|d| d.doc.clone()).collect();
    let mut sessions: Vec<Option<Session<'_>>> = docs.iter().map(|_| None).collect();
    let mut streams: Vec<ChurnStream> = docs
        .iter()
        .map(|d| {
            ChurnStream::new(
                &family.dtd,
                &family.ann,
                family.alpha.len(),
                ChurnConfig {
                    delete_bias: DELETE_BIAS,
                    ..ChurnConfig::default()
                },
                seed.wrapping_add(d.id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        })
        .collect();
    let mut open: VecDeque<usize> = VecDeque::new();
    let mut ops = Vec::new();
    let mut block: Vec<usize> = (0..READ_BLOCK).collect();
    let push = |ops: &mut Vec<FleetOp>, d: usize, kind: FleetOpKind, expect: Fingerprint| {
        ops.push(FleetOp {
            client: 0,
            doc: d as u64,
            kind,
            expect,
        })
    };

    for e in 0..edits {
        let d = {
            let mut r = rng.random_range(0..total);
            weights
                .iter()
                .position(|&w| {
                    let hit = r < w;
                    r = r.saturating_sub(w);
                    hit
                })
                .unwrap_or(docs.len() - 1)
        };
        if let Some(pos) = open.iter().position(|&o| o == d) {
            open.remove(pos);
        } else {
            if open.len() == max_open {
                let victim = open.pop_front().expect("open set is full");
                let s = sessions[victim].take().expect("open doc has a session");
                store[victim] = s.document().clone();
                push(&mut ops, victim, FleetOpKind::Close, Fingerprint::default());
            }
            let s = engine
                .open(&store[d])
                .expect("committed documents stay valid");
            let view = to_term_with_ids(s.view(), &family.alpha);
            push(
                &mut ops,
                d,
                FleetOpKind::Open,
                Fingerprint {
                    view: Some(view),
                    ..Fingerprint::default()
                },
            );
            sessions[d] = Some(s);
        }
        open.push_back(d);

        if e % READ_BLOCK == 0 {
            for i in (1..READ_BLOCK).rev() {
                block.swap(i, rng.random_range(0..=i));
            }
        }
        let slot = block[e % READ_BLOCK];
        let s = sessions[d].as_mut().expect("open doc has a session");
        let mut gen = s.id_gen();
        let (update, prop) = loop {
            let update = streams[d].next_update(s.document(), &mut gen);
            let prop = s.propagate(&update).expect("churn updates propagate");
            if prop.cost <= MAX_EDIT_COST {
                break (update, prop);
            }
        };
        let count = count_optimal_propagations(&prop.forest).expect("count fits in u128");
        push(
            &mut ops,
            d,
            FleetOpKind::Propagate(update.clone()),
            Fingerprint {
                cost: Some(prop.cost),
                script: Some(script_to_term(&prop.script, &family.alpha)),
                count: Some(count),
                view: None,
            },
        );
        if slot < VERIFY_PER_BLOCK {
            push(
                &mut ops,
                d,
                FleetOpKind::Verify {
                    update: update.clone(),
                    candidate: prop.script.clone(),
                },
                Fingerprint::default(),
            );
        } else if slot == VERIFY_PER_BLOCK {
            push(
                &mut ops,
                d,
                FleetOpKind::Count(update),
                Fingerprint {
                    count: Some(count),
                    ..Fingerprint::default()
                },
            );
        }
        s.commit(&prop).expect("commit after propagate");
        push(&mut ops, d, FleetOpKind::Commit, Fingerprint::default());
    }
    for d in open {
        push(&mut ops, d, FleetOpKind::Close, Fingerprint::default());
    }
    FleetPlan {
        families: vec![family],
        docs,
        ops,
        updates: edits,
    }
}

/// Zipf skew of document popularity in `serve_evicting`.
const ZIPF_S: f64 = 1.0;

/// Churn on the hospital documents is kept small and size-neutral, so the
/// document sizes a replay sees do not drift with the seed. An original
/// patient is 9 source nodes and an admitted one 3, so a quarter of
/// operations deleting keeps the expected size change near zero. Edits
/// costing more than this (deleting a whole department) are redrawn: they
/// are not the localized churn this workload measures.
const DELETE_BIAS: f64 = 0.25;
const MAX_EDIT_COST: u64 = 40;
