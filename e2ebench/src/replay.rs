//! The traced run: the same workload replayed in this process through the program's
//! public calls, without HTTP, with a span around each call.  A shadow `Session` per
//! tenant, fed the same statements, splits the work the pool does behind one lock.

use crate::check::{render, session_options};
use crate::http_run::{fresh_dir, pool_options, wait_applied};
use crate::trace::Tracer;
use crate::workload::{Step, Workload};
use pi_core::{InteractionMapper, MapperOptions, Session};
use pi_server::{decode_batch, PoolGauge, SessionPool};
use pi_ui::Json;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans that only group the calls of one request; their self time is the replay's
/// own bookkeeping, reported as unattributed.
pub const GROUPING_SPANS: [&str; 6] = ["replay", "post", "refresh", "repeat", "shadow", "restart"];

/// Counts the replay reads off the pool and the shadow sessions.
#[derive(Default)]
pub struct Counts {
    pub ingest_s: f64,
    pub wall_s: f64,
    pub evictions: u64,
    pub rehydrations: u64,
    pub pool_persist_ms: f64,
    pub pool_restore_ms: f64,
    pub journal_syncs: u64,
    pub journal_bytes: u64,
    pub persist_bytes: u64,
    pub diff_records: u64,
    pub distinct_trees: u64,
}

impl Counts {
    fn add_gauge(&mut self, g: &PoolGauge) {
        self.evictions += g.evictions;
        self.rehydrations += g.rehydrations;
        self.pool_persist_ms += g.persist_ms;
        self.pool_restore_ms += g.restore_ms;
        if let Some(j) = &g.journal {
            self.journal_syncs += j.syncs;
            self.journal_bytes += j.appended_bytes;
        }
    }
}

const OPEN: &str = "the pool is open between restarts";

fn open_pool(w: &Workload, dir: &Path) -> Arc<SessionPool> {
    let pool = SessionPool::with_spill(pool_options(w.spec, dir), None);
    pool.wait_ready();
    pool
}

/// One replay round: ingest (with refreshes) and the restarts.
pub fn replay(w: &Workload, root: &Path, tracer: &mut Tracer) -> std::io::Result<Counts> {
    let spec = w.spec;
    let dir = fresh_dir(root, "replay")?;
    let opts = session_options();
    let merge_off = InteractionMapper::new(opts.library.clone()).with_options(MapperOptions {
        enable_merging: false,
        ..opts.mapper
    });
    let merge_on = InteractionMapper::new(opts.library.clone()).with_options(opts.mapper);
    let mut shadows: Vec<Session> = w
        .tenants
        .iter()
        .map(|_| Session::new(opts.clone()))
        .collect();
    let mut fed = vec![0usize; w.tenants.len()];
    let mut counts = Counts::default();
    let mut pool = Some(open_pool(w, &dir));
    let steps = w.schedule();
    let began = Instant::now();
    let mut req = 0u64;
    tracer.span("replay", 0, |tr| {
        for step in &steps {
            req += 1;
            match *step {
                Step::Post { tenant, batch } => tr.span("post", req, |tr| {
                    let body = &w.tenants[tenant].bodies[batch];
                    let decoded = tr.span("wire.decode", req, |_| {
                        let json = Json::parse(body).expect("pre-encoded bodies are JSON");
                        let pool = pool.as_ref().expect(OPEN);
                        decode_batch(&json, pool.default_dialect(), pool.known_dialects())
                    });
                    tr.span("pool.enqueue", req, |_| {
                        for item in &decoded.items {
                            let pool = pool.as_ref().expect(OPEN);
                            pool.enqueue(item).expect("a closed loop never sheds");
                        }
                    });
                }),
                Step::Refresh { tenant, batch } => {
                    let t = &w.tenants[tenant];
                    for name in ["refresh", "repeat"] {
                        tr.span(name, req, |tr| {
                            let snap = tr.span("pool.snapshot", req, |_| {
                                let pool = pool.as_ref().expect(OPEN);
                                pool.snapshot(&t.user, &t.thread).expect("tenant is known")
                            });
                            tr.span("render", req, move |_| {
                                render(&snap.interface);
                            });
                        });
                        req += 1;
                    }
                    let upto = ((batch + 1) * spec.batch).min(t.lines.len());
                    let lines = &t.lines[fed[tenant]..upto];
                    fed[tenant] = upto;
                    let shadow = &mut shadows[tenant];
                    tr.span("shadow", req, |tr| {
                        tr.span("shadow.push", req, |tr| {
                            let before = shadow.timings();
                            let started = Instant::now();
                            shadow.push_stream_tagged(lines.iter().map(|(d, l)| (*d, l.as_ref())));
                            let after = shadow.timings();
                            let parse =
                                Duration::from_secs_f64((after.parse_ms - before.parse_ms) / 1e3);
                            let mine =
                                Duration::from_secs_f64((after.mining_ms - before.mining_ms) / 1e3);
                            tr.record("parse", req, started, parse);
                            tr.record("mine", req, started + parse, mine);
                        });
                        let (graph, dialects) =
                            tr.span("graph.freeze", req, |_| (shadow.graph(), shadow.dialects()));
                        tr.span("map.init", req, |_| {
                            merge_off.map_tagged(&graph, &dialects);
                        });
                        let merge_on = &merge_on;
                        tr.span("map.full", req, move |_| {
                            merge_on.map_tagged(&graph, &dialects);
                            drop((graph, dialects));
                        });
                    });
                }
            }
        }
        tr.span("pool.drain", req, |_| {
            wait_applied(pool.as_ref().expect(OPEN))
        });
        counts.ingest_s = began.elapsed().as_secs_f64();

        for r in 0..spec.restarts {
            req += 1;
            let tenant = r * w.tenants.len() / spec.restarts;
            let t = &w.tenants[tenant];
            tr.span("restart", req, |tr| {
                tr.span("pool.close", req, |_| {
                    let old = pool.take().expect(OPEN);
                    counts.add_gauge(&old.gauge());
                    old.close();
                });
                tr.span("pool.open", req, |_| pool = Some(open_pool(w, &dir)));
                let snap = tr.span("pool.snapshot", req, |_| {
                    let pool = pool.as_ref().expect(OPEN);
                    pool.snapshot(&t.user, &t.thread)
                        .expect("tenant survives a restart")
                });
                tr.span("render", req, move |_| {
                    render(&snap.interface);
                });
                let bytes = tr.span("persist", req, |_| {
                    shadows[tenant]
                        .persist_to_vec()
                        .expect("persist into memory")
                });
                counts.persist_bytes += bytes.len() as u64;
                let restored = tr.span("restore", req, |_| {
                    Session::restore_with(&mut bytes.as_slice(), session_options())
                        .expect("restore what was just persisted")
                });
                tr.span("session.drop", req, |_| shadows[tenant] = restored);
                tr.span("hydrate", req, |_| shadows[tenant].hydrate());
            });
        }
    });
    counts.wall_s = began.elapsed().as_secs_f64();
    let pool = pool.expect(OPEN);
    counts.add_gauge(&pool.gauge());
    pool.close();
    drop(pool);
    for s in &mut shadows {
        counts.diff_records += s.graph_stats().diff_records as u64;
        counts.distinct_trees += s.distinct() as u64;
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(counts)
}
