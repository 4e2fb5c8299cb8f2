//! The three workloads: generated inputs, pre-encoded request bodies and the traffic
//! schedule every run replays.

use pi_ast::Dialect;
use pi_server::{encode_batch, LogItem};
use pi_workloads::{mix, sdss, trace::zipf_trace};
use std::sync::Arc;

/// The fixed shape of one workload; only the generator seeds come from `--seed`.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub tenants: usize,
    /// Statements each tenant streams.
    pub statements: usize,
    /// Zipf shape pool per tenant (`0` for the SDSS log, which has no pool).
    pub shapes: usize,
    pub garbage_rate: f64,
    /// Statements per `POST /logs`.
    pub batch: usize,
    /// A tenant is refreshed after every `refresh_every`-th of its batches.
    pub refresh_every: usize,
    /// Resident sessions the pool keeps before evicting.
    pub capacity: usize,
    /// Server restarts per round.
    pub restarts: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "longlog",
        tenants: 1,
        statements: 8192,
        shapes: 256,
        garbage_rate: 0.01,
        batch: 64,
        refresh_every: 8,
        capacity: 4,
        restarts: 4,
    },
    Spec {
        name: "fleet",
        tenants: 32,
        statements: 1024,
        shapes: 24,
        garbage_rate: 0.01,
        batch: 256,
        refresh_every: 1,
        capacity: 8,
        restarts: 16,
    },
    Spec {
        name: "sdss",
        tenants: 3,
        statements: SDSS_CLIENTS * SDSS_PER_CLIENT,
        shapes: 0,
        garbage_rate: 0.0,
        batch: 64,
        refresh_every: 16,
        capacity: 8,
        restarts: 3,
    },
];

const SDSS_CLIENTS: usize = 20;
const SDSS_PER_CLIENT: usize = 500;

/// The interleaving seed of the SDSS reference tenant (tenant 0).  It does not come from
/// `--seed`, so the statements that tenant's interface fails to express are the same in
/// every run and are counted as failed operations.
pub const SDSS_REFERENCE_SEED: u64 = 12;

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One tenant's log and its request bodies.
pub struct Tenant {
    pub user: String,
    pub thread: String,
    pub lines: Vec<(Dialect, Arc<str>)>,
    /// Unparseable lines, as the generator counted them.
    pub garbage: usize,
    /// `POST /logs` bodies, one per batch of `Spec::batch` lines.
    pub bodies: Vec<String>,
    /// Garbage lines among the first `b + 1` batches, at index `b` (by the `%%` prefix
    /// the generator marks them with).
    pub garbage_through: Vec<usize>,
}

impl Tenant {
    pub fn path(&self) -> String {
        format!("/interfaces/{}/{}", self.user, self.thread)
    }

    /// The session version the server must report once every line is applied.
    pub fn expected_version(&self) -> u64 {
        expected_version(self.lines.len(), self.garbage)
    }

    /// The version once the first `b + 1` batches are applied.
    pub fn version_through(&self, b: usize, batch: usize) -> u64 {
        let sent = ((b + 1) * batch).min(self.lines.len());
        expected_version(sent, self.garbage_through[b])
    }
}

/// Statements sent minus the garbage lines among them: a garbage line is skipped, every
/// other line is one statement.
pub fn expected_version(sent: usize, garbage: usize) -> u64 {
    (sent - garbage) as u64
}

pub struct Workload {
    pub spec: &'static Spec,
    pub tenants: Vec<Tenant>,
    /// Tenants whose inexpressible statements count as failed operations: only the
    /// seed-independent reference tenant of `sdss`.  Elsewhere the misses depend on the
    /// seed, so they are reported (`map.inexpressible`) but not counted.
    pub counted: Vec<usize>,
}

/// One client request of the ingest phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Post {
        tenant: usize,
        batch: usize,
    },
    /// A refresh GET, right after the tenant's batch `batch`, followed at once by an
    /// identical repeat GET.
    Refresh {
        tenant: usize,
        batch: usize,
    },
}

/// Batches go round-robin over the tenants; a tenant is refreshed after every
/// `refresh_every`-th of its own batches.
pub fn schedule(batches: &[usize], refresh_every: usize) -> Vec<Step> {
    let rounds = batches.iter().copied().max().unwrap_or(0);
    let mut steps = Vec::new();
    for batch in 0..rounds {
        for (tenant, &count) in batches.iter().enumerate() {
            if batch < count {
                steps.push(Step::Post { tenant, batch });
                if (batch + 1) % refresh_every == 0 {
                    steps.push(Step::Refresh { tenant, batch });
                }
            }
        }
    }
    steps
}

impl Workload {
    pub fn schedule(&self) -> Vec<Step> {
        let batches: Vec<usize> = self.tenants.iter().map(|t| t.bodies.len()).collect();
        schedule(&batches, self.spec.refresh_every)
    }
}

/// SplitMix64: independent per-tenant seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates every tenant's log and encodes its request bodies.
pub fn generate(spec: &'static Spec, seed: u64) -> Workload {
    let logs = (spec.name == "sdss").then(|| sdss::client_logs(SDSS_CLIENTS, SDSS_PER_CLIENT));
    let tenants = (0..spec.tenants)
        .map(|t| {
            let (lines, garbage): (Vec<(Dialect, Arc<str>)>, usize) = match &logs {
                Some(logs) => {
                    let mix_seed = if t == 0 {
                        SDSS_REFERENCE_SEED
                    } else {
                        derive_seed(seed, t as u64)
                    };
                    let mixed = mix::interleave(logs, mix_seed);
                    let lines = mixed
                        .dialects
                        .iter()
                        .zip(&mixed.text)
                        .map(|(d, text)| (*d, Arc::from(text.as_str())))
                        .collect();
                    (lines, 0)
                }
                None => {
                    let mut trace = zipf_trace(
                        spec.statements,
                        spec.shapes,
                        spec.garbage_rate,
                        derive_seed(seed, t as u64),
                    );
                    let lines = trace.by_ref().map(|(d, s)| (d, Arc::from(s))).collect();
                    (lines, trace.garbage_emitted())
                }
            };
            let user = format!("u{t:03}");
            let thread = spec.name.to_string();
            let bodies = encode_bodies(&user, &thread, &lines, spec.batch);
            let garbage_through = lines
                .chunks(spec.batch)
                .scan(0, |sum, chunk| {
                    *sum += chunk.iter().filter(|(_, l)| l.starts_with("%%")).count();
                    Some(*sum)
                })
                .collect();
            Tenant {
                user,
                thread,
                lines,
                garbage,
                bodies,
                garbage_through,
            }
        })
        .collect();
    let counted = if logs.is_some() { vec![0] } else { Vec::new() };
    Workload {
        spec,
        tenants,
        counted,
    }
}

fn encode_bodies(
    user: &str,
    thread: &str,
    lines: &[(Dialect, Arc<str>)],
    batch: usize,
) -> Vec<String> {
    lines
        .chunks(batch)
        .map(|chunk| {
            encode_batch(&[LogItem {
                user_id: user.to_string(),
                thread_id: thread.to_string(),
                queries: chunk.to_vec(),
            }])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_version_subtracts_the_generators_garbage_count() {
        let mut trace = zipf_trace(2000, 32, 0.05, 4);
        let lines: Vec<_> = trace.by_ref().collect();
        let garbage = trace.garbage_emitted();
        assert!(garbage > 0);
        assert_eq!(
            garbage,
            lines.iter().filter(|(_, l)| l.starts_with("%%")).count()
        );
        assert_eq!(
            expected_version(lines.len(), garbage),
            (2000 - garbage) as u64
        );
        // The version a session reaches agrees with the count.
        let mut session = pi_core::Session::new(pi_core::PiOptions {
            threads: 1,
            ..pi_core::PiOptions::default()
        });
        session.push_stream_tagged(lines.iter().map(|(d, l)| (*d, l.as_str())));
        assert_eq!(session.version(), expected_version(lines.len(), garbage));
        assert_eq!(session.skipped(), garbage);
    }

    #[test]
    fn schedule_is_round_robin_with_refreshes_after_every_kth_batch() {
        let steps = schedule(&[3, 1], 2);
        use Step::*;
        assert_eq!(
            steps,
            vec![
                Post {
                    tenant: 0,
                    batch: 0
                },
                Post {
                    tenant: 1,
                    batch: 0
                },
                Post {
                    tenant: 0,
                    batch: 1
                },
                Refresh {
                    tenant: 0,
                    batch: 1
                },
                Post {
                    tenant: 0,
                    batch: 2
                },
            ]
        );
    }

    #[test]
    fn generation_is_seeded_and_the_sdss_reference_tenant_is_not() {
        let fleet = spec("fleet").unwrap();
        let a = generate(fleet, 1);
        let b = generate(fleet, 1);
        let c = generate(fleet, 2);
        assert_eq!(a.tenants[5].bodies, b.tenants[5].bodies);
        assert_ne!(a.tenants[5].bodies, c.tenants[5].bodies);
        assert_eq!(a.tenants[5].bodies.len(), 1024 / 256);
        for t in &a.tenants {
            let last = t.bodies.len() - 1;
            assert_eq!(t.version_through(last, fleet.batch), t.expected_version());
        }
        let sdss = spec("sdss").unwrap();
        let (a, c) = (generate(sdss, 1), generate(sdss, 2));
        assert_eq!(a.tenants[0].bodies, c.tenants[0].bodies);
        assert_ne!(a.tenants[1].bodies, c.tenants[1].bodies);
        assert_eq!(a.tenants[0].lines.len(), sdss.statements);
    }
}
