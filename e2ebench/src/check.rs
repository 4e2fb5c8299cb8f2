//! Output checks: the batch-built reference every served interface must match, and the
//! operation tally.

use crate::workload::{Tenant, Workload};
use pi_ast::Node;
use pi_core::{Interface, PiOptions, Session};
use pi_ui::{interface_spec, EditorLayout, Json};
use std::collections::HashSet;

/// The options every tenant session runs with: serial mining, one mining thread,
/// nothing read from the environment.
pub fn session_options() -> PiOptions {
    PiOptions {
        parallel: false,
        threads: 1,
        ..PiOptions::default()
    }
}

/// Renders an interface exactly as `GET /interfaces/...` does.
pub fn render(interface: &Interface) -> String {
    let layout = EditorLayout::new(interface, 2);
    interface_spec(interface, &layout, &pi_core::standard_frontends()).to_string()
}

/// What one tenant's served interface must be, from a batch build of its statements in
/// a fresh session: no server, eviction, journal or restart.
pub struct Expected {
    pub version: u64,
    pub skipped: u64,
    /// The end of every served body: the spec is the last member of the response object.
    pub body_suffix: String,
    pub interface: Interface,
    /// The log's distinct statements, each one expressiveness check.
    pub distinct: Vec<Node>,
}

impl Expected {
    pub fn build(tenant: &Tenant) -> Expected {
        let mut session = Session::new(session_options());
        session.push_stream_tagged(tenant.lines.iter().map(|(d, l)| (*d, l.as_ref())));
        let built = session.into_snapshot();
        let mut seen = HashSet::new();
        let distinct = built
            .queries
            .iter()
            .filter(|q| seen.insert(*q))
            .cloned()
            .collect();
        Expected {
            version: built.version,
            skipped: built.skipped as u64,
            body_suffix: format!("\"interface\":{}}}", render(&built.interface)),
            interface: built.interface,
            distinct,
        }
    }
}

impl Expected {
    /// Distinct statements the interface cannot express.
    pub fn inexpressible(&self) -> usize {
        self.distinct
            .iter()
            .filter(|q| !self.interface.can_express(q))
            .count()
    }
}

pub fn expect_all(w: &Workload) -> Vec<Expected> {
    w.tenants.iter().map(Expected::build).collect()
}

/// Operations attempted and failed, and every unexpected outcome.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Statements the batch-identical interface cannot express (the known mapper fault).
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation that must succeed; a failure makes the run incorrect.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Checks a served interface body against the reference: status, version, skip
    /// count and a byte-identical interface spec.
    pub fn served(&mut self, tenant: &Tenant, expected: &Expected, status: u16, body: &str) {
        let head = Json::parse(body).ok();
        let number = |key: &str| {
            head.as_ref()
                .and_then(|j| j.get(key))
                .and_then(Json::as_f64)
        };
        let ok = status == 200
            && number("version") == Some(expected.version as f64)
            && number("skipped") == Some(expected.skipped as f64)
            && tenant.expected_version() == expected.version
            && tenant.garbage as u64 == expected.skipped
            && body.ends_with(&expected.body_suffix);
        self.op(ok, || {
            format!(
                "{}: status {status}, version {:?}, skipped {:?} (want {} / {}), spec {}",
                tenant.path(),
                number("version"),
                number("skipped"),
                tenant.expected_version(),
                tenant.garbage,
                if body.ends_with(&expected.body_suffix) {
                    "identical"
                } else {
                    "differs"
                }
            )
        });
    }

    /// One expressiveness check per distinct statement of each counted tenant.
    pub fn expressiveness(&mut self, w: &Workload, expected: &[Expected]) {
        for &t in &w.counted {
            let e = &expected[t];
            self.attempted += e.distinct.len() as u64;
            self.failed += e.inexpressible() as u64;
        }
    }
}

/// The `"version"` member near the start of a served body, without parsing the rest.
pub fn served_version(body: &str) -> Option<u64> {
    let at = body.find("\"version\":")? + "\"version\":".len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_version_reads_the_version_member() {
        assert_eq!(
            served_version(r#"{"user_id":"u","version":1234,"skipped":3}"#),
            Some(1234)
        );
        assert_eq!(served_version(r#"{"user_id":"u"}"#), None);
    }
}
