//! Observability daemon layer on top of `prefall-telemetry`: serve the
//! live metrics the rest of the stack records, without adding a single
//! external dependency.
//!
//! The paper's deployment story rests on two observable quantities —
//! inference latency against the 150 ms airbag-inflation budget, and
//! event-level misclassification per activity (Table IV). PR 1 made
//! both *recordable*; this crate makes them *scrapeable*:
//!
//! * [`prometheus`] — Prometheus text exposition (v0.0.4) of a
//!   [`Snapshot`], including the `name{key=value}` inline-label
//!   convention the per-activity quality counters use;
//! * [`health`] — the `/healthz` verdict: detector liveness plus a
//!   lead-time-budget check derived from the `detector.lead_time_ms`
//!   histogram;
//! * [`server`] — a hand-rolled HTTP/1.1 listener on
//!   [`std::net::TcpListener`] (one background thread, shared
//!   [`Registry`]) exposing `/metrics`, `/healthz`, `/snapshot` and —
//!   with an [`IncidentSource`] attached — `/incidents`;
//! * [`incidents`] — the seam the `prefall-blackbox` flight recorder
//!   plugs into to make recent incident dumps scrapeable.
//!
//! # Quickstart
//!
//! ```no_run
//! use prefall_obsd::{MetricsServer, ServerConfig, Sources};
//! use prefall_telemetry::{Recorder, Registry};
//! use std::sync::Arc;
//!
//! # fn main() -> std::io::Result<()> {
//! let registry = Arc::new(Registry::new());
//! let server = MetricsServer::start(
//!     "127.0.0.1:9898",
//!     Arc::clone(&registry),
//!     ServerConfig::default(),
//!     Sources::default(),
//! )?;
//! registry.counter_add("detector.windows", 1);
//! println!("scrape {}/metrics", server.url());
//! # Ok(())
//! # }
//! ```
//!
//! The `edge_perf` and `prefall-profile` bench binaries honour
//! `PREFALL_METRICS_ADDR=<addr>` (parsed by
//! [`prefall_telemetry::TelemetryEnv`]) and start this exporter on the
//! given address for the duration of the run.
//!
//! [`Snapshot`]: prefall_telemetry::Snapshot
//! [`Registry`]: prefall_telemetry::Registry

pub mod drift;
pub mod health;
pub mod http;
pub mod incidents;
pub mod prometheus;
pub mod server;
pub mod watch;

pub use drift::DriftSource;
pub use health::{HealthReport, HealthStatus};
pub use http::HttpRequest;
pub use incidents::IncidentSource;
pub use server::{MetricsServer, ServerConfig, Sources};
pub use watch::WatchSource;

use prefall_telemetry::{Registry, TelemetryEnv};
use std::sync::Arc;

/// Starts the exporter when the environment asks for one
/// (`PREFALL_METRICS_ADDR=<addr>`), serving the given registry with the
/// default [`ServerConfig`]. Returns `None` when the variable is unset;
/// bind failures are reported on stderr rather than aborting the run —
/// a benchmark must not die because a port is taken.
pub fn serve_from_env(registry: &Arc<Registry>) -> Option<MetricsServer> {
    let addr = TelemetryEnv::from_env().metrics_addr?;
    let config = ServerConfig::default();
    match MetricsServer::start(
        addr.as_str(),
        Arc::clone(registry),
        config,
        Sources::default(),
    ) {
        Ok(server) => {
            eprintln!(
                "[prefall] metrics endpoint live at {}/metrics (healthz, snapshot)",
                server.url()
            );
            Some(server)
        }
        Err(e) => {
            eprintln!("[prefall] cannot bind metrics endpoint on {addr}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_from_env_is_none_without_the_variable() {
        // Env-var hygiene: only assert the unset path here; the bound
        // path is covered by server tests with explicit addresses.
        std::env::remove_var("PREFALL_METRICS_ADDR");
        let registry = Arc::new(Registry::new());
        assert!(serve_from_env(&registry).is_none());
    }
}
