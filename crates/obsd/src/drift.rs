//! Serving drift-fingerprint state over HTTP.
//!
//! Like [`WatchSource`](crate::watch::WatchSource), this is a seam: the
//! drift sketches live in `prefall-drift` (single-detector monitor)
//! and `prefall-fleet` (per-tenant sketches merged into a fleet-wide
//! view), both of which depend on this crate — so the exporter
//! consumes a small `JsonValue`-shaped view that those handles
//! implement, and [`Sources::drift`] plugs it into the `/drift` route.
//!
//! [`Sources::drift`]: crate::server::Sources::drift

use prefall_telemetry::JsonValue;

/// A provider of drift state for the `/drift` route: the live
/// fingerprint summary and its PSI / quantile-shift scores against the
/// reference. Implementations must be internally synchronised and
/// cheap to call from the serving thread.
pub trait DriftSource: Send + Sync {
    /// The drift document — fleet-wide (or single-detector) when
    /// `tenant` is `None`, one tenant's view otherwise. `None` means
    /// the tenant is unknown (or the source has no per-tenant data),
    /// which the server answers with 404.
    fn drift_json(&self, tenant: Option<u64>) -> Option<JsonValue>;
}
