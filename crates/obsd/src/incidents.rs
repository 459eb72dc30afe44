//! Serving recent incident dumps over HTTP.
//!
//! The flight recorder lives in `prefall-blackbox`, which depends on
//! this crate for serving — so the server cannot name the recorder's
//! types directly. [`IncidentSource`] is the seam: a small
//! `JsonValue`-shaped view of "the recent incidents" that the
//! recorder's handle implements and [`Sources::incidents`] plugs into
//! the server.
//!
//! [`Sources::incidents`]: crate::server::Sources::incidents

use prefall_telemetry::JsonValue;

/// A provider of recent incident dumps for the `/incidents` routes.
///
/// Implementations must be cheap to call from the serving thread
/// (scrapes are serial) and internally synchronised — the server
/// shares one instance across its lifetime.
pub trait IncidentSource: Send + Sync {
    /// Summaries of the retained incidents, most recent last:
    /// a JSON array of objects each carrying at least `"id"`.
    fn list_json(&self) -> JsonValue;

    /// Full detail for one incident id, or `None` when unknown
    /// (served as 404).
    fn get_json(&self, id: &str) -> Option<JsonValue>;

    /// Health-probe feedback: called after every `/healthz` evaluation
    /// with the verdict, so a recorder can dump on the healthy →
    /// degraded edge. The default ignores it.
    fn on_health_status(&self, _degraded: bool, _report: &JsonValue) {}
}
