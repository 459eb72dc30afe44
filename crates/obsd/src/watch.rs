//! Serving the watch layer (time-series store, SLOs, alerts) over
//! HTTP.
//!
//! Like [`IncidentSource`](crate::incidents::IncidentSource), this is
//! a seam: the store and SLO engine live in `prefall-watch`, which
//! depends on this crate — so the server consumes a small
//! `JsonValue`-shaped view that the watch handle implements, and
//! [`Sources::watch`] plugs it into three routes (`/tsdb`, `/slo`,
//! `/alerts`) plus the `/healthz` verdict.
//!
//! [`Sources::watch`]: crate::server::Sources::watch

use prefall_telemetry::JsonValue;

/// A provider of time-series, SLO and alert state for the watch
/// routes. Implementations must be internally synchronised and cheap
/// to call from the serving thread.
pub trait WatchSource: Send + Sync {
    /// Points of one series over the trailing window:
    /// `{"series": ..., "kind": ..., "points": [[t, v], ...], ...}`,
    /// or `None` when the series is unknown (served as 404).
    /// `window_s = None` means "everything retained".
    fn tsdb_json(&self, series: &str, window_s: Option<f64>) -> Option<JsonValue>;

    /// The catalogue of known series (served when `/tsdb` is queried
    /// without a `series` parameter).
    fn series_json(&self) -> JsonValue;

    /// Current SLO evaluation state, one object per declared SLO.
    fn slo_json(&self) -> JsonValue;

    /// Recent alert transitions, oldest first.
    fn alerts_json(&self) -> JsonValue;

    /// Names of the SLOs currently firing. A non-empty answer flips
    /// `/healthz` to 503 with the names attached.
    fn firing_slos(&self) -> Vec<String>;
}
