//! Wires the flight recorder into the obsd server.
//!
//! [`FlightHandle`] implements [`prefall_obsd::IncidentSource`], so
//! passing a clone to
//! [`MetricsServer::start`](prefall_obsd::MetricsServer::start) as
//! [`Sources::incidents`](prefall_obsd::Sources::incidents) exposes:
//!
//! * `GET /incidents` — summary listing of every held incident,
//! * `GET /incidents/{id}` — full forensics document (decision trace,
//!   guard counters, hashes) plus the complete binary dump as
//!   `dump_hex`, ready for [`crate::dump::IncidentDump::from_hex`] and
//!   [`replay`](crate::replay()) on an analyst's machine.
//!
//! The server also feeds every `/healthz` verdict back through
//! [`IncidentSource::on_health_status`]; a rising edge into degraded
//! takes a `health_degraded` dump automatically, so the flight
//! recorder captures what the detector was doing when the deployment
//! went unhealthy.

use crate::recorder::FlightHandle;
use prefall_obsd::IncidentSource;
use prefall_telemetry::JsonValue;

impl IncidentSource for FlightHandle {
    fn list_json(&self) -> JsonValue {
        let incidents: Vec<JsonValue> = self.incidents().iter().map(|d| d.summary_json()).collect();
        JsonValue::Obj(vec![
            ("count".to_string(), JsonValue::U64(incidents.len() as u64)),
            ("incidents".to_string(), JsonValue::Arr(incidents)),
        ])
    }

    fn get_json(&self, id: &str) -> Option<JsonValue> {
        self.incident(id).map(|d| d.to_json(true))
    }

    fn on_health_status(&self, degraded: bool, report: &JsonValue) {
        let status = report
            .get("status")
            .and_then(|v| v.as_str())
            .unwrap_or("degraded");
        self.record_health(degraded, &format!("healthz reported {status}"));
    }
}

/// A quality-SLO breach (`prefall-watch` burn-rate alerting) asks the
/// flight recorder for a forensic dump, so the sample/guard/score
/// rings covering the breach window are preserved alongside the alert.
impl prefall_watch::IncidentCapture for FlightHandle {
    fn capture_incident(&self, reason: &str) -> Option<String> {
        let dump = self.dump_now(&format!("slo breach: {reason}"));
        Some(dump.id)
    }
}
