//! The obsd `/drift` document: a JSON view of a fingerprint and its
//! scores against a reference, shared by the single-detector
//! [`DriftHandle`] (this module's [`DriftSource`] impl) and the fleet
//! registry (which builds the same document per tenant).

use crate::fingerprint::{compare, Fingerprint, INPUT_AXES, INPUT_NAMES, INPUT_RANGES, UNIT_RANGE};
use crate::monitor::DriftHandle;
use crate::sketch::psi;
use prefall_obsd::DriftSource;
use prefall_telemetry::JsonValue;

fn f64_field(name: &str, v: f64) -> (String, JsonValue) {
    (name.to_string(), JsonValue::F64(v))
}

/// Builds the `/drift` JSON document for one live fingerprint:
/// sample/window totals, the section scores against `reference` (when
/// set), the alarm verdict at `alarm_psi`, and a per-axis breakdown
/// (PSI, live mean, reference mean).
pub fn drift_doc(reference: Option<&Fingerprint>, live: &Fingerprint, alarm_psi: f64) -> JsonValue {
    let score = reference.map(|r| compare(r, live)).unwrap_or_default();
    let mut fields = vec![
        ("samples".to_string(), JsonValue::U64(live.samples())),
        ("windows".to_string(), JsonValue::U64(live.windows())),
        (
            "reference".to_string(),
            JsonValue::Bool(reference.is_some()),
        ),
        f64_field("input_psi", score.input_psi),
        f64_field("score_psi", score.score_psi),
        f64_field("attribution_psi", score.attribution_psi),
        f64_field("input_shift", score.input_shift),
        f64_field("score_shift", score.score_shift),
        f64_field("alarm_psi", alarm_psi),
        (
            "alarm".to_string(),
            JsonValue::Bool(reference.is_some() && score.alarmed(alarm_psi)),
        ),
    ];
    let mut axes = Vec::with_capacity(INPUT_AXES);
    for i in 0..INPUT_AXES {
        let range = &INPUT_RANGES[i];
        let mut axis = vec![
            (
                "name".to_string(),
                JsonValue::Str(INPUT_NAMES[i].to_string()),
            ),
            ("count".to_string(), JsonValue::U64(live.input[i].count())),
            (
                "skipped".to_string(),
                JsonValue::U64(live.input[i].skipped()),
            ),
        ];
        if let Some(m) = live.input[i].mean(range) {
            axis.push(f64_field("mean", m));
        }
        if let Some(r) = reference {
            axis.push(f64_field("psi", psi(&r.input[i], &live.input[i])));
            if let Some(m) = r.input[i].mean(range) {
                axis.push(f64_field("ref_mean", m));
            }
        }
        axes.push(JsonValue::Obj(axis));
    }
    fields.push(("axes".to_string(), JsonValue::Arr(axes)));
    if let Some(p50) = live.score.quantile(&UNIT_RANGE, 0.5) {
        fields.push(f64_field("score_p50", p50));
    }
    JsonValue::Obj(fields)
}

impl DriftSource for DriftHandle {
    fn drift_json(&self, tenant: Option<u64>) -> Option<JsonValue> {
        if tenant.is_some() {
            // A single-detector monitor has no per-tenant views.
            return None;
        }
        let reference = self.reference();
        let live = self.recent();
        Some(drift_doc(
            reference.as_ref(),
            &live,
            self.config().alarm_psi,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{DriftConfig, DriftMonitor};

    #[test]
    fn doc_names_the_sections_and_axes() {
        let mut live = Fingerprint::new();
        for i in 0..50 {
            let t = i as f64 * 0.2;
            live.observe_sample([t.sin() as f32 * 0.1, 0.0, 1.0], [0.0, t.cos() as f32, 0.0]);
            live.observe_score(0.3);
        }
        let reference = live.clone();
        let doc = drift_doc(Some(&reference), &live, 0.25);
        for key in [
            "samples",
            "windows",
            "reference",
            "input_psi",
            "score_psi",
            "attribution_psi",
            "alarm",
            "axes",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(doc.get("samples").and_then(JsonValue::as_u64), Some(50));
        // Identical distributions: no alarm.
        assert!(matches!(doc.get("alarm"), Some(JsonValue::Bool(false))));
    }

    #[test]
    fn handle_serves_global_but_not_tenant_views() {
        let (_tap, handle) = DriftMonitor::create(DriftConfig::default());
        assert!(handle.drift_json(None).is_some());
        assert!(handle.drift_json(Some(7)).is_none());
    }
}
