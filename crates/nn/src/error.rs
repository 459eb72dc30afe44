use std::error::Error;
use std::fmt;

/// Errors produced while building or running networks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// A layer configuration is invalid for its input shape.
    InvalidLayer {
        /// The layer kind being configured.
        layer: &'static str,
        /// Why the configuration is unusable.
        reason: String,
    },
    /// An input's length does not match the network's expected shape.
    ShapeMismatch {
        /// Expected flattened length.
        expected: usize,
        /// Provided flattened length.
        actual: usize,
    },
    /// A serialized weight blob does not match the network.
    WeightMismatch {
        /// Why loading failed.
        reason: String,
    },
    /// Training was configured with an empty dataset or invalid
    /// hyper-parameters.
    InvalidTraining {
        /// Why the configuration is unusable.
        reason: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::InvalidLayer { layer, reason } => {
                write!(f, "invalid {layer} layer: {reason}")
            }
            NnError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape mismatch: expected {expected} values, got {actual}"
                )
            }
            NnError::WeightMismatch { reason } => write!(f, "weight blob mismatch: {reason}"),
            NnError::InvalidTraining { reason } => {
                write!(f, "invalid training configuration: {reason}")
            }
        }
    }
}

impl Error for NnError {}

impl From<prefall_telemetry::wire::WireError> for NnError {
    fn from(e: prefall_telemetry::wire::WireError) -> Self {
        NnError::WeightMismatch {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
        let e = NnError::ShapeMismatch {
            expected: 360,
            actual: 90,
        };
        assert!(e.to_string().contains("360"));
        assert!(e.to_string().contains("90"));
    }
}
