use std::error::Error;
use std::fmt;

/// Errors produced by the fall-detection pipeline and harnesses.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value was rejected.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// The dataset cannot support the requested evaluation (e.g. too few
    /// subjects for the fold count).
    InsufficientData {
        /// What was missing.
        reason: String,
    },
    /// An error bubbled up from the signal-processing substrate.
    Dsp(prefall_dsp::DspError),
    /// An error bubbled up from the dataset substrate.
    Imu(prefall_imu::ImuError),
    /// An error bubbled up from the network substrate.
    Nn(prefall_nn::NnError),
    /// An error bubbled up from the deployment model.
    Mcu(prefall_mcu::McuError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::InsufficientData { reason } => write!(f, "insufficient data: {reason}"),
            CoreError::Dsp(e) => write!(f, "signal processing error: {e}"),
            CoreError::Imu(e) => write!(f, "dataset error: {e}"),
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Mcu(e) => write!(f, "deployment error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Dsp(e) => Some(e),
            CoreError::Imu(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Mcu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<prefall_dsp::DspError> for CoreError {
    fn from(e: prefall_dsp::DspError) -> Self {
        CoreError::Dsp(e)
    }
}

impl From<prefall_imu::ImuError> for CoreError {
    fn from(e: prefall_imu::ImuError) -> Self {
        CoreError::Imu(e)
    }
}

impl From<prefall_nn::NnError> for CoreError {
    fn from(e: prefall_nn::NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<prefall_mcu::McuError> for CoreError {
    fn from(e: prefall_mcu::McuError) -> Self {
        CoreError::Mcu(e)
    }
}

impl From<prefall_telemetry::wire::WireError> for CoreError {
    fn from(e: prefall_telemetry::wire::WireError) -> Self {
        CoreError::InvalidConfig {
            reason: format!("malformed binary data: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_wraps_substrates_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        let e: CoreError = prefall_dsp::DspError::InvalidOrder { order: 0 }.into();
        assert!(e.to_string().contains("signal processing"));
        assert!(e.source().is_some());
        let c = CoreError::InvalidConfig {
            reason: "bad".to_string(),
        };
        assert!(c.source().is_none());
    }
}
