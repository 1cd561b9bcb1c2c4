//! Error type of the batch pipeline.

use lwc_coder::CoderError;
use lwc_dwt::DwtError;
use lwc_lifting::LiftingError;
use std::fmt;

/// Errors surfaced by the batch compression engine.
#[derive(Debug)]
pub enum PipelineError {
    /// The underlying Rice codec failed on one image of the batch.
    Coder(CoderError),
    /// The underlying fixed-point transform failed.
    Dwt(DwtError),
    /// The underlying lifting transform failed.
    Lifting(LiftingError),
    /// The pipeline itself was misconfigured (e.g. an invalid tile shape),
    /// or one of its jobs panicked.
    Config(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Coder(e) => write!(f, "codec error: {e}"),
            Self::Dwt(e) => write!(f, "transform error: {e}"),
            Self::Lifting(e) => write!(f, "lifting transform error: {e}"),
            Self::Config(msg) => write!(f, "pipeline configuration error: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Coder(e) => Some(e),
            Self::Dwt(e) => Some(e),
            Self::Lifting(e) => Some(e),
            Self::Config(_) => None,
        }
    }
}

impl From<CoderError> for PipelineError {
    fn from(e: CoderError) -> Self {
        Self::Coder(e)
    }
}

impl From<DwtError> for PipelineError {
    fn from(e: DwtError) -> Self {
        Self::Dwt(e)
    }
}

impl From<LiftingError> for PipelineError {
    fn from(e: LiftingError) -> Self {
        Self::Lifting(e)
    }
}
