//! Structured pipeline errors with per-phase context.
//!
//! Written in the `thiserror` idiom with the derive spelled out by hand —
//! this workspace vendors every dependency and carries no proc macros —
//! so each variant gets a `#[error("...")]`-style [`Display`](std::fmt::Display) message and
//! a [`source`](std::error::Error::source) where an underlying error
//! exists.
//!
//! A [`PipelineError`] means the run could not produce a result at all.
//! Recoverable device faults never surface here: they are absorbed by the
//! local-assembly recovery ladder (retry → shrink → reset → CPU fallback →
//! skip) and reported as counters in
//! [`PipelineStats`](crate::pipeline::PipelineStats).

use crate::pipeline::Phase;
use std::fmt;

/// A fatal pipeline failure, tagged with the phase it occurred in.
#[derive(Debug)]
pub struct PipelineError {
    /// The phase that failed.
    pub phase: Phase,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// The failure itself.
#[derive(Debug)]
pub enum ErrorKind {
    /// The local-assembly driver violated an internal invariant.
    Engine(locassm::DriverError),
    /// Structurally invalid input.
    InvalidInput(String),
    /// A configuration the pipeline cannot run (see
    /// [`PipelineConfig::validate`](crate::pipeline::PipelineConfig::validate)).
    InvalidConfig(ConfigError),
}

/// Why a [`PipelineConfig`](crate::pipeline::PipelineConfig) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// k below [`MIN_K`](crate::pipeline::MIN_K): too short for its
    /// k-mers to be unique in a genome, so the graph has no unitigs.
    KTooSmall(usize),
    /// k above the widest k-mer the substrate packs ([`kmer::MAX_K`]).
    KTooLarge(usize),
    /// Even k: a k-mer can equal its own reverse complement, so its two
    /// strands collapse into one vertex whose sides cannot be told apart.
    KEven(usize),
    /// An iterative run was given no k at all.
    EmptySchedule,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::pipeline::MIN_K;
        match self {
            ConfigError::KTooSmall(k) => write!(f, "k={k} is below the minimum k={MIN_K}"),
            ConfigError::KTooLarge(k) => {
                write!(f, "k={k} is above the maximum k={}", kmer::MAX_K - 1)
            }
            ConfigError::KEven(k) => write!(f, "k={k} is even; k must be odd"),
            ConfigError::EmptySchedule => write!(f, "the k schedule is empty"),
        }
    }
}

impl PipelineError {
    /// An engine invariant violation during `phase`.
    pub fn engine(phase: Phase, source: locassm::DriverError) -> PipelineError {
        PipelineError { phase, kind: ErrorKind::Engine(source) }
    }

    /// Invalid input detected during `phase`.
    pub fn invalid_input(phase: Phase, detail: impl Into<String>) -> PipelineError {
        PipelineError { phase, kind: ErrorKind::InvalidInput(detail.into()) }
    }

    /// A rejected configuration; k governs k-mer analysis, the first phase
    /// that would fail.
    pub fn invalid_config(reason: ConfigError) -> PipelineError {
        PipelineError { phase: Phase::KmerAnalysis, kind: ErrorKind::InvalidConfig(reason) }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline failed during {}: ", self.phase.name())?;
        match &self.kind {
            ErrorKind::Engine(e) => write!(f, "engine error: {e}"),
            ErrorKind::InvalidInput(d) => write!(f, "invalid input: {d}"),
            ErrorKind::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ErrorKind::Engine(e) => Some(e),
            ErrorKind::InvalidInput(_) | ErrorKind::InvalidConfig(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_name() {
        let e = PipelineError::invalid_input(Phase::MergeReads, "empty read set");
        let s = e.to_string();
        assert!(s.contains("merge reads"), "{s}");
        assert!(s.contains("empty read set"), "{s}");
    }
}
