//! # ntier-report — performance observability over executed experiments
//!
//! The crates below this one *produce* runs: `ntier-lab` executes
//! content-addressed experiment plans and persists each point in a
//! manifest-backed [`ArtifactStore`](ntier_lab::ArtifactStore). This crate
//! *consumes* them:
//!
//! 1. **Run diffs** — [`load_sweep`] loads one variant's sweep back out of
//!    a store by manifest (returning errors, never panicking, on corrupt or
//!    missing artifacts); [`RunDiff::compute`] turns a before/after pair
//!    into structured deltas plus in-code [`ShapeCheck`] verdicts: knee
//!    location (via a Universal-Scalability-Law fit, [`UslFit`]),
//!    critical-tier identity, and curve direction.
//! 2. **Rendering** — [`Report`] renders a diff as plain text or markdown,
//!    and [`render::write_gnuplot`] regenerates `.dat`/`.gp` artifacts
//!    under the workspace root's `target/paper-results/report/`;
//!    [`flamegraph::write_flamegraph`] renders a flight-recorder summary
//!    there too, as folded stacks plus a self-contained critical-path
//!    icicle script.
//! 3. **Doc regeneration** — [`experiments::patch_marked_section`] splices
//!    auto-generated headline numbers into `EXPERIMENTS.md` between
//!    markers, leaving the hand-written prose untouched.
//!
//! Everything here is read-side observability: nothing in this crate
//! schedules events, draws randomness, or otherwise perturbs simulations.

pub mod diff;
pub mod experiments;
pub mod flamegraph;
pub mod render;
pub mod usl;

pub use diff::{
    check_shape, classify_curve, load_sweep, CurveShape, RunDiff, ShapeCheck, SweepPoint,
    SweepSummary,
};
pub use flamegraph::{folded_stacks, write_flamegraph};
pub use render::{write_gnuplot, Report};
pub use usl::UslFit;

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong while reporting. Reporting is diagnostics,
/// not simulation — a corrupt store or a missing run point must surface as
/// an error the caller can print, never a panic.
#[derive(Debug)]
pub enum ReportError {
    /// Underlying filesystem or store error.
    Io(io::Error),
    /// A required run point is not in the store manifest.
    MissingPoint {
        /// Content address of the missing point.
        digest: u64,
        /// Its plan label.
        label: String,
    },
    /// The data loaded fine but cannot support the requested analysis
    /// (e.g. a sweep with fewer than two points cannot be knee-fitted).
    Shape(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "{e}"),
            ReportError::MissingPoint { digest, label } => {
                write!(
                    f,
                    "point {label} ({digest:016x}) is not in the store manifest"
                )
            }
            ReportError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<io::Error> for ReportError {
    fn from(e: io::Error) -> Self {
        ReportError::Io(e)
    }
}

/// The workspace root, independent of the current working directory.
/// Report artifacts are always anchored here, so
/// `target/paper-results/report/` is the same directory whether a binary
/// runs from the workspace root, a package directory, or CI.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_the_cargo_workspace() {
        assert!(workspace_root().join("Cargo.toml").exists());
        assert!(workspace_root().join("crates/report").exists());
    }

    #[test]
    fn errors_render_their_context() {
        let e = ReportError::MissingPoint {
            digest: 0xab,
            label: "conservative@400".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("conservative@400"));
        assert!(msg.contains("00000000000000ab"));
    }
}
