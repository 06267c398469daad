//! Unified error type for the HumMer pipeline.

use std::fmt;

/// Any failure in the end-to-end pipeline.
#[derive(Debug)]
pub enum HummerError {
    /// A source alias is not registered in the metadata repository.
    UnknownSource(String),
    /// An alias was registered twice.
    DuplicateSource(String),
    /// A wizard method was called in the wrong phase.
    WizardPhase {
        /// What the caller tried to do.
        action: String,
        /// The phase the wizard is actually in.
        phase: String,
    },
    /// Not enough sources for the requested operation.
    Config(String),
    /// A source file could not be loaded; carries the offending path so a
    /// failed registration is debuggable from the message alone.
    SourceFile {
        /// The path that failed to load.
        path: String,
        /// What went wrong (I/O or CSV parse).
        source: hummer_engine::EngineError,
    },
    /// Relational engine failure.
    Engine(hummer_engine::EngineError),
    /// Fusion failure.
    Fusion(hummer_fusion::FusionError),
    /// Query parse/execution failure.
    Query(hummer_query::QueryError),
}

impl fmt::Display for HummerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HummerError::UnknownSource(a) => write!(f, "unknown source alias `{a}`"),
            HummerError::DuplicateSource(a) => {
                write!(f, "source alias `{a}` is already registered")
            }
            HummerError::WizardPhase { action, phase } => {
                write!(f, "cannot {action} in wizard phase `{phase}`")
            }
            HummerError::Config(msg) => write!(f, "configuration error: {msg}"),
            HummerError::SourceFile { path, source } => {
                write!(f, "cannot load source file `{path}`: {source}")
            }
            HummerError::Engine(e) => write!(f, "engine error: {e}"),
            HummerError::Fusion(e) => write!(f, "fusion error: {e}"),
            HummerError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for HummerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HummerError::Engine(e) => Some(e),
            HummerError::SourceFile { source, .. } => Some(source),
            HummerError::Fusion(e) => Some(e),
            HummerError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hummer_engine::EngineError> for HummerError {
    fn from(e: hummer_engine::EngineError) -> Self {
        HummerError::Engine(e)
    }
}

impl From<hummer_fusion::FusionError> for HummerError {
    fn from(e: hummer_fusion::FusionError) -> Self {
        HummerError::Fusion(e)
    }
}

impl From<hummer_query::QueryError> for HummerError {
    fn from(e: hummer_query::QueryError) -> Self {
        HummerError::Query(e)
    }
}

/// Result alias for the pipeline.
pub type Result<T> = std::result::Result<T, HummerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(HummerError::UnknownSource("x".into())
            .to_string()
            .contains("x"));
        let w = HummerError::WizardPhase {
            action: "fuse".into(),
            phase: "Matching".into(),
        };
        assert!(w.to_string().contains("fuse"));
        assert!(w.to_string().contains("Matching"));
    }

    #[test]
    fn conversions() {
        use std::error::Error as _;
        let e: HummerError = hummer_engine::EngineError::DuplicateColumn("c".into()).into();
        assert!(e.source().is_some());
    }

    #[test]
    fn source_file_errors_name_the_path() {
        use std::error::Error as _;
        let e = HummerError::SourceFile {
            path: "/data/missing.csv".into(),
            source: hummer_engine::EngineError::Parse("empty CSV input".into()),
        };
        assert!(e.to_string().contains("/data/missing.csv"));
        assert!(e.to_string().contains("empty CSV input"));
        assert!(e.source().is_some());
    }
}
