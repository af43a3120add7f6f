//! The single error type crossing the cli ↔ core ↔ serve boundaries.
//!
//! Everything the front ends can fail on — bad arguments, I/O, weapon
//! configuration, cache trouble, fatal parse failures — is one enum, so
//! exit codes (CLI) and HTTP statuses (`wap-serve`) derive from the error
//! itself instead of being re-invented at each boundary. PHP inputs that
//! fail to parse are *not* errors: the pipeline degrades them to
//! `AppReport::parse_errors` and keeps scanning.

use std::fmt;
use std::path::{Path, PathBuf};

/// An error from the WAP pipeline or one of its front ends.
///
/// Each variant carries the file or subject it concerns, so messages can
/// always say *what* failed, not just *how*.
#[derive(Debug)]
pub enum WapError {
    /// The caller asked for something malformed (unknown flag, bad
    /// format name, missing value). CLI exit code 2, HTTP 400.
    Usage(String),
    /// An I/O operation failed on a specific path.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A file that *must* parse (a weapon configuration, a trace
    /// destination's parent, …) did not.
    Parse {
        /// The offending file.
        file: String,
        /// What the parser objected to.
        detail: String,
    },
    /// The incremental cache store misbehaved beyond its self-healing.
    Cache {
        /// The cache root involved.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// A configuration input (weapon JSON, sanitizer spec) is invalid.
    Config {
        /// Which configuration item.
        what: String,
        /// Why it was rejected.
        detail: String,
    },
}

impl WapError {
    /// Convenience constructor for usage errors.
    pub fn usage(msg: impl Into<String>) -> WapError {
        WapError::Usage(msg.into())
    }

    /// Wraps an I/O error with the path it happened on.
    pub fn io(path: impl AsRef<Path>, source: std::io::Error) -> WapError {
        WapError::Io {
            path: path.as_ref().to_path_buf(),
            source,
        }
    }

    /// The process exit code the CLI maps this error to. Distinct per
    /// variant so scripts can tell usage mistakes (2) from environment
    /// failures (3+); analysis findings use 0/1 and never come here.
    pub fn exit_code(&self) -> i32 {
        match self {
            WapError::Usage(_) => 2,
            WapError::Io { .. } => 3,
            WapError::Parse { .. } => 4,
            WapError::Cache { .. } => 5,
            WapError::Config { .. } => 6,
        }
    }

    /// The HTTP status `wap-serve` answers with for this error: client
    /// mistakes map to 4xx, environment failures to 500.
    pub fn http_status(&self) -> u16 {
        match self {
            WapError::Usage(_) | WapError::Config { .. } => 400,
            WapError::Parse { .. } => 422,
            WapError::Io { .. } | WapError::Cache { .. } => 500,
        }
    }
}

impl fmt::Display for WapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WapError::Usage(msg) => write!(f, "{msg}"),
            WapError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            WapError::Parse { file, detail } => write!(f, "{file}: {detail}"),
            WapError::Cache { path, detail } => {
                write!(f, "cache at {}: {detail}", path.display())
            }
            WapError::Config { what, detail } => write!(f, "{what}: {detail}"),
        }
    }
}

impl std::error::Error for WapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WapError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<String> for WapError {
    fn from(msg: String) -> WapError {
        WapError::Usage(msg)
    }
}

impl From<&str> for WapError {
    fn from(msg: &str) -> WapError {
        WapError::Usage(msg.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errors = [
            WapError::usage("bad flag"),
            WapError::io(
                "/nope",
                std::io::Error::new(std::io::ErrorKind::NotFound, "x"),
            ),
            WapError::Parse {
                file: "w.json".into(),
                detail: "truncated".into(),
            },
            WapError::Cache {
                path: "/tmp/c".into(),
                detail: "unwritable".into(),
            },
            WapError::Config {
                what: "--sanitizer".into(),
                detail: "no classes".into(),
            },
        ];
        let mut codes: Vec<i32> = errors.iter().map(WapError::exit_code).collect();
        assert!(codes.iter().all(|&c| c >= 2), "{codes:?}");
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "exit codes collide");
    }

    #[test]
    fn http_statuses_split_client_from_server() {
        assert_eq!(WapError::usage("x").http_status(), 400);
        assert_eq!(
            WapError::Config {
                what: "w".into(),
                detail: "d".into()
            }
            .http_status(),
            400
        );
        assert_eq!(
            WapError::Parse {
                file: "f".into(),
                detail: "d".into()
            }
            .http_status(),
            422
        );
        assert_eq!(
            WapError::io("/x", std::io::Error::other("y")).http_status(),
            500
        );
    }

    #[test]
    fn display_includes_file_context() {
        let e = WapError::io(
            "/etc/app.php",
            std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
        );
        let msg = e.to_string();
        assert!(msg.contains("/etc/app.php"), "{msg}");
        let e = WapError::Parse {
            file: "weapon.json".into(),
            detail: "unexpected end of input".into(),
        };
        assert!(e.to_string().starts_with("weapon.json: "), "{e}");
    }
}
