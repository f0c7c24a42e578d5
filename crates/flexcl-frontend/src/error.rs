//! Error types for the frontend.

use crate::token::Span;
use std::fmt;

/// Result alias used across the frontend.
pub type Result<T> = std::result::Result<T, FrontendError>;

/// Errors produced while lexing, parsing or analysing an OpenCL kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// The lexer met malformed input.
    Lex {
        /// Human-readable description.
        message: String,
        /// Location of the offending text.
        span: Span,
    },
    /// The parser met an unexpected token.
    Parse {
        /// Human-readable description.
        message: String,
        /// Location of the offending token.
        span: Span,
    },
    /// Semantic analysis rejected the program.
    Sema {
        /// Human-readable description.
        message: String,
        /// Location of the offending construct.
        span: Span,
    },
}

impl FrontendError {
    /// The source location the error refers to.
    pub fn span(&self) -> Span {
        match self {
            FrontendError::Lex { span, .. }
            | FrontendError::Parse { span, .. }
            | FrontendError::Sema { span, .. } => *span,
        }
    }

    /// The error message without the location prefix.
    pub fn message(&self) -> &str {
        match self {
            FrontendError::Lex { message, .. }
            | FrontendError::Parse { message, .. }
            | FrontendError::Sema { message, .. } => message,
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Lex { message, span } => write!(f, "lex error at {span}: {message}"),
            FrontendError::Parse { message, span } => write!(f, "parse error at {span}: {message}"),
            FrontendError::Sema { message, span } => {
                write!(f, "semantic error at {span}: {message}")
            }
        }
    }
}

impl std::error::Error for FrontendError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e =
            FrontendError::Parse { message: "expected `;`".into(), span: Span::new(0, 1, 3, 7) };
        assert_eq!(e.to_string(), "parse error at 3:7: expected `;`");
        assert_eq!(e.span().line, 3);
        assert_eq!(e.message(), "expected `;`");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrontendError>();
    }
}
