//! MPI error type.

use std::error::Error;
use std::fmt;

/// Failure modes of the MPI subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Unpack past the end of a packed buffer.
    Truncated {
        /// Bytes requested (`usize::MAX` when the count overflows).
        wanted: usize,
        /// Bytes available.
        available: usize,
    },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Truncated { wanted, available } => {
                write!(f, "unpack of {wanted} bytes but only {available} remain")
            }
        }
    }
}

impl Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(MpiError::Truncated { wanted: 8, available: 2 }.to_string().contains('8'));
    }

    #[test]
    fn is_error_send_sync() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<MpiError>();
    }
}
