//! Decoding errors.

/// Error produced when decoding a wire buffer into a [`crate::Pdu`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    Truncated {
        /// Bytes needed beyond what was available.
        needed: usize,
    },
    /// The two magic bytes did not match [`crate::MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: u16,
    },
    /// Unsupported protocol version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// Unknown PDU kind discriminant.
    BadKind {
        /// The kind byte found.
        found: u8,
    },
    /// The ack vector length is implausible (corrupt length prefix).
    AckTooLong {
        /// The declared length.
        declared: usize,
        /// The maximum accepted.
        max: usize,
    },
    /// A vector's offset width is not one of 0, 4, 8, 16, 32 or 64 bits.
    BadWidth {
        /// The width byte found.
        found: u8,
    },
    /// A vector's `base + offset` does not fit a `u64`.
    OffsetOverflow {
        /// The vector's base.
        base: u64,
        /// The largest offset of the vector.
        offset: u64,
    },
    /// Trailing bytes after a complete PDU.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed } => {
                write!(f, "buffer truncated, {needed} more bytes needed")
            }
            DecodeError::BadMagic { found } => {
                write!(f, "bad magic bytes {found:#06x}")
            }
            DecodeError::BadVersion { found } => {
                write!(f, "unsupported wire version {found}")
            }
            DecodeError::BadKind { found } => {
                write!(f, "unknown pdu kind {found}")
            }
            DecodeError::AckTooLong { declared, max } => {
                write!(f, "ack vector length {declared} exceeds maximum {max}")
            }
            DecodeError::BadWidth { found } => {
                write!(
                    f,
                    "vector offset width {found} is not 0, 4, 8, 16, 32 or 64 bits"
                )
            }
            DecodeError::OffsetOverflow { base, offset } => {
                write!(f, "vector base {base} plus offset {offset} overflows u64")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after pdu")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        assert_eq!(
            DecodeError::Truncated { needed: 4 }.to_string(),
            "buffer truncated, 4 more bytes needed"
        );
        assert!(DecodeError::BadMagic { found: 0xdead }
            .to_string()
            .contains("0xdead"));
        assert!(DecodeError::BadVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(DecodeError::BadKind { found: 7 }.to_string().contains('7'));
        assert!(DecodeError::AckTooLong {
            declared: 99,
            max: 10
        }
        .to_string()
        .contains("99"));
        assert!(DecodeError::BadWidth { found: 3 }.to_string().contains('3'));
        assert!(DecodeError::OffsetOverflow { base: 8, offset: 6 }
            .to_string()
            .contains("base 8 plus offset 6"));
        assert!(DecodeError::TrailingBytes { extra: 3 }
            .to_string()
            .contains('3'));
    }
}
