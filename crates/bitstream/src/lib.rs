//! MSB-first bit-level I/O used by every codec in the workspace.
//!
//! Code compression produces streams that are not byte aligned: Huffman
//! codewords, dictionary indices and arithmetic-coder bytes all need to be
//! packed densely and unpacked in the exact same order.  This crate provides
//! the two halves of that contract:
//!
//! * [`BitWriter`] packs bits most-significant-bit first into a `Vec<u8>`.
//! * [`BitReader`] unpacks them again, tracking the consumed position so a
//!   decoder can stop exactly at a cache-block boundary.
//!
//! Both move a whole field per call through one 64-bit word rather than
//! looping over its bits; `tests/oracle.rs` holds them to the bit-serial
//! loops kept in `tests/reference/` (same bytes, values, positions,
//! errors and panics).
//!
//! A small [`ByteCursor`] is also provided for the fixed-width little/big
//! endian reads needed by the ELF parser and container formats.
//!
//! # Examples
//!
//! ```
//! use cce_bitstream::{BitReader, BitWriter};
//!
//! # fn main() -> Result<(), cce_bitstream::EndOfStreamError> {
//! let mut w = BitWriter::new();
//! w.write_bit(true);
//! w.write_bits(0b1011, 4);
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert!(r.read_bit()?);
//! assert_eq!(r.read_bits(4)?, 0b1011);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod byte_cursor;
mod reader;
mod writer;

pub use byte_cursor::ByteCursor;
pub use reader::BitReader;
pub use writer::BitWriter;

use std::error::Error;
use std::fmt;

/// Error returned when a read runs past the end of the underlying buffer.
///
/// The error carries the bit position at which the read was attempted so a
/// decoder can report *where* a truncated stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndOfStreamError {
    bit_position: usize,
}

impl EndOfStreamError {
    pub(crate) fn new(bit_position: usize) -> Self {
        Self { bit_position }
    }

    /// Bit offset (from the start of the stream) at which the failed read began.
    pub fn bit_position(&self) -> usize {
        self.bit_position
    }
}

impl fmt::Display for EndOfStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unexpected end of bitstream at bit position {}", self.bit_position)
    }
}

impl Error for EndOfStreamError {}
