//! Bit-unpacking reader.

use crate::EndOfStreamError;

/// Reads bits most-significant-bit first from a borrowed byte slice.
///
/// The reader tracks its bit position so decoders can honour region
/// boundaries (e.g. stop exactly where a cache block's codewords end) and
/// report precise truncation positions.
///
/// # Examples
///
/// ```
/// use cce_bitstream::BitReader;
///
/// # fn main() -> Result<(), cce_bitstream::EndOfStreamError> {
/// let mut r = BitReader::new(&[0b1010_0000]);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.bit_position(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_position: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, bit_position: 0 }
    }

    /// Creates a reader positioned `bit_offset` bits into `bytes`.
    ///
    /// This is how a random-access decoder jumps straight to the start of a
    /// compressed cache block recorded in the line address table.
    ///
    /// # Panics
    ///
    /// Panics if `bit_offset` lies beyond the end of `bytes`.
    pub fn at_bit(bytes: &'a [u8], bit_offset: usize) -> Self {
        assert!(
            bit_offset <= bytes.len() * 8,
            "bit offset {bit_offset} beyond stream of {} bits",
            bytes.len() * 8
        );
        Self { bytes, bit_position: bit_offset }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`EndOfStreamError`] when the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<bool, EndOfStreamError> {
        let byte_index = self.bit_position / 8;
        let byte = *self.bytes.get(byte_index).ok_or(EndOfStreamError::new(self.bit_position))?;
        let bit = byte >> (7 - self.bit_position % 8) & 1 == 1;
        self.bit_position += 1;
        Ok(bit)
    }

    /// Reads `count` bits into the low bits of a `u32`, first bit read being
    /// the most significant of the result.
    ///
    /// # Errors
    ///
    /// Returns [`EndOfStreamError`] if fewer than `count` bits remain; the
    /// reader position is left where the failed read began.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, EndOfStreamError> {
        let value = self.peek_bits(count); // asserts `count <= 32`
        if self.remaining_bits() < count as usize {
            return Err(EndOfStreamError::new(self.bit_position));
        }
        self.bit_position += count as usize;
        Ok(value)
    }

    /// Returns the next `count` bits like [`read_bits`](Self::read_bits)
    /// without consuming them; bits past the end of the stream read as
    /// zero.
    ///
    /// This is the lookahead a table-driven decoder indexes with: it may
    /// peek a full table width even when the stream's last codeword is
    /// shorter.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn peek_bits(&self, count: u32) -> u32 {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if count == 0 {
            return 0;
        }
        // One big-endian load of the 8 bytes holding the position covers
        // up to 7 + 32 bits; a load running off the end is zero-filled.
        let start = self.bit_position / 8;
        let word = match self.bytes.get(start..start + 8) {
            Some(window) => u64::from_be_bytes(window.try_into().expect("8-byte window")),
            None => {
                let tail = self.bytes.get(start..).unwrap_or(&[]);
                let mut window = [0u8; 8];
                window[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(window)
            }
        };
        (word << (self.bit_position % 8) >> (64 - count)) as u32
    }

    /// Reads one whole byte (8 bits, not necessarily aligned).
    ///
    /// # Errors
    ///
    /// Returns [`EndOfStreamError`] if fewer than 8 bits remain.
    pub fn read_byte(&mut self) -> Result<u8, EndOfStreamError> {
        if self.bit_position.is_multiple_of(8) {
            // Fast path for the aligned case the arithmetic coder lives on.
            let byte = *self
                .bytes
                .get(self.bit_position / 8)
                .ok_or(EndOfStreamError::new(self.bit_position))?;
            self.bit_position += 8;
            Ok(byte)
        } else {
            Ok(self.read_bits(8)? as u8)
        }
    }

    /// Skips forward to the next byte boundary.  No-op when aligned.
    pub fn align_to_byte(&mut self) {
        self.bit_position = self.bit_position.next_multiple_of(8);
    }

    /// Current position in bits from the start of the stream.
    pub fn bit_position(&self) -> usize {
        self.bit_position
    }

    /// Number of unread bits.
    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.bit_position)
    }

    /// Whether every bit has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining_bits() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_bits_msb_first() {
        let mut r = BitReader::new(&[0b1011_0001]);
        assert!(r.read_bit().unwrap());
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(6).unwrap(), 0b11_0001);
        assert!(r.is_exhausted());
    }

    #[test]
    fn read_past_end_reports_position() {
        let mut r = BitReader::new(&[0xFF]);
        r.read_bits(8).unwrap();
        let err = r.read_bit().unwrap_err();
        assert_eq!(err.bit_position(), 8);
        assert_eq!(err.to_string(), "unexpected end of bitstream at bit position 8");
    }

    #[test]
    fn failed_multi_bit_read_does_not_advance() {
        let mut r = BitReader::new(&[0xAA]);
        r.read_bits(5).unwrap();
        assert!(r.read_bits(4).is_err());
        assert_eq!(r.bit_position(), 5);
    }

    #[test]
    fn at_bit_starts_mid_stream() {
        let mut r = BitReader::at_bit(&[0b0000_0111, 0b1000_0000], 5);
        assert_eq!(r.read_bits(4).unwrap(), 0b1111);
    }

    #[test]
    #[should_panic(expected = "beyond stream")]
    fn at_bit_past_end_panics() {
        let _ = BitReader::at_bit(&[0], 9);
    }

    #[test]
    fn align_skips_to_boundary() {
        let mut r = BitReader::new(&[0xFF, 0x01]);
        r.read_bits(3).unwrap();
        r.align_to_byte();
        assert_eq!(r.read_byte().unwrap(), 0x01);
    }

    #[test]
    fn aligned_and_unaligned_byte_reads_agree() {
        let data = [0b1100_1100, 0b1010_1010, 0b0101_0101];
        let mut aligned = BitReader::new(&data);
        assert_eq!(aligned.read_byte().unwrap(), data[0]);
        let mut unaligned = BitReader::new(&data);
        unaligned.read_bits(4).unwrap();
        assert_eq!(unaligned.read_byte().unwrap(), 0b1100_1010);
    }

    #[test]
    fn zero_bit_read_returns_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn full_width_read_round_trips() {
        let mut r = BitReader::new(&[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
    }
}
