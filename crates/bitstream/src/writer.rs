//! Bit-packing writer.

/// Packs bits most-significant-bit first into an owned byte buffer.
///
/// The writer never fails: it grows its buffer as needed.  Use
/// [`BitWriter::align_to_byte`] before concatenating independently decodable
/// regions (e.g. cache blocks) so each region starts on a byte boundary.
///
/// # Examples
///
/// ```
/// use cce_bitstream::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.align_to_byte();
/// assert_eq!(w.into_bytes(), vec![0b1010_0000]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte of `bytes`; 0 means byte aligned.
    partial_bits: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `capacity_bytes` bytes.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(capacity_bytes), partial_bits: 0 }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("buffer non-empty");
            *last |= 1 << (7 - self.partial_bits);
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
    }

    /// Appends the `count` least-significant bits of `value`, most
    /// significant of those bits first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`, or if `value` has bits set above `count`
    /// (a sign of a codeword-width bookkeeping bug in the caller).
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        assert!(
            count == 32 || value >> count == 0,
            "value {value:#x} does not fit in {count} bits"
        );
        if count == 0 {
            return;
        }
        // Left-justify the unfinished byte's bits and then `value` in one
        // word (at most 7 + 32 bits), then store its leading bytes.
        let used = u32::from(self.partial_bits);
        let head = if used == 0 { 0 } else { self.bytes.pop().expect("partial byte present") };
        let bits = used + count;
        let word = u64::from(head) << 56 | u64::from(value) << (64 - bits);
        self.bytes.extend_from_slice(&word.to_be_bytes()[..bits.div_ceil(8) as usize]);
        self.partial_bits = (bits % 8) as u8;
    }

    /// Appends a whole byte (8 bits).
    pub fn write_byte(&mut self, byte: u8) {
        self.write_bytes(&[byte]);
    }

    /// Appends a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let used = self.partial_bits;
        if used == 0 {
            self.bytes.extend_from_slice(bytes);
            return;
        }
        // Each byte straddles the boundary: its high bits finish the
        // current partial byte, its low bits start the next one.
        self.bytes.reserve(bytes.len());
        for &b in bytes {
            *self.bytes.last_mut().expect("partial byte present") |= b >> used;
            self.bytes.push(b << (8 - used));
        }
    }

    /// Pads with `0` bits to the next byte boundary.  No-op when already aligned.
    pub fn align_to_byte(&mut self) {
        self.partial_bits = 0;
    }

    /// Total number of bits written so far (including the unfinished byte).
    pub fn bit_len(&self) -> usize {
        if self.partial_bits == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + usize::from(self.partial_bits)
        }
    }

    /// Number of bytes the finished stream will occupy (partial bytes round up).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Finishes the stream, zero-padding the final partial byte.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the finished prefix of the stream (excludes nothing: the final
    /// partial byte is visible with its padding zeroes).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer_produces_no_bytes() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.bit_len(), 0);
        assert_eq!(w.into_bytes(), Vec::<u8>::new());
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, false, true] {
            w.write_bit(bit);
        }
        assert_eq!(w.into_bytes(), vec![0b1011_0001]);
    }

    #[test]
    fn write_bits_matches_bit_by_bit() {
        let mut a = BitWriter::new();
        a.write_bits(0b110101, 6);
        let mut b = BitWriter::new();
        for bit in [true, true, false, true, false, true] {
            b.write_bit(bit);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn write_bits_zero_count_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
    }

    #[test]
    fn write_full_width_value() {
        let mut w = BitWriter::new();
        w.write_bits(u32::MAX, 32);
        assert_eq!(w.into_bytes(), vec![0xFF; 4]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0b100, 2);
    }

    #[test]
    fn align_pads_with_zeroes() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_to_byte();
        w.write_byte(0xAB);
        assert_eq!(w.into_bytes(), vec![0b1000_0000, 0xAB]);
    }

    #[test]
    fn align_when_aligned_is_noop() {
        let mut w = BitWriter::new();
        w.write_byte(1);
        let before = w.clone();
        w.align_to_byte();
        assert_eq!(w, before);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        assert_eq!(w.byte_len(), 1);
        w.write_byte(0);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn unaligned_byte_slices_round_through_bits() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bytes(&[0x0F, 0xF0]);
        // 1 | 0000_1111 | 1111_0000 => 1000_0111 1111_1000 0...
        assert_eq!(w.into_bytes(), vec![0b1000_0111, 0b1111_1000, 0b0000_0000]);
    }
}
