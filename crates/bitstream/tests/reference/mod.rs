//! Bit-serial reference implementations of `BitWriter` and `BitReader`.
//!
//! These are the original one-bit-per-iteration loops the shipped
//! word-at-a-time kernels replaced. They live in the test tree only, as
//! the oracle `tests/oracle.rs` holds the fast paths to: same bytes out,
//! same values and positions in, same errors and panics.

/// Packs bits MSB first, one bit per step.
#[derive(Debug, Clone, Default)]
pub struct RefWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte of `bytes`; 0 means aligned.
    partial_bits: u8,
}

impl RefWriter {
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

    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        assert!(
            count == 32 || value >> count == 0,
            "value {value:#x} does not fit in {count} bits"
        );
        for i in (0..count).rev() {
            self.write_bit(value >> i & 1 == 1);
        }
    }

    pub fn write_byte(&mut self, byte: u8) {
        self.write_bits(u32::from(byte), 8);
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    pub fn align_to_byte(&mut self) {
        self.partial_bits = 0;
    }

    pub fn bit_len(&self) -> usize {
        if self.partial_bits == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + usize::from(self.partial_bits)
        }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Unpacks bits MSB first, one bit per step.
#[derive(Debug, Clone)]
pub struct RefReader<'a> {
    bytes: &'a [u8],
    bit_position: usize,
}

impl<'a> RefReader<'a> {
    pub fn at_bit(bytes: &'a [u8], bit_position: usize) -> Self {
        assert!(bit_position <= bytes.len() * 8, "bit offset beyond stream");
        Self { bytes, bit_position }
    }

    /// The bit at `position`, or `None` past the end.
    fn bit_at(&self, position: usize) -> Option<bool> {
        self.bytes.get(position / 8).map(|byte| byte >> (7 - position % 8) & 1 == 1)
    }

    /// `Err` carries the bit position the failed read began at.
    pub fn read_bit(&mut self) -> Result<bool, usize> {
        let bit = self.bit_at(self.bit_position).ok_or(self.bit_position)?;
        self.bit_position += 1;
        Ok(bit)
    }

    pub fn read_bits(&mut self, count: u32) -> Result<u32, usize> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if self.remaining_bits() < count as usize {
            return Err(self.bit_position);
        }
        let mut value = 0u32;
        for _ in 0..count {
            value = value << 1 | u32::from(self.read_bit().expect("length checked"));
        }
        Ok(value)
    }

    /// The next `count` bits, zero past the end, without consuming them.
    pub fn peek_bits(&self, count: u32) -> u32 {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let mut value = 0u32;
        for i in 0..count as usize {
            value = value << 1 | u32::from(self.bit_at(self.bit_position + i).unwrap_or(false));
        }
        value
    }

    pub fn read_byte(&mut self) -> Result<u8, usize> {
        self.read_bits(8).map(|value| value as u8)
    }

    pub fn align_to_byte(&mut self) {
        self.bit_position = self.bit_position.next_multiple_of(8);
    }

    pub fn bit_position(&self) -> usize {
        self.bit_position
    }

    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.bit_position)
    }
}
