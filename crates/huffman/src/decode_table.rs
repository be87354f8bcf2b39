//! Table-driven Huffman decoding.
//!
//! The canonical decoder in [`CodeBook::decode`] walks the code one bit at
//! a time — the faithful model of a shift-register hardware decoder.  For
//! software decompression throughput, [`DecodeTable`] resolves any code of
//! up to `root_bits` bits with a single indexed load (longer codes fall
//! back to the canonical walk), the standard one-level acceleration used
//! by production inflate implementations.
//!
//! # Examples
//!
//! ```
//! use cce_huffman::CodeBook;
//! use cce_bitstream::{BitReader, BitWriter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let book = CodeBook::from_frequencies(&[7, 2, 1, 1], 15)?;
//! let table = book.decode_table();
//!
//! let mut w = BitWriter::new();
//! for &s in &[0u16, 2, 0, 3, 1] {
//!     book.encode(&mut w, s);
//! }
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! for &s in &[0u16, 2, 0, 3, 1] {
//!     assert_eq!(table.decode(&mut r)?, s);
//! }
//! # Ok(())
//! # }
//! ```

use crate::codebook::{CodeBook, DecodeSymbolError};
use cce_bitstream::BitReader;

/// Codes at most this long resolve with one table load.
const DEFAULT_ROOT_BITS: u8 = 11;

/// Marker for table slots whose code is longer than the root width.
const ESCAPE: u8 = u8::MAX;

/// One-level acceleration table over a [`CodeBook`].
#[derive(Debug, Clone)]
pub struct DecodeTable {
    root_bits: u8,
    /// Indexed by the next `root_bits` bits (left-justified); holds
    /// `(symbol, code_len)` or `len == ESCAPE` for over-long codes.
    entries: Vec<(u16, u8)>,
    /// Fallback canonical decoder for codes longer than `root_bits`.
    book: CodeBook,
}

impl CodeBook {
    /// Builds a one-level decode table (root width 11 bits, or the longest
    /// code if shorter).
    pub fn decode_table(&self) -> DecodeTable {
        self.decode_table_with_root(DEFAULT_ROOT_BITS)
    }

    /// Builds a decode table resolving codes of up to `root_bits` bits in
    /// one load.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= root_bits <= 15`.
    pub fn decode_table_with_root(&self, root_bits: u8) -> DecodeTable {
        assert!((1..=15).contains(&root_bits), "root_bits must be 1..=15");
        let root_bits = root_bits.min(self.max_code_len());
        let mut entries = vec![(0u16, ESCAPE); 1usize << root_bits];
        for symbol in 0..self.lengths().len() as u16 {
            let len = self.length(symbol);
            if len == 0 || len > root_bits {
                continue;
            }
            let code = self.code(symbol);
            // Fill every slot whose prefix is this codeword.
            let shift = root_bits - len;
            let base = (code << shift) as usize;
            for suffix in 0..1usize << shift {
                entries[base + suffix] = (symbol, len);
            }
        }
        DecodeTable { root_bits, entries, book: self.clone() }
    }
}

impl DecodeTable {
    /// The root width in bits.
    pub fn root_bits(&self) -> u8 {
        self.root_bits
    }

    /// Decodes one symbol, using a single table load for codes that fit
    /// the root width.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CodeBook::decode`].
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, DecodeSymbolError> {
        // Bits past the end peek as zero, so a slot only counts when its
        // whole codeword lies inside the stream.
        let (symbol, len) = self.entries[reader.peek_bits(u32::from(self.root_bits)) as usize];
        if len != ESCAPE && usize::from(len) <= reader.remaining_bits() {
            reader.read_bits(u32::from(len)).expect("length checked");
            return Ok(symbol);
        }
        // Over-long code or truncated stream: the canonical walk decodes
        // it or reports the error at the right position.
        self.book.decode(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_bitstream::BitWriter;

    /// Fibonacci weights: codes from 1 to 15 bits, so some exceed any
    /// root width below 15.
    fn fibonacci_book() -> CodeBook {
        let freqs: Vec<u64> = (0..24)
            .scan((1u64, 1u64), |s, _| {
                let v = s.0;
                *s = (s.1, s.0 + s.1);
                Some(v)
            })
            .collect();
        CodeBook::from_frequencies(&freqs, 15).unwrap()
    }

    fn round_trip_both(book: &CodeBook, symbols: &[u16]) {
        let table = book.decode_table();
        let mut w = BitWriter::new();
        for &s in symbols {
            book.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut slow = BitReader::new(&bytes);
        let mut fast = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(book.decode(&mut slow).unwrap(), s);
            assert_eq!(table.decode(&mut fast).unwrap(), s);
        }
        assert_eq!(slow.bit_position(), fast.bit_position());
    }

    #[test]
    fn matches_canonical_decoder_on_mixed_codes() {
        let symbols: Vec<u16> = (0..24).rev().chain(0..24).collect();
        round_trip_both(&fibonacci_book(), &symbols);
    }

    #[test]
    fn single_symbol_code() {
        round_trip_both(&CodeBook::from_frequencies(&[0, 5], 15).unwrap(), &[1, 1, 1]);
    }

    #[test]
    fn handles_stream_shorter_than_root() {
        // One 1-bit code in the stream: available < root_bits must still
        // resolve via the partial lookup.
        let book = CodeBook::from_frequencies(&[9, 1, 1, 1], 15).unwrap();
        let table = book.decode_table();
        let mut w = BitWriter::new();
        book.encode(&mut w, 0); // 1-bit code
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(table.decode(&mut r).unwrap(), 0);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let book = CodeBook::from_frequencies(&[1, 1, 1, 1], 15).unwrap();
        let table = book.decode_table();
        let mut r = BitReader::new(&[]);
        assert!(table.decode(&mut r).is_err());
    }

    /// Decodes from `start` to the first error with both decoders and
    /// asserts every result, the error and each bit position agree.
    fn assert_agrees_from(book: &CodeBook, table: &DecodeTable, bytes: &[u8], start: usize) {
        let mut slow = BitReader::at_bit(bytes, start);
        let mut fast = BitReader::at_bit(bytes, start);
        loop {
            let expected = book.decode(&mut slow);
            assert_eq!(table.decode(&mut fast), expected, "start bit {start}");
            assert_eq!(fast.bit_position(), slow.bit_position(), "start bit {start}");
            if expected.is_err() {
                return;
            }
        }
    }

    #[test]
    fn truncated_and_over_long_codes_match_the_canonical_decoder() {
        let book = fibonacci_book();
        let mut w = BitWriter::new();
        for s in (0..24u16).rev().chain(0..24) {
            book.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        for table in [book.decode_table(), book.decode_table_with_root(4)] {
            // Every cut of the stream ends some codeword early; every
            // start bit lands mid-codeword somewhere.
            for cut in 0..=bytes.len() {
                for start in 0..=(cut * 8).min(40) {
                    assert_agrees_from(&book, &table, &bytes[..cut], start);
                }
            }
        }
    }

    #[test]
    fn one_symbol_code_reports_the_invalid_codeword_at_the_same_position() {
        let book = CodeBook::from_frequencies(&[0, 5], 15).unwrap();
        let table = book.decode_table();
        // `0` bits decode; the `1` bit matches no codeword.
        for bytes in [[0b0001_0000u8], [0xFF], [0]] {
            for start in 0..=8 {
                assert_agrees_from(&book, &table, &bytes, start);
            }
        }
    }

    #[test]
    fn tiny_root_still_decodes_via_fallback() {
        let freqs: Vec<u64> = (1..=40).collect();
        let book = CodeBook::from_frequencies(&freqs, 15).unwrap();
        let table = book.decode_table_with_root(2);
        let symbols: Vec<u16> = (0..40).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            book.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(table.decode(&mut r).unwrap(), s);
        }
    }
}
