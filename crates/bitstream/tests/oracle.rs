//! The word-at-a-time `BitWriter`/`BitReader` against the bit-serial
//! reference in `reference/`: identical bytes out, identical values,
//! positions and errors in, identical panics.

mod reference;

use cce_bitstream::{BitReader, BitWriter};
use cce_rng::prop::prelude::*;
use reference::{RefReader, RefWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A writer operation, so mixed sequences reach every alignment.
#[derive(Debug, Clone)]
enum Op {
    Bit(bool),
    Bits { value: u32, count: u32 },
    Byte(u8),
    Bytes(Vec<u8>),
    Align,
}

/// A value of exactly `count` bits (`count` in 0..=32).
fn fit(raw: u32, count: u32) -> u32 {
    if count == 32 {
        raw
    } else {
        raw & ((1 << count) - 1)
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<bool>().prop_map(Op::Bit),
        (0u32..=32, any::<u32>())
            .prop_map(|(count, raw)| Op::Bits { value: fit(raw, count), count }),
        any::<u8>().prop_map(Op::Byte),
        prop::collection::vec(any::<u8>(), 0..12).prop_map(Op::Bytes),
        Just(Op::Align),
    ]
}

fn apply(op: &Op, fast: &mut BitWriter, slow: &mut RefWriter) {
    match op {
        Op::Bit(bit) => {
            fast.write_bit(*bit);
            slow.write_bit(*bit);
        }
        Op::Bits { value, count } => {
            fast.write_bits(*value, *count);
            slow.write_bits(*value, *count);
        }
        Op::Byte(byte) => {
            fast.write_byte(*byte);
            slow.write_byte(*byte);
        }
        Op::Bytes(bytes) => {
            fast.write_bytes(bytes);
            slow.write_bytes(bytes);
        }
        Op::Align => {
            fast.align_to_byte();
            slow.align_to_byte();
        }
    }
}

/// Runs `f` expecting a panic; returns its message.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload is a string")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_width_at_every_alignment_writes_and_reads_like_the_reference(
        raws in prop::collection::vec(any::<u32>(), 33),
    ) {
        for lead in 0..8u32 {
            for count in 0..=32u32 {
                let value = fit(raws[count as usize], count);
                let mut fast = BitWriter::new();
                let mut slow = RefWriter::default();
                for op in [
                    Op::Bits { value: fit(raws[0], lead), count: lead },
                    Op::Bits { value, count },
                    Op::Bits { value: fit(raws[1], 5), count: 5 },
                ] {
                    apply(&op, &mut fast, &mut slow);
                }
                prop_assert_eq!(fast.as_bytes(), slow.as_bytes());
                prop_assert_eq!(fast.bit_len(), slow.bit_len());

                let bytes = fast.into_bytes();
                let mut fast = BitReader::at_bit(&bytes, lead as usize);
                let mut slow = RefReader::at_bit(&bytes, lead as usize);
                prop_assert_eq!(fast.peek_bits(count), slow.peek_bits(count));
                prop_assert_eq!(fast.peek_bits(count), value);
                prop_assert_eq!(fast.read_bits(count).unwrap(), value);
                prop_assert_eq!(slow.read_bits(count).unwrap(), value);
                prop_assert_eq!(fast.bit_position(), slow.bit_position());
            }
        }
    }

    #[test]
    fn mixed_write_sequences_produce_identical_bytes(
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let mut fast = BitWriter::new();
        let mut slow = RefWriter::default();
        for op in &ops {
            apply(op, &mut fast, &mut slow);
            prop_assert_eq!(fast.as_bytes(), slow.as_bytes());
            prop_assert_eq!(fast.bit_len(), slow.bit_len());
        }
        prop_assert_eq!(fast.into_bytes(), slow.as_bytes().to_vec());
    }

    #[test]
    fn reads_and_peeks_match_the_reference_up_to_and_past_the_end(
        bytes in prop::collection::vec(any::<u8>(), 0..24),
        steps in prop::collection::vec((0u32..=32, 0u32..4), 1..80),
    ) {
        let mut fast = BitReader::new(&bytes);
        let mut slow = RefReader::at_bit(&bytes, 0);
        for &(count, kind) in &steps {
            for width in 0..=32 {
                prop_assert_eq!(fast.peek_bits(width), slow.peek_bits(width));
            }
            let before = fast.bit_position();
            match kind {
                0 => {
                    let expected = slow.read_bits(count);
                    let got = fast.read_bits(count).map_err(|e| e.bit_position());
                    prop_assert_eq!(got, expected);
                    if expected.is_err() {
                        // A failed read reports, and stays at, its start.
                        prop_assert_eq!(expected, Err(before));
                        prop_assert_eq!(fast.bit_position(), before);
                    }
                }
                1 => {
                    let got = fast.read_bit().map_err(|e| e.bit_position());
                    prop_assert_eq!(got, slow.read_bit());
                }
                2 => {
                    let got = fast.read_byte().map_err(|e| e.bit_position());
                    prop_assert_eq!(got, slow.read_byte());
                }
                _ => {
                    fast.align_to_byte();
                    slow.align_to_byte();
                }
            }
            prop_assert_eq!(fast.bit_position(), slow.bit_position());
            prop_assert_eq!(fast.remaining_bits(), slow.remaining_bits());
        }
    }
}

#[test]
fn peeks_past_the_end_are_zero_padded_at_every_start() {
    let bytes = [0xFF; 5];
    for start in 0..=bytes.len() * 8 {
        let fast = BitReader::at_bit(&bytes, start);
        let slow = RefReader::at_bit(&bytes, start);
        for count in 0..=32 {
            assert_eq!(
                fast.peek_bits(count),
                slow.peek_bits(count),
                "start {start}, count {count}"
            );
        }
    }
}

#[test]
fn oversized_values_panic_with_the_reference_message() {
    for (value, count) in [(0b100, 2), (1, 0), (u32::MAX, 31), (0x100, 8)] {
        let fast = panic_message(|| BitWriter::new().write_bits(value, count));
        let slow = panic_message(|| RefWriter::default().write_bits(value, count));
        assert_eq!(fast, slow);
        assert!(fast.contains("does not fit"), "{fast}");
    }
}

#[test]
fn counts_over_32_panic_with_the_reference_message() {
    let bytes = [0u8; 8];
    let cases: [(String, String); 3] = [
        (
            panic_message(|| BitWriter::new().write_bits(0, 33)),
            panic_message(|| RefWriter::default().write_bits(0, 33)),
        ),
        (
            panic_message(|| {
                let _ = BitReader::new(&bytes).read_bits(33);
            }),
            panic_message(|| {
                let _ = RefReader::at_bit(&bytes, 0).read_bits(33);
            }),
        ),
        (
            panic_message(|| {
                let _ = BitReader::new(&bytes).peek_bits(33);
            }),
            panic_message(|| {
                let _ = RefReader::at_bit(&bytes, 0).peek_bits(33);
            }),
        ),
    ];
    for (fast, slow) in cases {
        assert_eq!(fast, slow);
        assert!(fast.contains("more than 32 bits"), "{fast}");
    }
}
