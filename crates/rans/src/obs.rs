//! Preregistered metric handles for the interleaved rANS backend.
//!
//! Per the workspace overhead policy (DESIGN.md §7), the coder batches
//! event counts in plain `u64` fields and flushes them once per stream —
//! encode at [`RansEncoder::finish`](crate::RansEncoder::finish), decode
//! on drop.  With the `obs` feature off every flush is a no-op.

use cce_obs::{Counter, Desc};

/// Symbols recorded across all finished
/// [`RansEncoder`](crate::RansEncoder)s: one per unit of a stream up to
/// 8 bits wide, one per bit of a wider stream.
pub static ENCODED_SYMBOLS: Counter = Counter::new();
/// Encoder lane renormalizations: 16-bit words flushed to the stream.
pub static ENCODE_LANE_FLUSHES: Counter = Counter::new();
/// Symbols decoded across all dropped
/// [`RansDecoder`](crate::RansDecoder)s: one per unit of a stream up to
/// 8 bits wide, one per bit of a wider stream.
pub static DECODED_SYMBOLS: Counter = Counter::new();
/// Decoder lane renormalizations: 16-bit words read from the stream.
pub static DECODE_LANE_REFILLS: Counter = Counter::new();

/// Descriptors for every metric this crate registers.
pub fn descriptors() -> [Desc; 4] {
    [
        Desc::counter(
            "rans.encode.symbols",
            "rANS symbols encoded: one per <=8-bit stream value, else one per bit",
            &ENCODED_SYMBOLS,
        ),
        Desc::counter(
            "rans.encode.lane_flushes",
            "encoder lane renormalization word-flushes",
            &ENCODE_LANE_FLUSHES,
        ),
        Desc::counter(
            "rans.decode.symbols",
            "rANS symbols decoded: one per <=8-bit stream value, else one per bit",
            &DECODED_SYMBOLS,
        ),
        Desc::counter(
            "rans.decode.lane_refills",
            "decoder lane renormalization word-refills",
            &DECODE_LANE_REFILLS,
        ),
    ]
}
