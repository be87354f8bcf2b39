//! Simulator for the Wolfe/Chanin compressed-code memory system (paper
//! §2, Fig. 1).
//!
//! In that architecture the CPU and I-cache see ordinary uncompressed
//! code; main memory holds compressed cache blocks.  On an I-cache miss
//! the **cache refill engine** looks the block's compressed address up in
//! the **LAT** (line address table, itself in main memory, cached by the
//! TLB-like **CLB**), fetches the compressed bytes, and decompresses them
//! into the cache.  Performance loss therefore depends on the I-cache
//! miss ratio — the claim this crate's experiments quantify.
//!
//! Components:
//!
//! * [`Cache`] — set-associative I-cache with LRU replacement.
//! * [`LineAddressTable`] — block index → compressed offset/size, with
//!   honest entry-width accounting.
//! * [`Clb`] — small fully-associative cache of LAT entries.
//! * [`MemorySystem`] — ties them together and runs fetch traces,
//!   reporting cycles under a parameterized cost model.
//! * [`sweep`] — expands a design-space grid (image × cache × CLB) and
//!   simulates it on a deterministic worker pool.
//!
//! # Examples
//!
//! ```
//! use cce_memsim::{Cache, CacheConfig};
//!
//! let mut cache = Cache::new(CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 });
//! assert!(!cache.access(0x100)); // cold miss
//! assert!(cache.access(0x104));  // same block: hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod clb;
mod lat;
pub mod obs;
pub mod sweep;
mod system;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use clb::Clb;
pub use lat::{LatError, LineAddressTable};
pub use system::{CostModel, DecoderLatency, MemorySystem, RefillDecompressor, SimReport};
