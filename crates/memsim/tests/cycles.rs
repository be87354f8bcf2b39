//! Hand-computed cycle-count regressions for the memory-system model.
//!
//! Each test walks a tiny trace whose cost can be derived by hand from
//! the documented cost model, so any change to the refill accounting —
//! intended or not — fails here with exact numbers.  The cost model
//! under test is the default one:
//!
//! * `memory_latency` = 20 cycles before data flows
//! * `bus_bytes_per_cycle` = 4
//! * `decoder` = the nibble engine: no startup, 2.0 cycles/byte
//!   (4 bits retired per cycle)
//!
//! giving, for 32-byte blocks:
//!
//! * uncompressed refill = 20 + 32/4                  = 28 cycles
//! * compressed refill   = [20 if CLB miss] + 20 + ceil(size/4) + 64

use cce_memsim::{CacheConfig, CostModel, DecoderLatency, LineAddressTable, MemorySystem};

fn costs() -> CostModel {
    CostModel {
        memory_latency: 20,
        bus_bytes_per_cycle: 4,
        decoder: DecoderLatency { startup_cycles: 0, cycles_per_byte: 2.0 },
    }
}

#[test]
fn all_hit_trace_costs_one_cycle_per_fetch_plus_one_refill() {
    let config = CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 };
    let mut sys = MemorySystem::uncompressed(config, costs());
    // 100 fetches of the same block: one cold miss, then 99 hits.
    let trace = vec![0u64; 100];
    let report = sys.run(&trace);
    assert_eq!(report.fetches, 100);
    assert_eq!((report.cache.hits, report.cache.misses), (99, 1));
    // 100 fetch cycles + one uncompressed refill of 20 + 32/4 = 28.
    assert_eq!(report.refill_cycles, 28);
    assert_eq!(report.cycles, 128);
    assert_eq!(report.cpf(), 1.28);
}

#[test]
fn cold_sequential_misses_pay_one_lat_fetch_per_clb_line() {
    let config = CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 };
    // Every block compresses to 18 bytes; the CLB's default line coverage
    // is 16 entries, so blocks 0..12 share one LAT line.
    let lat = LineAddressTable::from_block_sizes(vec![18; 32]);
    let mut sys = MemorySystem::compressed(config, costs(), lat, 16);
    // 12 cold fetches of 12 distinct blocks: every one misses the cache.
    let trace: Vec<u64> = (0..12).map(|i| i * 32).collect();
    let report = sys.run(&trace);
    assert_eq!((report.cache.hits, report.cache.misses), (0, 12));
    // Block 0 misses the CLB and installs the line; blocks 1..11 hit it.
    assert_eq!((report.clb_hits, report.clb_misses), (11, 1));
    // Refill: 20 latency + ceil(18/4)=5 transfer + ceil(32*2)=64 decompress
    // = 89, plus 20 more for the one CLB miss's LAT fetch.
    assert_eq!(report.refill_cycles, (20 + 89) + 11 * 89);
    assert_eq!(report.cycles, 12 + 1088);
}

#[test]
fn startup_cycles_add_to_the_refill_formula() {
    // The same compressed system with an engine that pays a 9-cycle
    // start-up per block, then produces a byte per cycle — so a 32-byte
    // block decompresses in 9 + 32 = 41 cycles instead of the nibble
    // engine's 64.
    let config = CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 };
    let decoder = DecoderLatency { startup_cycles: 9, cycles_per_byte: 1.0 };
    let costs = CostModel { decoder, ..costs() };
    let lat = LineAddressTable::from_block_sizes(vec![20; 32]);
    let mut sys = MemorySystem::compressed(config, costs, lat, 16);
    let report = sys.run(&[0u64]);
    // One fetch; refill = 20 LAT fetch (cold CLB) + 20 latency +
    // ceil(20/4) = 5 transfer + 41 decompress.
    assert_eq!(report.refill_cycles, 20 + 20 + 5 + 41);
    assert_eq!(report.cycles, 1 + 86);
}

#[test]
fn fast_kernel_pins_under_nibble_latency() {
    // The PR-10 fast kernel (flat cache arrays, hoisted refill constants)
    // against the same hand-derived numbers as the tests above, with the
    // retained reference walk required to land on the identical report.
    let config = CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 };
    let costs = CostModel { decoder: DecoderLatency::nibble(), ..costs() };
    let lat = || LineAddressTable::from_block_sizes(vec![18; 32]);
    // 3 cold blocks on one LAT line, each then re-fetched once (hits).
    let trace: Vec<u64> = vec![0, 32, 64, 0, 32, 64];

    let mut fast = MemorySystem::compressed(config, costs, lat(), 16);
    let report = fast.run(&trace);
    assert_eq!((report.cache.hits, report.cache.misses), (3, 3));
    assert_eq!((report.clb_hits, report.clb_misses), (2, 1));
    // Per refill: 20 latency + ceil(18/4)=5 transfer + 0 startup +
    // ceil(32·2.0)=64 decompress = 89; block 0 adds a 20-cycle LAT fetch.
    assert_eq!(report.refill_cycles, (20 + 89) + 2 * 89);
    assert_eq!(report.cycles, 6 + 287);

    let mut reference = MemorySystem::compressed(config, costs, lat(), 16);
    assert_eq!(reference.run_reference(&trace), report);
}

#[test]
fn fast_kernel_pins_under_a_startup_latency() {
    // The nibble engine's 2.0 cycles/byte behind a 5-cycle start-up: a
    // 32-byte block decompresses in 5 + ceil(32·2.0) = 69 cycles.
    let config = CacheConfig { size_bytes: 1024, block_size: 32, associativity: 2 };
    let decoder = DecoderLatency { startup_cycles: 5, cycles_per_byte: 2.0 };
    let costs = CostModel { decoder, ..costs() };
    let lat = || LineAddressTable::from_block_sizes(vec![18; 32]);
    let trace: Vec<u64> = vec![0, 32, 64, 0, 32, 64];

    let mut fast = MemorySystem::compressed(config, costs, lat(), 16);
    let report = fast.run(&trace);
    assert_eq!((report.cache.hits, report.cache.misses), (3, 3));
    assert_eq!((report.clb_hits, report.clb_misses), (2, 1));
    // Per refill: 20 latency + 5 transfer + 69 decompress = 94; block 0
    // adds the 20-cycle LAT fetch for its CLB miss.
    assert_eq!(report.refill_cycles, (20 + 94) + 2 * 94);
    assert_eq!(report.cycles, 6 + 302);

    let mut reference = MemorySystem::compressed(config, costs, lat(), 16);
    assert_eq!(reference.run_reference(&trace), report);
}

#[test]
fn clb_thrash_pays_the_lat_fetch_on_every_refill() {
    // Direct-mapped 2-set cache: blocks 0 and 16 conflict, so an
    // alternating trace misses on every fetch.  Blocks 0 and 16 also live
    // on different LAT lines (coverage 16), so a 1-entry CLB thrashes.
    let config = CacheConfig { size_bytes: 64, block_size: 32, associativity: 1 };
    let lat = || LineAddressTable::from_block_sizes(vec![20; 32]);
    let trace: Vec<u64> = (0..10).map(|i| if i % 2 == 0 { 0 } else { 16 * 32 }).collect();

    let mut thrashing = MemorySystem::compressed(config, costs(), lat(), 1);
    let report = thrashing.run(&trace);
    assert_eq!(report.cache.misses, 10);
    assert_eq!((report.clb_hits, report.clb_misses), (0, 10));
    // Every refill: 20 LAT fetch + 20 latency + ceil(20/4)=5 + 64 = 109.
    assert_eq!(report.refill_cycles, 10 * 109);
    assert_eq!(report.cycles, 10 + 1090);

    // A 2-entry CLB holds both lines: only the two cold installs miss.
    let mut roomy = MemorySystem::compressed(config, costs(), lat(), 2);
    let report = roomy.run(&trace);
    assert_eq!(report.cache.misses, 10);
    assert_eq!((report.clb_hits, report.clb_misses), (8, 2));
    assert_eq!(report.refill_cycles, 2 * 109 + 8 * 89);
    assert_eq!(report.cycles, 10 + 930);
}
