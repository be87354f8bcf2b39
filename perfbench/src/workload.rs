//! The benchmark's workloads and the seeded inputs each one generates.
//!
//! The program under test sees only what [`generate`] builds from the
//! seed: ELF files and instruction-fetch traces.  The same seed always
//! gives byte-identical inputs.

use cce_core::isa::mips::encode_text;
use cce_core::isa::Isa;
use cce_core::workload::trace::{instruction_trace, TraceConfig};
use cce_core::workload::{generate_mips_seeded, generate_x86_seeded, Program, Spec95};
use cce_core::Algorithm;

/// Uncompressed block size of every workload: the paper's cache line.
pub const BLOCK_SIZE: usize = 32;

/// One generated program of a workload.
pub struct ProgramSpec {
    /// SPEC95 profile the generator imitates.
    pub profile: &'static str,
    /// Instruction set of the generated text.
    pub isa: Isa,
    /// Multiple of the profile's default text size.
    pub scale: f64,
}

/// A named workload: which programs to generate, which codec to run
/// them through, and how many block requests to serve.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// The codec the chain trains, compresses, serves and simulates.
    pub algorithm: Algorithm,
    /// Programs run through the chain, one after the other.
    pub programs: &'static [ProgramSpec],
    /// Block requests the closed-loop clients issue per pass, split
    /// evenly over the programs.
    pub requests: usize,
}

// `go` is 64 KiB at scale 1 and `gcc` 224 KiB.
const GO_4MIB: ProgramSpec = ProgramSpec { profile: "go", isa: Isa::Mips, scale: 64.0 };
const GO_256KIB: ProgramSpec = ProgramSpec { profile: "go", isa: Isa::Mips, scale: 4.0 };
const GCC_X86_224KIB: ProgramSpec = ProgramSpec { profile: "gcc", isa: Isa::X86, scale: 1.0 };
const GO_1MIB: ProgramSpec = ProgramSpec { profile: "go", isa: Isa::Mips, scale: 16.0 };

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stream-huffman",
        why: "4 MiB of MIPS code, Huffman-coded: training is a byte histogram, so the run is \
              spent in pipeline hand-off, the Huffman kernel, bit I/O and the container",
        algorithm: Algorithm::ByteHuffman,
        programs: &[GO_4MIB],
        requests: 20_000,
    },
    Workload {
        name: "sadc-train",
        why: "SADC on 256 KiB of MIPS and 224 KiB of x86 code: dictionary training dominates, and \
              the x86 instruction-aligned chunker runs",
        algorithm: Algorithm::Sadc,
        programs: &[GO_256KIB, GCC_X86_224KIB],
        requests: 40_000,
    },
    Workload {
        name: "serve-samc",
        why: "1 MiB of MIPS code, SAMC-coded and served: closed-loop clients replay a looping \
              fetch trace, so the run is spent in block decode, serving and the simulator",
        algorithm: Algorithm::Samc,
        programs: &[GO_1MIB],
        requests: 50_000,
    },
];

/// Looks a workload up by its `--workload` name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Instruction fetches in each program's trace.  The memory-system
/// simulation runs all of them; the fetch clients request the blocks of
/// the trace's first fetches.
const TRACE_FETCHES: usize = 2_000_000;

/// One generated program with everything the chain feeds the system.
pub struct Input {
    /// Instruction set of `text`.
    pub isa: Isa,
    /// The generated `.text` bytes: the reference every output is
    /// compared against.
    pub text: Vec<u8>,
    /// A minimal ELF executable holding `text`.
    pub elf: Vec<u8>,
    /// Word-aligned instruction-fetch addresses over `text`.
    pub trace: Vec<u64>,
    /// Block requests the fetch clients issue on this program.
    pub requests: usize,
}

/// Generates `spec`'s program from `seed`, scaled by `scale`, and its
/// fetch trace; the clients will issue `requests` block requests.
pub fn generate(spec: &ProgramSpec, scale: f64, seed: u64, requests: usize) -> Input {
    let profile = Spec95::by_name(spec.profile).expect("workload profiles are in the suite");
    let text = match spec.isa {
        Isa::Mips => encode_text(&generate_mips_seeded(profile, spec.scale * scale, seed)),
        Isa::X86 => generate_x86_seeded(profile, spec.scale * scale, seed),
    };
    let elf = Program { name: profile.name, isa: spec.isa, text: text.clone() }.to_elf().to_bytes();
    let fetches = ((TRACE_FETCHES as f64 * scale) as usize).max(requests);
    let trace =
        instruction_trace(text.len(), &TraceConfig { fetches, seed, ..TraceConfig::default() });
    Input { isa: spec.isa, text, elf, trace, requests }
}

/// The block requests a trace makes: each fetch mapped to the block
/// holding its address (`offsets` are the block start offsets plus the
/// text end), consecutive fetches of one block collapsed, cut to
/// `limit` requests.
pub fn block_requests(trace: &[u64], offsets: &[usize], limit: usize) -> Vec<u64> {
    let mut blocks: Vec<u64> = Vec::with_capacity(limit);
    for &addr in trace {
        let block = (offsets.partition_point(|&start| start as u64 <= addr) - 1) as u64;
        if blocks.last() != Some(&block) {
            if blocks.len() == limit {
                break;
            }
            blocks.push(block);
        }
    }
    blocks
}

/// The probe corpus for codecs a workload's chain does not run: 64 KiB
/// of MIPS `go` and 64 KiB of x86 `gcc`, from the workload's seed.
pub fn probe_corpus(scale: f64, seed: u64) -> Vec<Input> {
    const GO_64KIB: ProgramSpec = ProgramSpec { profile: "go", isa: Isa::Mips, scale: 1.0 };
    const GCC_X86_64KIB: ProgramSpec =
        ProgramSpec { profile: "gcc", isa: Isa::X86, scale: 64.0 / 224.0 };
    [GO_64KIB, GCC_X86_64KIB].iter().map(|spec| generate(spec, scale, seed, 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for workload in &WORKLOADS {
            for spec in workload.programs {
                let a = generate(spec, 0.05, 11, 500);
                let b = generate(spec, 0.05, 11, 500);
                assert!(
                    a.text == b.text && a.elf == b.elf && a.trace == b.trace,
                    "{}",
                    workload.name
                );
                let c = generate(spec, 0.05, 12, 500);
                assert!(a.text != c.text && a.trace != c.trace, "{}: seed ignored", workload.name);
            }
        }
    }

    #[test]
    fn requests_map_fetches_to_blocks_and_collapse_repeats() {
        let input = generate(&GO_256KIB, 0.25, 3, 2_000);
        let offsets: Vec<usize> = (0..input.text.len().div_ceil(BLOCK_SIZE))
            .map(|b| b * BLOCK_SIZE)
            .chain([input.text.len()])
            .collect();
        let requests = block_requests(&input.trace, &offsets, 2_000);
        assert_eq!(requests.len(), 2_000);
        assert!(requests.windows(2).all(|w| w[0] != w[1]));
        let mut by_division: Vec<u64> = input.trace.iter().map(|a| a / BLOCK_SIZE as u64).collect();
        by_division.dedup();
        assert_eq!(requests, by_division[..2_000]);
        // Variable-length blocks: each address maps to the block that holds it.
        assert_eq!(block_requests(&[0, 4, 40, 44, 8], &[0, 36, 70], 10), [0, 1, 0]);
    }
}
