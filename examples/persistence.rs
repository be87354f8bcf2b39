//! Build-system workflow: train once at link time, ship the artifact,
//! decompress blocks at "runtime" from the deserialized state.
//!
//! A real compressed-code build splits into two halves: the *toolchain*
//! side trains a codec and produces the ROM image, and the *device* side
//! (the decompression hardware / boot firmware) holds only the serialized
//! model and the compressed blocks.  This example ships both in one
//! indexed `.cce` container file and reads it back block by block.
//!
//! Run with: `cargo run --example persistence`

use cce_core::codec::{BlockSink, CompressedBlock};
use cce_core::container::{ContainerIdentity, ContainerV2Reader, ContainerWriter};
use cce_core::elf::{Class, Endianness};
use cce_core::isa::Isa;
use cce_core::samc::{SamcCodec, SamcConfig};
use cce_core::workload::spec95_suite;
use cce_core::Algorithm;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("cce-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // ---- toolchain side -------------------------------------------------
    let programs = spec95_suite(Isa::Mips, 0.5);
    let program = programs.iter().find(|p| p.name == "wave5").expect("in suite");
    let codec = SamcCodec::train(&program.text, SamcConfig::mips())?;
    let image = codec.compress(&program.text);

    let path = dir.join("wave5.cce");
    let identity = ContainerIdentity {
        algorithm: Algorithm::Samc,
        isa: Isa::Mips,
        class: Class::Elf32,
        endianness: Endianness::Big,
        entry: 0x40_0000,
    };
    let mut writer = ContainerWriter::new(
        BufWriter::new(File::create(&path)?),
        identity,
        image.block_size(),
        image.model_bytes(),
        &codec.to_bytes(),
    )?;
    for index in 0..image.block_count() {
        writer.accept(CompressedBlock {
            index,
            uncompressed_len: image.block_uncompressed_len(index),
            data: image.block(index).to_vec(),
        })?;
    }
    let summary = writer.finish()?;
    println!(
        "toolchain: trained on {} bytes, wrote a {}-byte container ({} blocks)",
        program.text.len(),
        summary.total_len,
        summary.blocks,
    );
    println!("           text ratio {:.3} (model tables included)", summary.ratio());

    // ---- device side ----------------------------------------------------
    // Nothing from the toolchain's memory survives: reload from disk.
    let mut reader = ContainerV2Reader::open(BufReader::new(File::open(&path)?))?;
    let device_codec = SamcCodec::from_bytes(reader.codec_bytes())?;

    // Serve a few "cache misses", each one a single indexed read.
    for block in [0usize, 17, reader.block_count() - 1] {
        let start = block * reader.block_size();
        let (bytes, len) = reader.read_block(block)?;
        let refilled = device_codec.decompress_block(&bytes, len)?;
        assert_eq!(&refilled[..], &program.text[start..start + len]);
        println!("device:    refilled block {block} ({len} bytes) ok");
    }

    // And the whole program decompresses identically.
    assert_eq!(reader.decode_text(&device_codec)?, program.text);
    println!("device:    full container verified against the original text");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
