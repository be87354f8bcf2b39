//! Algorithm registry: the one place that knows how to build every codec.
//!
//! [`Algorithm`] enumerates the five compressors of the paper's
//! evaluation; [`Algorithm::build`] turns one into a [`CodecBuilder`]
//! bound to an ISA and block size, and the builder produces a
//! [`CodecHandle`] — either a `Box<dyn BlockCodec>` (random-access) or a
//! `Box<dyn FileCodec>` (whole-file baseline).  The measurement harness,
//! the `cce` CLI container format, and the conformance suite all go
//! through this registry, so adding a codec means touching exactly one
//! match per capability.

use cce_codec::{BlockCodec, CodecError, FileCodec};
use cce_huffman::block::ByteBlockCodec;
use cce_isa::Isa;
use cce_lz::{Gzip, Lzw};
use cce_sadc::{MipsSadc, MipsSadcConfig, X86Sadc, X86SadcConfig};
use cce_samc::{SamcCodec, SamcConfig};
use std::fmt;

/// The compression algorithms compared in the paper's evaluation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// UNIX `compress` (LZW) — file-oriented baseline.
    UnixCompress,
    /// `gzip` (LZ77 + Huffman) — file-oriented baseline.
    Gzip,
    /// Byte-based Huffman with block restart (Kozuch & Wolfe).
    ByteHuffman,
    /// SAMC — semiadaptive Markov compression (this paper).
    Samc,
    /// SADC — semiadaptive dictionary compression (this paper).
    Sadc,
}

impl Algorithm {
    /// All algorithms, in the figures' legend order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::UnixCompress,
        Algorithm::Gzip,
        Algorithm::ByteHuffman,
        Algorithm::Samc,
        Algorithm::Sadc,
    ];

    /// Whether this algorithm supports cache-block random access (the
    /// property a compressed-code memory system requires).
    pub fn random_access(self) -> bool {
        !matches!(self, Algorithm::UnixCompress | Algorithm::Gzip)
    }

    /// Parses a CLI-style algorithm name (as printed by `Display`,
    /// case-insensitive).
    pub fn by_name(name: &str) -> Option<Algorithm> {
        match name.to_ascii_lowercase().as_str() {
            "compress" | "lzw" => Some(Algorithm::UnixCompress),
            "gzip" => Some(Algorithm::Gzip),
            "huffman" => Some(Algorithm::ByteHuffman),
            "samc" => Some(Algorithm::Samc),
            "sadc" => Some(Algorithm::Sadc),
            _ => None,
        }
    }

    /// Stable one-byte tag used by the `.cce` container format.
    pub fn tag(self) -> u8 {
        match self {
            Algorithm::UnixCompress => 0,
            Algorithm::Gzip => 1,
            Algorithm::ByteHuffman => 2,
            Algorithm::Samc => 3,
            Algorithm::Sadc => 4,
        }
    }

    /// Inverse of [`Algorithm::tag`].
    pub fn from_tag(tag: u8) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.tag() == tag)
    }

    /// Binds the algorithm to an ISA and block size, yielding a builder
    /// that can train or deserialize the concrete codec.
    pub fn build(self, isa: Isa, block_size: usize) -> CodecBuilder {
        CodecBuilder { algorithm: self, isa, block_size }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Algorithm::UnixCompress => "compress",
            Algorithm::Gzip => "gzip",
            Algorithm::ByteHuffman => "huffman",
            Algorithm::Samc => "SAMC",
            Algorithm::Sadc => "SADC",
        };
        write!(f, "{name}")
    }
}

/// An [`Algorithm`] bound to an ISA and block size — everything needed to
/// construct the concrete codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecBuilder {
    algorithm: Algorithm,
    isa: Isa,
    block_size: usize,
}

impl CodecBuilder {
    /// The algorithm this builder constructs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The bound instruction set.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The bound uncompressed block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Trains the codec on `text` (file codecs need no training and
    /// always succeed).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Train`] when the text cannot train the
    /// model (empty input, undecodable instructions, …).
    pub fn train(&self, text: &[u8]) -> Result<CodecHandle, CodecError> {
        Ok(match self.algorithm {
            Algorithm::UnixCompress => CodecHandle::File(Box::new(Lzw::new())),
            Algorithm::Gzip => CodecHandle::File(Box::new(Gzip::new())),
            Algorithm::ByteHuffman => {
                CodecHandle::Block(Box::new(ByteBlockCodec::train(text, self.block_size)?))
            }
            Algorithm::Samc => {
                let config = match self.isa {
                    Isa::Mips => SamcConfig::mips(),
                    Isa::X86 => SamcConfig::x86(),
                }
                .with_block_size(self.block_size);
                CodecHandle::Block(Box::new(SamcCodec::train(text, config)?))
            }
            Algorithm::Sadc => match self.isa {
                Isa::Mips => {
                    let config =
                        MipsSadcConfig { block_size: self.block_size, ..Default::default() };
                    CodecHandle::Block(Box::new(MipsSadc::train(text, config)?))
                }
                Isa::X86 => {
                    let config =
                        X86SadcConfig { block_size: self.block_size, ..Default::default() };
                    CodecHandle::Block(Box::new(X86Sadc::train(text, config)?))
                }
            },
        })
    }

    /// Deserializes a trained codec previously written with
    /// [`BlockCodec::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on malformed bytes and
    /// [`CodecError::Unsupported`] for the file-oriented baselines, which
    /// carry no trained model to restore.
    pub fn codec_from_bytes(&self, bytes: &[u8]) -> Result<CodecHandle, CodecError> {
        Ok(match self.algorithm {
            Algorithm::UnixCompress | Algorithm::Gzip => {
                return Err(CodecError::unsupported(
                    match self.algorithm {
                        Algorithm::UnixCompress => "compress",
                        _ => "gzip",
                    },
                    "file-oriented baselines have no serialized codec form",
                ))
            }
            Algorithm::ByteHuffman => {
                CodecHandle::Block(Box::new(ByteBlockCodec::from_bytes(bytes)?))
            }
            Algorithm::Samc => CodecHandle::Block(Box::new(SamcCodec::from_bytes(bytes)?)),
            Algorithm::Sadc => match self.isa {
                Isa::Mips => CodecHandle::Block(Box::new(MipsSadc::from_bytes(bytes)?)),
                Isa::X86 => CodecHandle::Block(Box::new(X86Sadc::from_bytes(bytes)?)),
            },
        })
    }
}

/// A constructed codec: block-random-access or whole-file.
pub enum CodecHandle {
    /// A random-access codec ([`BlockCodec`]).
    Block(Box<dyn BlockCodec>),
    /// A file-oriented baseline ([`FileCodec`]).
    File(Box<dyn FileCodec>),
}

impl CodecHandle {
    /// The codec's display name.
    pub fn name(&self) -> &'static str {
        match self {
            CodecHandle::Block(c) => c.name(),
            CodecHandle::File(c) => c.name(),
        }
    }

    /// The codec as a [`BlockCodec`], if it is one.
    pub fn as_block(&self) -> Option<&dyn BlockCodec> {
        match self {
            CodecHandle::Block(c) => Some(c.as_ref()),
            CodecHandle::File(_) => None,
        }
    }

    /// The codec as a [`FileCodec`], if it is one.
    pub fn as_file(&self) -> Option<&dyn FileCodec> {
        match self {
            CodecHandle::Block(_) => None,
            CodecHandle::File(c) => Some(c.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for algorithm in Algorithm::ALL {
            assert_eq!(Algorithm::from_tag(algorithm.tag()), Some(algorithm));
        }
        assert_eq!(Algorithm::from_tag(0xFF), None);
    }

    #[test]
    fn names_round_trip_through_display() {
        for algorithm in Algorithm::ALL {
            assert_eq!(Algorithm::by_name(&algorithm.to_string()), Some(algorithm));
        }
        assert_eq!(Algorithm::by_name("lzw"), Some(Algorithm::UnixCompress));
        assert_eq!(Algorithm::by_name("made-up"), None);
    }

    #[test]
    fn handles_match_random_access() {
        let profile = cce_workload::Spec95::by_name("ijpeg").unwrap();
        let text = cce_isa::mips::encode_text(&cce_workload::generate_mips(profile, 0.02));
        for algorithm in Algorithm::ALL {
            let handle = algorithm.build(Isa::Mips, 32).train(&text).unwrap();
            assert_eq!(handle.as_block().is_some(), algorithm.random_access(), "{algorithm}");
            assert_eq!(handle.as_file().is_some(), !algorithm.random_access(), "{algorithm}");
        }
    }

    #[test]
    fn file_codecs_have_no_serialized_form() {
        let builder = Algorithm::Gzip.build(Isa::Mips, 32);
        assert!(matches!(
            builder.codec_from_bytes(&[]),
            Err(CodecError::Unsupported { codec: "gzip", .. })
        ));
    }
}
