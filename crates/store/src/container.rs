//! The `HYPR1` container: a versioned, checksummed, sectioned file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            b"HYPR1\0"              6 bytes
//!        6   format version   u16                     (currently 1)
//!        8   section count    u32
//!       12   sections         repeated:
//!              tag            4 ASCII bytes
//!              payload length u64
//!              payload FNV    u64   (FNV-1a of the payload bytes)
//!              payload        <length> bytes
//!      end   file checksum    u64   (FNV-1a of every preceding byte)
//! ```
//!
//! The per-section checksum localizes damage ("section DB is corrupt");
//! the trailing file checksum catches truncation after a valid section
//! and bit flips in the framing itself. Readers validate *everything*
//! before handing out payloads: a flipped byte anywhere in the file
//! surfaces as [`StoreError::Corrupt`], an unknown version as
//! [`StoreError::VersionMismatch`], and no read ever panics.

use std::path::Path;

use crate::codec::{fnv1a, ByteReader, ByteWriter};
use crate::error::{Result, StoreError};

/// File magic: `HYPR1` + NUL.
pub const MAGIC: &[u8; 6] = b"HYPR1\0";

/// Format version written by this build (readers reject other versions).
pub const FORMAT_VERSION: u16 = 1;

/// A 4-byte ASCII section tag.
pub type SectionTag = [u8; 4];

/// Database payload ([`crate::encode_database`]).
pub const SECTION_DB: SectionTag = *b"DB\0\0";
/// Causal-graph payload ([`crate::encode_graph`]).
pub const SECTION_GRAPH: SectionTag = *b"GRPH";
/// Snapshot metadata (fingerprints + table inventory), readable without
/// decoding the data sections.
pub const SECTION_META: SectionTag = *b"META";
/// Artifact metadata (kind, cache key, shard fingerprints) of a disk-tier
/// artifact file.
pub const SECTION_ARTIFACT_META: SectionTag = *b"AMET";
/// Artifact payload of a disk-tier artifact file.
pub const SECTION_ARTIFACT_PAYLOAD: SectionTag = *b"APAY";

/// Writer assembling a container in memory.
#[derive(Debug, Default)]
pub struct ContainerWriter {
    sections: Vec<(SectionTag, Vec<u8>)>,
}

impl ContainerWriter {
    /// Empty container.
    pub fn new() -> ContainerWriter {
        ContainerWriter::default()
    }

    /// Append a section (order is preserved; duplicate tags are allowed
    /// but readers resolve the first occurrence).
    pub fn add_section(&mut self, tag: SectionTag, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Serialize the container.
    pub fn finish(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_raw(MAGIC);
        w.write_u16(FORMAT_VERSION);
        w.write_u32(self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            w.write_raw(tag);
            w.write_u64(payload.len() as u64);
            w.write_u64(fnv1a(payload));
            w.write_raw(payload);
        }
        let checksum = fnv1a(w.as_slice());
        w.write_u64(checksum);
        w.into_bytes()
    }

    /// Serialize and write atomically: the bytes land in a `.tmp` sibling
    /// first and are renamed into place, so readers never observe a
    /// half-written snapshot.
    pub fn write_to(self, path: &Path) -> Result<()> {
        let bytes = self.finish();
        write_atomic(path, &bytes)
    }
}

/// Write `bytes` to `path` durably and atomically: a uniquely-named
/// temporary sibling (pid + counter, so concurrent writers of one path
/// never clobber each other's half-written bytes) is written, fsynced,
/// and renamed into place, then the directory is fsynced best-effort so
/// the rename itself survives a crash. Readers therefore never observe a
/// half-written file, and a completed save stays completed.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write() {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// A parsed, fully-validated container over owned bytes.
#[derive(Debug)]
pub struct Container {
    bytes: Vec<u8>,
    /// `(tag, payload range)` in file order.
    sections: Vec<(SectionTag, std::ops::Range<usize>)>,
}

impl Container {
    /// Parse and validate `bytes`: magic, version, section framing, every
    /// section checksum, and the trailing file checksum.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Container> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::Corrupt(
                "missing HYPR1 magic (not a snapshot file)".into(),
            ));
        }
        // Trailing file checksum first: it covers the framing the section
        // loop is about to trust.
        if bytes.len() < MAGIC.len() + 2 + 4 + 8 {
            return Err(StoreError::Corrupt("truncated snapshot header".into()));
        }
        let body_end = bytes.len() - 8;
        let recorded = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        let actual = fnv1a(&bytes[..body_end]);
        if recorded != actual {
            // Localize the damage with the per-section checksums before
            // reporting (they are not re-verified on the happy path —
            // the whole-file checksum already covers every byte).
            let at = match localize_damage(&bytes[..body_end]) {
                Some(section) => format!(" — section {section} fails its checksum"),
                None => String::new(),
            };
            return Err(StoreError::Corrupt(format!(
                "file checksum mismatch (recorded {recorded:#018x}, computed {actual:#018x}){at}"
            )));
        }
        let mut r = ByteReader::new(&bytes[..body_end]);
        r.read_raw(MAGIC.len(), "magic")?;
        let version = r.read_u16("format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = r.read_u32("section count")? as usize;
        let mut sections = Vec::with_capacity(count.min(64));
        for i in 0..count {
            let what = format!("section {i} header");
            let tag: SectionTag = r
                .read_raw(4, &what)?
                .try_into()
                .expect("read_raw returned 4 bytes");
            let len = r.read_len(1, &what)?;
            // The whole-file checksum verified above already covers every
            // payload byte, so the per-section checksum is not re-scanned
            // here (snapshot loads sit on the warm-start critical path);
            // it exists to localize damage when the file checksum fails
            // and for tools reading sections out of a larger stream.
            let _section_checksum = r.read_u64(&what)?;
            let start = r.position();
            r.read_raw(len, &format!("section {} payload", tag_str(&tag)))?;
            sections.push((tag, start..start + len));
        }
        r.expect_end("the last section")?;
        Ok(Container { bytes, sections })
    }

    /// Read and parse a container file.
    pub fn read_from(path: &Path) -> Result<Container> {
        Container::from_bytes(std::fs::read(path)?)
    }

    /// Read and parse a container file into `buf`'s allocation (cleared
    /// first). Recover the buffer afterwards with
    /// [`Container::into_bytes`] so a chunk-at-a-time scan pays for one
    /// allocation, not one per chunk.
    pub fn read_into(path: &Path, mut buf: Vec<u8>) -> Result<Container> {
        use std::io::Read as _;
        buf.clear();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Container::from_bytes(buf)
    }

    /// The validated file bytes, returned to the caller (the inverse of
    /// [`Container::from_bytes`], for buffer reuse across reads).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Section inventory in file order: `(tag, payload length, payload
    /// checksum)`.
    pub fn sections(&self) -> impl Iterator<Item = (SectionTag, usize)> + '_ {
        self.sections.iter().map(|(t, r)| (*t, r.len()))
    }

    /// Payload of the first section with `tag`.
    pub fn section(&self, tag: SectionTag) -> Result<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, range)| &self.bytes[range.clone()])
            .ok_or_else(|| {
                StoreError::Corrupt(format!("snapshot has no {} section", tag_str(&tag)))
            })
    }

    /// Payload of the first section with `tag`, or `None`.
    pub fn section_opt(&self, tag: SectionTag) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, range)| &self.bytes[range.clone()])
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Best-effort damage localization for a container whose file checksum
/// failed: re-walk the section framing and verify each per-section
/// checksum, returning the first failing tag. `None` when the framing
/// itself is too damaged to walk (or every section checks out — i.e.
/// the corruption sits in the framing or the trailer).
fn localize_damage(body: &[u8]) -> Option<String> {
    let mut r = ByteReader::new(body);
    r.read_raw(MAGIC.len(), "magic").ok()?;
    r.read_u16("version").ok()?;
    let count = r.read_u32("count").ok()?;
    for _ in 0..count {
        let tag: SectionTag = r.read_raw(4, "tag").ok()?.try_into().ok()?;
        let len = r.read_len(1, "len").ok()?;
        let checksum = r.read_u64("checksum").ok()?;
        let payload = r.read_raw(len, "payload").ok()?;
        if fnv1a(payload) != checksum {
            return Some(tag_str(&tag));
        }
    }
    None
}

/// Render a tag for error messages (non-ASCII bytes become `·`).
pub fn tag_str(tag: &SectionTag) -> String {
    tag.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                b as char
            } else {
                '·'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.add_section(SECTION_META, vec![1, 2, 3]);
        w.add_section(SECTION_DB, vec![9; 100]);
        w.finish()
    }

    #[test]
    fn round_trips_sections() {
        let c = Container::from_bytes(sample()).unwrap();
        assert_eq!(c.section(SECTION_META).unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(SECTION_DB).unwrap().len(), 100);
        assert!(c.section(SECTION_GRAPH).is_err());
        assert!(c.section_opt(SECTION_GRAPH).is_none());
        assert_eq!(c.sections().count(), 2);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample();
        for n in 0..bytes.len() {
            let err = Container::from_bytes(bytes[..n].to_vec()).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "truncation at {n} gave {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            let err = Container::from_bytes(flipped).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Corrupt(_) | StoreError::VersionMismatch { .. }
                ),
                "flip at {i} gave {err}"
            );
        }
    }

    #[test]
    fn wrong_version_is_version_mismatch() {
        let mut bytes = sample();
        bytes[6] = 99;
        // Re-stamp the file checksum so only the version is wrong.
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
        assert!(matches!(
            Container::from_bytes(bytes).unwrap_err(),
            StoreError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            }
        ));
    }
}
