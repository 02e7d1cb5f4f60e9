//! The on-disk container: `NKTC` magic, format version, a section table
//! (name, payload length, CRC-32), then the concatenated payloads.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = "NKTC"
//! 4       4     format version (u32, currently 1)
//! 8       4     section count (u32)
//! 12      ...   section table, one entry per section:
//!                 name_len : u16
//!                 name     : name_len bytes (UTF-8)
//!                 len      : u64   payload length
//!                 crc      : u32   CRC-32 (IEEE) of the payload
//! ...     ...   payloads, concatenated in table order
//! ```
//!
//! Writes are atomic: the file is assembled in memory, written to a
//! `.tmp` sibling, synced, and renamed into place — a crash mid-write
//! leaves either the old file or nothing, never a torn one. Reads
//! validate every CRC eagerly at [`CkptFile::open`], so a file that
//! opens cleanly is byte-for-byte the one that was written.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::codec::Dec;
use crate::error::CkptError;

/// Container magic bytes.
pub const MAGIC: [u8; 4] = *b"NKTC";
/// Format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// polynomial zlib and gzip use, computed with a lazily built 256-entry
/// table.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// In-memory checkpoint being assembled: named sections in insertion
/// order, serialized and written atomically by [`CkptWriter::write_to`].
#[derive(Debug, Default)]
pub struct CkptWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl CkptWriter {
    /// Fresh writer with no sections.
    pub fn new() -> CkptWriter {
        CkptWriter::default()
    }

    /// Adds a section. Section names must be unique within a file.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate checkpoint section '{name}'"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Section names and payloads added so far (insertion order).
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections.iter().map(|(n, p)| (n.as_str(), p.as_slice()))
    }

    /// Serializes the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            let nb = name.as_bytes();
            assert!(nb.len() <= u16::MAX as usize, "section name too long");
            out.extend_from_slice(&(nb.len() as u16).to_le_bytes());
            out.extend_from_slice(nb);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Total payload bytes (excludes header overhead) — the figure the
    /// `ckpt.write.bytes` counter reports.
    pub fn payload_bytes(&self) -> u64 {
        self.sections.iter().map(|(_, p)| p.len() as u64).sum()
    }

    /// Writes atomically: serialize, write to `<path>.tmp`, fsync,
    /// rename over `path`. Returns the serialized size in bytes.
    pub fn write_to(&self, path: &Path) -> Result<u64, CkptError> {
        let bytes = self.to_bytes();
        let tmp = tmp_sibling(path);
        let mut f = fs::File::create(&tmp).map_err(|e| CkptError::io("create temp", &tmp, e))?;
        f.write_all(&bytes).map_err(|e| CkptError::io("write temp", &tmp, e))?;
        f.sync_all().map_err(|e| CkptError::io("sync temp", &tmp, e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| CkptError::io("rename into place", path, e))?;
        Ok(bytes.len() as u64)
    }
}

/// `<path>.tmp` in the same directory, so the final rename stays on one
/// filesystem (the precondition for its atomicity).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// One parsed section (its CRC checked at load): name and payload slice
/// bounds.
#[derive(Debug)]
struct SectionEntry {
    name: String,
    /// Absolute file offset of the payload.
    offset: u64,
    len: u64,
}

/// A checkpoint file loaded and fully validated: magic, version, header
/// bounds, and every section CRC are checked by [`CkptFile::open`]
/// before any section is handed out.
#[derive(Debug)]
pub struct CkptFile {
    path: PathBuf,
    bytes: Vec<u8>,
    entries: Vec<SectionEntry>,
}

impl CkptFile {
    /// Reads and validates `path`. Any malformation returns a typed
    /// [`CkptError`]; this function (and every section accessor) is
    /// panic-free on arbitrary input bytes.
    pub fn open(path: &Path) -> Result<CkptFile, CkptError> {
        let bytes = fs::read(path).map_err(|e| CkptError::io("read", path, e))?;
        Self::parse(path, bytes)
    }

    /// Parses `bytes` as a container (used by `open` and by tests that
    /// corrupt buffers in memory).
    pub fn parse(path: &Path, bytes: Vec<u8>) -> Result<CkptFile, CkptError> {
        let header_take = |off: usize, n: usize| -> Result<&[u8], CkptError> {
            if bytes.len() < off + n {
                return Err(CkptError::Truncated {
                    section: "header".to_string(),
                    offset: off as u64,
                    needed: n as u64,
                    have: (bytes.len().saturating_sub(off)) as u64,
                });
            }
            Ok(&bytes[off..off + n])
        };

        let magic = header_take(0, 4)?;
        if magic != MAGIC {
            return Err(CkptError::BadMagic { found: magic.try_into().expect("4 bytes") });
        }
        let version = u32::from_le_bytes(header_take(4, 4)?.try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(CkptError::BadVersion { found: version, expected: FORMAT_VERSION });
        }
        let count = u32::from_le_bytes(header_take(8, 4)?.try_into().expect("4 bytes")) as usize;
        // A table entry is at least 14 bytes; reject counts the file
        // cannot possibly hold before reserving anything.
        if count > bytes.len() / 14 {
            return Err(CkptError::Decode {
                section: "header".to_string(),
                offset: 8,
                what: format!("plausible section count, found {count}"),
            });
        }

        let mut off = 12usize;
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = u16::from_le_bytes(header_take(off, 2)?.try_into().expect("2 bytes")) as usize;
            off += 2;
            let name_bytes = header_take(off, name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| CkptError::Decode {
                    section: "header".to_string(),
                    offset: off as u64,
                    what: "UTF-8 section name".to_string(),
                })?
                .to_string();
            off += name_len;
            let len = u64::from_le_bytes(header_take(off, 8)?.try_into().expect("8 bytes"));
            off += 8;
            let crc = u32::from_le_bytes(header_take(off, 4)?.try_into().expect("4 bytes"));
            off += 4;
            table.push((name, len, crc));
        }

        let mut payload_off = off as u64;
        let mut entries = Vec::with_capacity(count);
        for (name, len, crc) in table {
            let end = payload_off.checked_add(len).ok_or_else(|| CkptError::Decode {
                section: name.clone(),
                offset: payload_off,
                what: "non-overflowing payload extent".to_string(),
            })?;
            if end > bytes.len() as u64 {
                return Err(CkptError::Truncated {
                    section: name,
                    offset: payload_off,
                    needed: len,
                    have: bytes.len() as u64 - payload_off.min(bytes.len() as u64),
                });
            }
            let payload = &bytes[payload_off as usize..end as usize];
            let found = crc32(payload);
            if found != crc {
                return Err(CkptError::Crc { section: name, offset: payload_off, expected: crc, found });
            }
            entries.push(SectionEntry { name, offset: payload_off, len });
            payload_off = end;
        }

        Ok(CkptFile { path: path.to_path_buf(), bytes, entries })
    }

    /// Path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Raw payload bytes of `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        let e = self.entries.iter().find(|e| e.name == name)?;
        Some(&self.bytes[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// A [`Dec`] positioned at the start of section `name`, with its
    /// absolute file offset wired in for error reporting.
    pub fn dec<'a>(&'a self, name: &'a str) -> Result<Dec<'a>, CkptError> {
        let e = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| CkptError::MissingSection { name: name.to_string() })?;
        Ok(Dec::new(name, e.offset, &self.bytes[e.offset as usize..(e.offset + e.len) as usize]))
    }

    /// Total payload bytes across all sections.
    pub fn payload_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Enc;

    fn sample() -> CkptWriter {
        let mut w = CkptWriter::new();
        let mut a = Enc::new();
        a.u64(7);
        a.f64s(&[1.0, 2.0, 3.0]);
        w.section("meta", a.into_bytes());
        let mut b = Enc::new();
        b.f64s(&[0.5; 16]);
        w.section("fields", b.into_bytes());
        w
    }

    #[test]
    fn roundtrip_in_memory() {
        let w = sample();
        let f = CkptFile::parse(Path::new("mem"), w.to_bytes()).unwrap();
        assert_eq!(f.section_names().collect::<Vec<_>>(), vec!["meta", "fields"]);
        let mut d = f.dec("meta").unwrap();
        assert_eq!(d.u64().unwrap(), 7);
        assert_eq!(d.f64s().unwrap(), vec![1.0, 2.0, 3.0]);
        d.finish().unwrap();
        assert!(f.section("nope").is_none());
        assert!(matches!(f.dec("nope"), Err(CkptError::MissingSection { .. })));
    }

    #[test]
    fn atomic_write_then_open() {
        let dir = nkt_testkit::scratch_dir("ckpt_fmt");
        let path = dir.join("a.bin");
        let w = sample();
        let n = w.write_to(&path).unwrap();
        assert_eq!(n, fs::metadata(&path).unwrap().len());
        let f = CkptFile::open(&path).unwrap();
        assert_eq!(f.payload_bytes(), w.payload_bytes());
        // No .tmp left behind.
        assert!(!dir.join("a.bin.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CkptFile::parse(Path::new("m"), bytes.clone()),
            Err(CkptError::BadMagic { .. })
        ));
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            CkptFile::parse(Path::new("m"), bytes),
            Err(CkptError::BadVersion { found: 99, .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        // Flip each byte of the container in turn: parse must either
        // fail with a typed error or (never) silently accept changed
        // payload bytes. No panic anywhere.
        let good = sample().to_bytes();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            match CkptFile::parse(Path::new("m"), bad) {
                Ok(f) => {
                    // Only a header-name flip can parse cleanly (it
                    // renames a section); payload bytes are CRC-covered.
                    let names: Vec<_> = f.section_names().collect();
                    assert!(
                        names != vec!["meta", "fields"],
                        "byte {i}: flipped payload accepted silently"
                    );
                }
                Err(_) => {}
            }
        }
    }

    #[test]
    fn truncations_are_typed() {
        let good = sample().to_bytes();
        for cut in 0..good.len() {
            match CkptFile::parse(Path::new("m"), good[..cut].to_vec()) {
                // A cut right after the count field trips the
                // plausibility check (count > what the bytes can hold)
                // before the truncation check — also a typed rejection.
                Err(CkptError::Truncated { .. })
                | Err(CkptError::BadMagic { .. })
                | Err(CkptError::Decode { .. }) => {}
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
                Ok(_) => panic!("cut at {cut}: truncated file accepted"),
            }
        }
    }
}
