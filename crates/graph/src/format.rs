//! The one on-disk format discipline every Plexus file follows: a
//! `[MAGIC][FORMAT_VERSION]` header, a little-endian payload, and a
//! whole-file 64-bit [`Digest`] that the owner records next to the file's
//! length — in the directory's [`Manifest`], or in the in-memory handle
//! of a spill file. Shard stores, checkpoints, activation spills and
//! serving artifacts all write through [`HashingWriter`], index their
//! directories with one [`Manifest`] grammar, and read back through
//! `plexus::loader::open_verified` (which runs [`verify_shard_bytes`])
//! and [`Cursor`], so a corrupted, truncated, version-mismatched or
//! hostile file is a typed [`LoaderError`] — never a panic, a wrapped
//! length, or garbage data.
//!
//! The digest is an **integrity check, not a cryptographic one**: it is
//! built to run at memory speed and to catch what disks, page caches and
//! interrupted writers do to files, not to resist someone constructing a
//! collision on purpose.

use plexus_tensor::Matrix;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of every Plexus format file ("PLXSSHAR").
pub const MAGIC: u64 = 0x504c5853_53484152;
/// Current on-disk format. Version 2 added the per-file version header,
/// manifest checksums and label files; version 3 keeps every file layout
/// and replaces the byte-serial manifest checksum with [`Digest`], so files
/// of the two versions differ in this word and in their recorded digests
/// only. Which files a directory lists is its writer's business: a v3
/// shard store now holds one adjacency operand and one node-order label
/// file, and one written with per-parity files is refused by the trainer's
/// preflight, not by this word.
pub const FORMAT_VERSION: u64 = 3;

/// Typed failure of reading or writing a format file.
#[derive(Debug)]
pub enum LoaderError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the Plexus magic.
    BadMagic { file: PathBuf },
    /// The file (or manifest) was written by a different format version.
    VersionMismatch { file: PathBuf, found: u64, expected: u64 },
    /// The file's bytes do not hash to the digest recorded for it.
    ChecksumMismatch { file: PathBuf, stored: u64, computed: u64 },
    /// The file ended before its declared payload, or a length field
    /// promises more than the file (or the address space) can hold.
    Truncated { file: PathBuf },
    /// The manifest is missing, unparsable, or does not list the file.
    BadManifest { reason: String },
    /// The store does not contain the requested component (e.g. labels in
    /// a raw store, or `labels.plx` in a store written with per-parity
    /// label files).
    Missing { what: &'static str },
}

impl fmt::Display for LoaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoaderError::Io(e) => write!(f, "shard store I/O error: {}", e),
            LoaderError::BadMagic { file } => {
                write!(f, "{}: not a Plexus shard file", file.display())
            }
            LoaderError::VersionMismatch { file, found, expected } => {
                write!(
                    f,
                    "{}: format version {} (this build reads {})",
                    file.display(),
                    found,
                    expected
                )
            }
            LoaderError::ChecksumMismatch { file, stored, computed } => write!(
                f,
                "{}: checksum {:016x} does not match manifest {:016x} (corrupted file)",
                file.display(),
                computed,
                stored
            ),
            LoaderError::Truncated { file } => {
                write!(f, "{}: file shorter than its declared payload", file.display())
            }
            LoaderError::BadManifest { reason } => write!(f, "bad shard manifest: {}", reason),
            LoaderError::Missing { what } => write!(f, "store does not contain {}", what),
        }
    }
}

impl std::error::Error for LoaderError {}

impl From<io::Error> for LoaderError {
    fn from(e: io::Error) -> Self {
        LoaderError::Io(e)
    }
}

/// For callers that speak `io::Result`: a filesystem failure passes
/// through, every integrity failure is `InvalidData`.
impl From<LoaderError> for io::Error {
    fn from(e: LoaderError) -> Self {
        match e {
            LoaderError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

pub type LoaderResult<T> = Result<T, LoaderError>;

// ---------------------------------------------------------------------------
// The digest.

const LANES: usize = 4;
const BLOCK: usize = 8 * LANES;
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const SEEDS: [u64; LANES] =
    [0x6a09_e667_f3bc_c908, 0xbb67_ae85_84ca_a73b, 0x3c6e_f372_fe94_f82b, 0xa54f_f53a_5f1d_36f1];

/// Streaming 64-bit digest of a byte string, four independent lanes wide.
///
/// Input is consumed in 32-byte blocks, one little-endian 8-byte word per
/// lane. A lane absorbs its word with multiply, add, rotate, multiply (odd
/// constants): a bijection of the lane state for any word and of the word
/// for any lane state. The lanes do not depend on each other, so a block's
/// multiplies overlap and the fold runs at memory speed, not at one
/// multiply latency per byte. The word is multiplied *before* it meets the
/// lane so that a flipped bit never sits there as a lone bit which a second
/// flip, one block later, could cancel (a one-multiply xor step collided on
/// 5 % of all two-bit flips of a 256-byte buffer; this step on none).
/// [`finish`](Self::finish) zero-pads a trailing partial block, folds the
/// lanes and the total length through steps each invertible in the value
/// they absorb, and avalanches.
///
/// The result depends on the byte string alone, not on how it was split
/// across [`put`](Self::put) calls. A change confined to one aligned 8-byte
/// word — every single-bit and single-byte flip — changes one lane and so,
/// with certainty, the digest; so does a change of length that leaves the
/// lanes alone. Any other difference (truncation, extension, a torn or
/// misplaced page) goes undetected with probability about 2⁻⁶⁴. Not
/// cryptographic: collisions can be constructed.
#[derive(Clone, Debug)]
pub struct Digest {
    lanes: [u64; LANES],
    /// Bytes of a block not yet complete.
    tail: [u8; BLOCK],
    tail_len: usize,
    len: u64,
}

#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], block: &[u8; BLOCK]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let word = u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8-byte lane"));
        *lane = lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1);
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest { lanes: SEEDS, tail: [0; BLOCK], tail_len: 0, len: 0 }
    }

    /// Absorb `bytes`.
    pub fn put(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let n = (BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&bytes[..n]);
            self.tail_len += n;
            bytes = &bytes[n..];
            if self.tail_len < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        // The hot loop keeps the lanes in locals so they stay in registers.
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            absorb(&mut lanes, block.try_into().expect("chunks_exact yields whole blocks"));
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.tail_len > 0 {
            let mut block = [0u8; BLOCK];
            block[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            absorb(&mut lanes, &block);
        }
        let mut h = self.len.wrapping_mul(P3);
        for lane in lanes {
            h = (h.rotate_left(27) ^ lane).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One-shot [`Digest`] of a byte slice — the value manifests record.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.put(bytes);
    d.finish()
}

// ---------------------------------------------------------------------------
// Writing.

/// Bytes staged before they are hashed and handed to the sink: small
/// enough to still be in cache when the digest reads them back, large
/// enough that the digest only ever sees whole blocks and the sink few
/// calls.
const STAGE: usize = 64 * 1024;

/// Writer that digests every byte on its way to the sink and encodes whole
/// slices at a time. Values are encoded little-endian into one staging
/// buffer — the only copy made — which is hashed while still in cache and
/// written out whenever it fills. The buffer grows in powers of two as
/// bytes arrive, up to `STAGE`, so a few-line manifest costs a few hundred
/// bytes of stage, not 64 KiB. Pass [`io::sink`] to fingerprint values
/// without writing them anywhere.
pub struct HashingWriter<W: Write = File> {
    inner: W,
    /// Allocated (and zeroed) stage; only `..filled` holds staged bytes.
    stage: Vec<u8>,
    filled: usize,
    digest: Digest,
}

impl HashingWriter<File> {
    /// Start a checksummed file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write> HashingWriter<W> {
    pub fn new(inner: W) -> Self {
        Self { inner, stage: Vec::new(), filled: 0, digest: Digest::new() }
    }

    /// The next `n` bytes of the stage (`n <= STAGE - filled`), growing it
    /// to the next power of two that holds them.
    fn reserve(&mut self, n: usize) -> &mut [u8] {
        let end = self.filled + n;
        if end > self.stage.len() {
            self.stage.resize(end.next_power_of_two().min(STAGE), 0);
        }
        &mut self.stage[self.filled..end]
    }

    fn flush_stage(&mut self) -> io::Result<()> {
        let staged = &self.stage[..self.filled];
        self.digest.put(staged);
        self.inner.write_all(staged)?;
        self.filled = 0;
        Ok(())
    }

    /// Write raw bytes.
    pub fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > STAGE - self.filled {
            self.flush_stage()?;
            if bytes.len() >= STAGE {
                self.digest.put(bytes);
                return self.inner.write_all(bytes);
            }
        }
        self.reserve(bytes.len()).copy_from_slice(bytes);
        self.filled += bytes.len();
        Ok(())
    }

    /// Write one little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// Emit the shared `[MAGIC][FORMAT_VERSION]` header.
    pub fn header(&mut self) -> io::Result<()> {
        self.put_u64(MAGIC)?;
        self.put_u64(FORMAT_VERSION)
    }

    /// Encode `vals` straight into the staging buffer, as many as fit at a
    /// time (a block copy on little-endian targets, like
    /// [`Cursor::words_into`]).
    fn put_words<T: Copy, const N: usize>(
        &mut self,
        mut vals: &[T],
        encode: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        while !vals.is_empty() {
            if STAGE - self.filled < N {
                self.flush_stage()?;
            }
            let (now, later) = vals.split_at(((STAGE - self.filled) / N).min(vals.len()));
            let dst = self.reserve(N * now.len());
            for (d, &v) in dst.chunks_exact_mut(N).zip(now) {
                d.copy_from_slice(&encode(v));
            }
            self.filled += N * now.len();
            vals = later;
        }
        Ok(())
    }

    /// Write a slice of `f32` (exact bits, little-endian).
    pub fn put_f32s(&mut self, vals: &[f32]) -> io::Result<()> {
        self.put_words(vals, f32::to_le_bytes)
    }

    /// Write a slice of `u32`.
    pub fn put_u32s(&mut self, vals: &[u32]) -> io::Result<()> {
        self.put_words(vals, u32::to_le_bytes)
    }

    /// Write a slice of offsets or counts as `u64`.
    pub fn put_u64s(&mut self, vals: &[usize]) -> io::Result<()> {
        self.put_words(vals, |v| (v as u64).to_le_bytes())
    }

    /// Write a matrix: `rows u64, cols u64, rows·cols × f32` row-major.
    pub fn put_matrix(&mut self, m: &Matrix) -> io::Result<()> {
        self.put_u64(m.rows() as u64)?;
        self.put_u64(m.cols() as u64)?;
        self.put_f32s(m.as_slice())
    }

    /// Flush and return `(digest, total bytes written)` — the manifest
    /// entry for the file.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.flush_stage()?;
        self.inner.flush()?;
        Ok((self.digest.finish(), self.digest.len))
    }
}

/// Text files (manifests, pointers) go through the same writer with
/// `writeln!`.
impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.put(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_stage()?;
        self.inner.flush()
    }
}

/// Atomically create or replace the file at `path`: `write` fills
/// `<path>.tmp`, which is then renamed over `path`, so a reader — or a
/// crash at any point — sees the previous complete file or the new one,
/// never a partial one. Returns the new file's `(digest, length)` manifest
/// entry. A `.tmp` left behind by an interrupted call is overwritten by
/// the next.
pub fn publish(
    path: &Path,
    write: impl FnOnce(&mut HashingWriter) -> LoaderResult<()>,
) -> LoaderResult<(u64, u64)> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut w = HashingWriter::create(&tmp)?;
    write(&mut w)?;
    let entry = w.finish()?;
    fs::rename(&tmp, path)?;
    Ok(entry)
}

// ---------------------------------------------------------------------------
// The manifest.

/// The text index of a Plexus directory: a shard store's or a checkpoint
/// epoch's `manifest.txt`, a serving artifact's `serve.txt`. One grammar,
/// one entry per line:
///
/// ```text
/// format = 3                            (first)
/// <key> = <value>                       (fields, in the order first set)
/// file <name> = <digest hex> <length>   (entries, sorted by name)
/// ```
///
/// Reading is strict. The first line is checked before the rest: a first
/// line that is not `format = N` is [`LoaderError::BadManifest`], and a
/// `format` other than [`FORMAT_VERSION`] is
/// [`LoaderError::VersionMismatch`] whatever the other lines say. After
/// it, a line without ` = `, a field key with a space in it, an
/// unparsable `file` entry, a missing or unparsable field, and a missing
/// file are `BadManifest`, named by path. Writing goes through [`publish`], so
/// a reader sees the previous manifest or the new one, never a torn one.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// The file this manifest was read from, named by its errors.
    path: PathBuf,
    /// `(key, value)` in file order; `format` is always first.
    fields: Vec<(String, String)>,
    /// File name -> `(digest, length)`.
    pub files: BTreeMap<String, (u64, u64)>,
}

impl Manifest {
    /// A current-format manifest listing `files`.
    pub fn new(files: BTreeMap<String, (u64, u64)>) -> Self {
        let fields = vec![("format".to_string(), FORMAT_VERSION.to_string())];
        Manifest { path: PathBuf::new(), fields, files }
    }

    /// Set field `key` to `value`, in place when it is already present.
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        let value = value.to_string();
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.fields.push((key.to_string(), value)),
        }
        self
    }

    /// Field `key`, parsed.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> LoaderResult<T> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| self.bad(format!("missing or unparsable field {}", key)))
    }

    /// The `(digest, length)` recorded for file `name`.
    pub fn entry(&self, name: &str) -> LoaderResult<(u64, u64)> {
        self.files.get(name).copied().ok_or_else(|| self.bad(format!("{} is not listed", name)))
    }

    /// A [`LoaderError::BadManifest`] naming this manifest.
    pub fn bad(&self, why: impl fmt::Display) -> LoaderError {
        LoaderError::BadManifest { reason: format!("{}: {}", self.path.display(), why) }
    }

    /// Read and check the manifest at `path`.
    pub fn read(path: &Path) -> LoaderResult<Manifest> {
        let mut m =
            Manifest { path: path.to_path_buf(), fields: Vec::new(), files: BTreeMap::new() };
        let text = fs::read_to_string(path).map_err(|e| m.bad(e))?;
        // The format line comes first and is checked before anything else,
        // so a directory written under another format is a version error
        // whatever grammar the rest of its lines follow.
        let mut lines = text.lines();
        let first = lines.next().unwrap_or_default();
        let found = first.strip_prefix("format = ").and_then(|v| v.parse::<u64>().ok());
        let found =
            found.ok_or_else(|| m.bad(format!("first line {:?} is not the format", first)))?;
        if found != FORMAT_VERSION {
            return Err(LoaderError::VersionMismatch {
                file: m.path,
                found,
                expected: FORMAT_VERSION,
            });
        }
        m.fields.push(("format".to_string(), found.to_string()));
        for line in lines {
            let unparsable = || m.bad(format!("unparsable line {:?}", line));
            let (key, value) = line.split_once(" = ").ok_or_else(unparsable)?;
            if let Some(name) = key.strip_prefix("file ") {
                let entry = value.split_once(' ').and_then(|(ck, len)| {
                    Some((u64::from_str_radix(ck, 16).ok()?, len.parse().ok()?))
                });
                let entry = entry.ok_or_else(unparsable)?;
                m.files.insert(name.to_string(), entry);
            } else if key.contains(' ') {
                return Err(unparsable());
            } else {
                m.fields.push((key.to_string(), value.to_string()));
            }
        }
        Ok(m)
    }

    /// Atomically create or replace the manifest at `path`. Returns it as
    /// a read would: naming `path` in its errors.
    pub fn publish(mut self, path: &Path) -> LoaderResult<Manifest> {
        publish(path, |f| {
            for (key, value) in &self.fields {
                writeln!(f, "{} = {}", key, value)?;
            }
            for (name, (ck, len)) in &self.files {
                writeln!(f, "file {} = {:016x} {}", name, ck, len)?;
            }
            Ok(())
        })?;
        self.path = path.to_path_buf();
        Ok(self)
    }
}

// ---------------------------------------------------------------------------
// Reading.

/// Bounds-checked little-endian reader over an in-memory payload. Every
/// length it acts on — including ones decoded from the payload itself — is
/// checked against the bytes actually present before anything is sliced or
/// allocated.
pub struct Cursor<'a> {
    pub bytes: &'a [u8],
    pub pos: usize,
    pub path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn truncated(&self) -> LoaderError {
        LoaderError::Truncated { file: self.path.to_path_buf() }
    }

    /// The next `n` bytes, or a typed `Truncated` error.
    pub fn take(&mut self, n: usize) -> LoaderResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| self.truncated())?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Decode a little-endian `u64`.
    pub fn u64(&mut self) -> LoaderResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Decode a `u64` count or offset; one that does not fit the address
    /// space cannot be backed by the payload, so it reads as `Truncated`.
    pub fn count(&mut self) -> LoaderResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| self.truncated())
    }

    /// Fill `out` from the next `N * out.len()` bytes: one bounds check for
    /// the slice, then a fixed-width copy per element, which the compiler
    /// lowers to a block copy on little-endian targets.
    fn words_into<T, const N: usize>(
        &mut self,
        out: &mut [T],
        decode: impl Fn([u8; N]) -> T,
    ) -> LoaderResult<()> {
        let bytes = out.len().checked_mul(N).ok_or_else(|| self.truncated())?;
        for (dst, b) in out.iter_mut().zip(self.take(bytes)?.chunks_exact(N)) {
            *dst = decode(b.try_into().expect("chunk width"));
        }
        Ok(())
    }

    /// Fill `out` with the next `out.len()` `f32`s (exact bits).
    pub fn f32s_into(&mut self, out: &mut [f32]) -> LoaderResult<()> {
        self.words_into(out, f32::from_le_bytes)
    }

    /// Fill `out` with the next `out.len()` `u32`s.
    pub fn u32s_into(&mut self, out: &mut [u32]) -> LoaderResult<()> {
        self.words_into(out, u32::from_le_bytes)
    }

    /// Decode a matrix header (`rows u64, cols u64`) and check that the
    /// `rows·cols` values it promises are present, so the caller can
    /// allocate for them; the cursor is left at the first value.
    pub fn matrix_shape(&mut self) -> LoaderResult<(usize, usize)> {
        let (rows, cols) = (self.count()?, self.count()?);
        let bytes = rows.checked_mul(cols).and_then(|n| n.checked_mul(4));
        match bytes {
            Some(b) if b <= self.bytes.len() - self.pos => Ok((rows, cols)),
            _ => Err(self.truncated()),
        }
    }

    /// Decode a whole matrix written by [`HashingWriter::put_matrix`].
    pub fn matrix(&mut self) -> LoaderResult<Matrix> {
        let (rows, cols) = self.matrix_shape()?;
        let mut data = vec![0.0; rows * cols];
        self.f32s_into(&mut data)?;
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

/// Verify a format file against the `(digest, length)` recorded for it and
/// check its `[MAGIC][FORMAT_VERSION]` header, returning the payload
/// offset. This is the one gate every mapped or copied file passes through
/// before a byte of it is decoded.
pub fn verify_shard_bytes(
    bytes: &[u8],
    path: &Path,
    stored_ck: u64,
    stored_len: u64,
) -> LoaderResult<usize> {
    if bytes.len() as u64 != stored_len {
        return Err(LoaderError::Truncated { file: path.to_path_buf() });
    }
    let computed = digest(bytes);
    if computed != stored_ck {
        return Err(LoaderError::ChecksumMismatch {
            file: path.to_path_buf(),
            stored: stored_ck,
            computed,
        });
    }
    let mut cur = Cursor { bytes, pos: 0, path };
    if cur.u64()? != MAGIC {
        return Err(LoaderError::BadMagic { file: path.to_path_buf() });
    }
    let version = cur.u64()?;
    if version != FORMAT_VERSION {
        return Err(LoaderError::VersionMismatch {
            file: path.to_path_buf(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    Ok(cur.pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n as u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect()
    }

    #[test]
    fn zero_buffers_of_every_short_length_are_distinct() {
        let zeros = [0u8; 64];
        let mut seen: Vec<u64> = (0..=64).map(|n| digest(&zeros[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 65);
    }

    #[test]
    fn no_two_bit_flips_cancel() {
        // Two blocks, so every pair of bits that shares a lane across them
        // is tried: the case a weaker lane step lets cancel.
        let base = sample(64);
        let mut seen = vec![digest(&base)];
        for i in 0..512 {
            for j in i + 1..512 {
                let mut b = base.clone();
                b[i / 8] ^= 1 << (i % 8);
                b[j / 8] ^= 1 << (j % 8);
                seen.push(digest(&b));
            }
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "{} two-bit flips collided", n - seen.len());
    }

    #[test]
    fn writer_digest_is_the_digest_of_the_bytes_written() {
        // Crosses the staging buffer several times, with every codec.
        let f: Vec<f32> = (0..40_000).map(|i| i as f32 * 0.37 - 11.0).collect();
        let u: Vec<u32> = (0..9_001).map(|i| i * 7919).collect();
        let p: Vec<usize> = (0..5_003).map(|i| i * 3).collect();
        let raw = sample(STAGE + 17);
        let mut bytes = Vec::new();
        let mut w = HashingWriter::new(&mut bytes);
        w.header().unwrap();
        w.put_f32s(&f).unwrap();
        w.put(&raw[..5]).unwrap();
        w.put_u32s(&u).unwrap();
        w.put_u64s(&p).unwrap();
        w.put(&raw).unwrap();
        w.put_matrix(&Matrix::from_vec(2, 3, f[..6].to_vec())).unwrap();
        let (ck, len) = w.finish().unwrap();
        assert_eq!(len as usize, bytes.len());
        assert_eq!(ck, digest(&bytes));

        let path = Path::new("writer-test");
        let at = verify_shard_bytes(&bytes, path, ck, len).unwrap();
        let mut cur = Cursor { bytes: &bytes, pos: at, path };
        let mut f2 = vec![0.0; f.len()];
        cur.f32s_into(&mut f2).unwrap();
        assert_eq!(f2, f);
        assert_eq!(cur.take(5).unwrap(), &raw[..5]);
        let mut u2 = vec![0; u.len()];
        cur.u32s_into(&mut u2).unwrap();
        assert_eq!(u2, u);
        for &v in &p {
            assert_eq!(cur.count().unwrap(), v);
        }
        assert_eq!(cur.take(raw.len()).unwrap(), &raw[..]);
        assert_eq!(cur.matrix().unwrap().as_slice(), &f[..6]);
        assert_eq!(cur.pos, bytes.len());
    }

    #[test]
    fn writer_stage_grows_only_as_far_as_the_bytes_need() {
        use std::io::Write as _;
        let mut w = HashingWriter::new(io::sink());
        writeln!(w, "a manifest line, then another").unwrap();
        w.header().unwrap();
        assert_eq!(w.stage.len(), 64, "a few dozen bytes stage in 64");
        w.put_f32s(&[0.5; 40_000]).unwrap();
        assert_eq!(w.stage.len(), STAGE, "a large write grows the stage to its cap");
    }

    #[test]
    fn hostile_lengths_are_truncated_not_wraps_or_panics() {
        let path = Path::new("hostile");
        let is_truncated = |r: LoaderResult<()>| matches!(r, Err(LoaderError::Truncated { .. }));
        let bytes = [0u8; 24];
        // `pos + n` must not wrap.
        let mut cur = Cursor { bytes: &bytes, pos: 8, path };
        assert!(is_truncated(cur.take(usize::MAX).map(|_| ())));
        assert!(is_truncated(cur.take(usize::MAX - 7).map(|_| ())));
        assert_eq!(cur.pos, 8, "a refused take must not move the cursor");
        // `rows * cols` and `4 * n` must not wrap, and nothing is allocated
        // for a shape the payload cannot back.
        for (rows, cols) in
            [(u64::MAX, u64::MAX), (1 << 62, 4), (1 << 61, 2), (u64::MAX, 1), (3, 1)]
        {
            let mut file = Vec::new();
            file.extend_from_slice(&rows.to_le_bytes());
            file.extend_from_slice(&cols.to_le_bytes());
            file.extend_from_slice(&[0u8; 8]);
            let mut cur = Cursor { bytes: &file, pos: 0, path };
            assert!(is_truncated(cur.matrix().map(|_| ())), "{} x {}", rows, cols);
        }
    }

    fn manifest_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("plexus_manifest_{}_{}.txt", tag, std::process::id()))
    }

    #[test]
    fn manifest_round_trips_in_the_order_written() {
        let path = manifest_path("roundtrip");
        let files = BTreeMap::from([("b.plx".to_string(), (0xff, 12)), ("a.plx".into(), (1, 34))]);
        let m = Manifest::new(files.clone()).with("rows", 7).with("mode", "raw").with("rows", 9);
        m.publish(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "format = 3\nrows = 9\nmode = raw\n\
             file a.plx = 0000000000000001 34\nfile b.plx = 00000000000000ff 12\n"
        );
        let back = Manifest::read(&path).unwrap();
        assert_eq!(back.files, files);
        assert_eq!(back.get::<usize>("rows").unwrap(), 9);
        assert_eq!(back.get::<String>("mode").unwrap(), "raw");
        assert_eq!(back.entry("b.plx").unwrap(), (0xff, 12));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_manifests_are_typed_and_name_the_file() {
        let path = manifest_path("malformed");
        let read = |text: &str| {
            fs::write(&path, text).unwrap();
            Manifest::read(&path)
        };
        fn is_bad<T>(r: LoaderResult<T>) -> bool {
            matches!(r, Err(LoaderError::BadManifest { reason })
                if reason.contains("plexus_manifest_malformed"))
        }
        assert!(is_bad(read("format = 3\ngarbage\n")), "a line without ` = `");
        assert!(is_bad(read("format = 3\nfile a.plx = zz 12\n")), "an unparsable entry");
        assert!(is_bad(read("format = 3\nfile a.plx = 00ff\n")), "an entry without a length");
        assert!(is_bad(read("format = 3\nmodel 1 = 00ff 12\n")), "a key with a space");
        assert!(is_bad(read("rows = 7\n")), "a missing format line");
        assert!(is_bad(read("rows = 7\nformat = 3\n")), "a format line that is not first");
        assert!(is_bad(read("")), "an empty manifest");
        assert!(is_bad(read("format = three\n")), "an unparsable format");
        let m = read("format = 3\nrows = seven\n").unwrap();
        assert!(is_bad(m.get::<usize>("rows")), "an unparsable field");
        assert!(is_bad(m.get::<usize>("cols")), "a missing field");
        assert!(is_bad(m.entry("a.plx")), "an unlisted file");
        assert!(matches!(
            read("format = 2\nrows = 7\n"),
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. })
        ));
        // Another format's lines need not follow this grammar: the version
        // decides first.
        assert!(matches!(
            read("format = 2\nmodel 1 = 00ff 12\n"),
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. })
        ));
        fs::remove_file(&path).unwrap();
        assert!(is_bad(Manifest::read(&path)), "a missing file");
    }

    #[test]
    fn integrity_errors_become_invalid_data_for_io_callers() {
        let e: io::Error = LoaderError::Truncated { file: "f".into() }.into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let e: io::Error = LoaderError::Io(io::ErrorKind::NotFound.into()).into();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
    }
}
