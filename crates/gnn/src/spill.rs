//! Matrix spill files for the serial trainer's
//! [`SerialResidency::Spill`](crate::trainer::SerialResidency) mode: one
//! file per spilled matrix in the shared [`plexus_graph::format`] — header,
//! shape, little-endian f32 payload — with the file's digest and length
//! kept on the in-memory handle, as the distributed engine's spill store
//! keeps them. This one exists so the serial baseline can exercise the same
//! keep/spill/reload contract without depending on that engine.

use plexus_graph::format::{verify_shard_bytes, Cursor, HashingWriter};
use plexus_tensor::{KernelWorkspace, Matrix};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One spilled matrix on disk. Created by [`SpillFile::write`]; consumed
/// (verified, loaded into a workspace buffer, deleted) by
/// [`SpillFile::read`].
pub struct SpillFile {
    path: PathBuf,
    rows: usize,
    cols: usize,
    digest: u64,
    len: u64,
}

impl SpillFile {
    /// Serialize `m` to `dir/tag.spill`.
    pub fn write(dir: &Path, tag: &str, m: &Matrix) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.spill", tag));
        let mut w = HashingWriter::create(&path)?;
        w.header()?;
        w.put_matrix(m)?;
        let (digest, len) = w.finish()?;
        Ok(Self { path, rows: m.rows(), cols: m.cols(), digest, len })
    }

    /// Verify, reload into a buffer drawn from `ws`, and delete the file.
    /// A bad length, digest, header or shape is an `InvalidData` error — a
    /// spill reload must never hand back silently corrupted activations.
    pub fn read(self, ws: &mut KernelWorkspace) -> io::Result<Matrix> {
        let bytes = fs::read(&self.path)?;
        let at = verify_shard_bytes(&bytes, &self.path, self.digest, self.len)?;
        let mut cur = Cursor { bytes: &bytes, pos: at, path: &self.path };
        if cur.matrix_shape()? != (self.rows, self.cols) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "spill file: shape mismatch"));
        }
        let mut m = ws.take_scratch(self.rows, self.cols);
        cur.f32s_into(m.as_mut_slice())?;
        fs::remove_file(&self.path)?;
        Ok(m)
    }

    /// Bytes of matrix payload this file holds.
    pub fn payload_bytes(&self) -> u64 {
        (self.rows * self.cols * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        std::env::temp_dir().join(format!(
            "plexus_gnn_spill_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn round_trip_is_bitwise() {
        let dir = tmp();
        let m = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.5 - 2.0).collect());
        let file = SpillFile::write(&dir, "rt", &m).unwrap();
        assert_eq!(file.payload_bytes(), 48);
        let mut ws = KernelWorkspace::new();
        let back = file.read(&mut ws).unwrap();
        assert_eq!(back.as_slice(), m.as_slice());
        assert!(!dir.join("rt.spill").exists(), "read must delete the file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmp();
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let file = SpillFile::write(&dir, "bad", &m).unwrap();
        // Flip one payload byte behind the header.
        let path = dir.join("bad.spill");
        let mut bytes = fs::read(&path).unwrap();
        bytes[32] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let mut ws = KernelWorkspace::new();
        let err = file.read(&mut ws).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }
}
