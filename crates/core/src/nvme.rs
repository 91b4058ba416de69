//! Secondary-storage (NVMe) tier (§III-G).
//!
//! The paper memory-maps a swap file on NVMe and issues asynchronous bulk
//! reads/writes so disk I/O overlaps with PCIe traffic and compute. The
//! simulator side of this lives in [`crate::offload`] (the `Nvme` cold
//! tier); this module provides the *functional* backing store — a real
//! temporary swap file of fixed-size slots with positional reads and
//! writes. The asynchronous side (spill workers, schedule-driven fills,
//! write-backs) lives in [`crate::tier::TierStore`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A swap file storing fixed-size per-layer parameter blobs.
pub struct NvmeStore {
    path: PathBuf,
    file: Mutex<File>,
    slot_floats: usize,
    slots: usize,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl NvmeStore {
    /// Creates a swap file in the system temp directory with `slots` blobs
    /// of `slot_floats` f32 each.
    pub fn create(slots: usize, slot_floats: usize) -> std::io::Result<Arc<Self>> {
        let path = std::env::temp_dir().join(format!(
            "stronghold-swap-{}-{}.bin",
            std::process::id(),
            NEXT_ID.fetch_add(1, Ordering::SeqCst)
        ));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        file.set_len((slots * slot_floats * 4) as u64)?;
        Ok(Arc::new(NvmeStore {
            path,
            file: Mutex::new(file),
            slot_floats,
            slots,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }))
    }

    /// Writes `data` at float offset `float_off` inside `slot`, recycling
    /// `scratch` as the byte staging buffer (no allocation once `scratch`
    /// has grown to `4 * data.len()`). f32 → little-endian bytes is exact,
    /// so round trips are bit-identical.
    ///
    /// # Panics
    /// Panics if the range `[float_off, float_off + data.len())` exceeds
    /// the slot.
    pub fn write_at(
        &self,
        slot: usize,
        float_off: usize,
        data: &[f32],
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert!(
            float_off + data.len() <= self.slot_floats,
            "range {}..{} out of slot of {} floats",
            float_off,
            float_off + data.len(),
            self.slot_floats
        );
        scratch.clear();
        scratch.reserve(data.len() * 4);
        for v in data {
            scratch.extend_from_slice(&v.to_le_bytes());
        }
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(
            ((slot * self.slot_floats + float_off) * 4) as u64,
        ))?;
        f.write_all(scratch)?;
        self.bytes_written
            .fetch_add(scratch.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads `out.len()` floats from float offset `float_off` inside `slot`
    /// into `out`, recycling `scratch` as the byte staging buffer.
    ///
    /// # Panics
    /// Panics if the range `[float_off, float_off + out.len())` exceeds
    /// the slot.
    pub fn read_at(
        &self,
        slot: usize,
        float_off: usize,
        out: &mut [f32],
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert!(
            float_off + out.len() <= self.slot_floats,
            "range {}..{} out of slot of {} floats",
            float_off,
            float_off + out.len(),
            self.slot_floats
        );
        scratch.clear();
        scratch.resize(out.len() * 4, 0);
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(
                ((slot * self.slot_floats + float_off) * 4) as u64,
            ))?;
            f.read_exact(scratch)?;
        }
        self.bytes_read
            .fetch_add(scratch.len() as u64, Ordering::Relaxed);
        for (dst, c) in out.iter_mut().zip(scratch.chunks_exact(4)) {
            *dst = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        Ok(())
    }

    /// The swap file's path (for lifecycle tests — the file is removed when
    /// the store drops).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Floats per slot.
    pub fn slot_floats(&self) -> usize {
        self.slot_floats
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

impl Drop for NvmeStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of slot")]
    fn wrong_blob_size_panics() {
        let store = NvmeStore::create(1, 4).unwrap();
        let _ = store.write_at(0, 0, &[1.0; 5], &mut Vec::new());
    }

    #[test]
    fn swap_file_removed_on_drop() {
        // Satellite of ISSUE 9: the swap file must not leak. `Drop` runs on
        // unwind too, so this also covers the panic path.
        let store = NvmeStore::create(2, 8).unwrap();
        let path = store.path().to_path_buf();
        assert!(path.exists(), "swap file created");
        drop(store);
        assert!(!path.exists(), "swap file removed on drop");
    }

    #[test]
    fn offset_io_round_trips_and_counts_bytes() {
        let store = NvmeStore::create(2, 12).unwrap();
        let mut scratch = Vec::new();
        // Partial-range writes land at the right offsets within the slot.
        store
            .write_at(1, 0, &[1.0, 2.0, 3.0, 4.0], &mut scratch)
            .unwrap();
        store.write_at(1, 4, &[5.0; 4], &mut scratch).unwrap();
        store.write_at(1, 8, &[9.0; 4], &mut scratch).unwrap();
        let mut out = [0.0f32; 4];
        store.read_at(1, 0, &mut out, &mut scratch).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
        store.read_at(1, 8, &mut out, &mut scratch).unwrap();
        assert_eq!(out, [9.0; 4]);
        // Exact byte accounting: 12 floats written, 8 read.
        assert_eq!(store.bytes_written(), 48);
        assert_eq!(store.bytes_read(), 32);
        // Bit-exactness through the le-bytes round trip, including
        // non-finite and denormal values.
        let weird = [f32::NAN, f32::INFINITY, -0.0, 1e-42];
        store.write_at(0, 2, &weird, &mut scratch).unwrap();
        let mut back = [0.0f32; 4];
        store.read_at(0, 2, &mut back, &mut scratch).unwrap();
        for (a, b) in weird.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Slots are independent: the slot-0 write left slot 1 alone.
        store.read_at(1, 4, &mut out, &mut scratch).unwrap();
        assert_eq!(out, [5.0; 4]);
    }
}
