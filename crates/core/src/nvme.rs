//! Secondary-storage (NVMe) tier (§III-G).
//!
//! The paper memory-maps a swap file on NVMe and issues asynchronous bulk
//! reads/writes so disk I/O overlaps with PCIe traffic and compute. The
//! simulator side of this lives in [`crate::offload`] (the `Nvme` cold
//! tier); this module provides the *functional* backing store — a real
//! temporary swap file of fixed-size slots with positional reads and
//! writes. The asynchronous side (fills on spill workers, the chunked
//! update on the optimizer actors) lives in [`crate::tier::TierStore`] and
//! [`crate::optimpool::LayerStore`].
//!
//! I/O is positional and zero-copy: `pread` / `pwrite`
//! ([`std::os::unix::fs::FileExt`], so the store is unix-only) straight
//! between the file and the caller's `f32` slice viewed as bytes. There is
//! no file lock and no seek, so any number of threads read and write
//! disjoint ranges concurrently, and no byte passes through a staging
//! buffer. On a little-endian host the in-memory `f32` *is* its
//! little-endian file image, so round trips are bit-exact; a big-endian
//! host converts through the caller's scratch buffer instead.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A swap file storing fixed-size per-layer parameter blobs.
pub struct NvmeStore {
    path: PathBuf,
    file: File,
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
            file,
            slot_floats,
            slots,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }))
    }

    /// File byte offset of float `float_off` inside `slot`, after checking
    /// that `len` floats from there stay inside the slot.
    fn byte_offset(&self, slot: usize, float_off: usize, len: usize) -> u64 {
        assert!(slot < self.slots, "slot {slot} out of {}", self.slots);
        assert!(
            float_off + len <= self.slot_floats,
            "range {}..{} out of slot of {} floats",
            float_off,
            float_off + len,
            self.slot_floats
        );
        ((slot * self.slot_floats + float_off) * 4) as u64
    }

    /// Writes `data` at float offset `float_off` inside `slot`. f32 →
    /// little-endian bytes is exact, so round trips are bit-identical.
    /// `scratch` stages the byte image on big-endian hosts only; on
    /// little-endian ones the slice is written in place and `scratch` is
    /// untouched.
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
        let off = self.byte_offset(slot, float_off, data.len());
        if cfg!(target_endian = "little") {
            // SAFETY: `f32` has no padding and `u8` no alignment
            // requirement, so the `4 * len` bytes of the slice are valid,
            // initialised `u8`s for the lifetime of the shared borrow.
            let bytes =
                unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), 4 * data.len()) };
            self.file.write_all_at(bytes, off)?;
        } else {
            scratch.clear();
            scratch.extend(data.iter().flat_map(|v| v.to_le_bytes()));
            self.file.write_all_at(scratch, off)?;
        }
        self.bytes_written
            .fetch_add(4 * data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads `out.len()` floats from float offset `float_off` inside `slot`
    /// into `out`. `scratch` stages the bytes on big-endian hosts only (see
    /// [`NvmeStore::write_at`]). A range past the end of the file (a
    /// truncated swap file) fails with [`std::io::ErrorKind::UnexpectedEof`].
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
        let off = self.byte_offset(slot, float_off, out.len());
        if cfg!(target_endian = "little") {
            // SAFETY: as in `write_at`; in addition every bit pattern is a
            // valid `f32`, so any bytes the read stores leave `out` valid.
            let bytes = unsafe {
                std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), 4 * out.len())
            };
            self.file.read_exact_at(bytes, off)?;
        } else {
            scratch.clear();
            scratch.resize(4 * out.len(), 0);
            self.file.read_exact_at(scratch, off)?;
            for (dst, c) in out.iter_mut().zip(scratch.chunks_exact(4)) {
                *dst = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
        }
        self.bytes_read
            .fetch_add(4 * out.len() as u64, Ordering::Relaxed);
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
        // The swap file must not leak. `Drop` runs on unwind too, so this
        // also covers the panic path.
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

    /// With no file lock, concurrent positional I/O on disjoint ranges must
    /// neither tear nor misplace a value: four threads each own one slot
    /// and write / read it in interleaved sub-ranges at once. Every bit
    /// pattern survives — NaN payloads (quiet and signalling), ±0, ±∞ and
    /// subnormals — and the byte counters are exact.
    #[test]
    fn concurrent_positional_io_is_bit_exact() {
        const THREADS: usize = 4;
        const FLOATS: usize = 4096;
        const PIECE: usize = 256;
        const ROUNDS: usize = 3;
        let store = NvmeStore::create(THREADS, FLOATS).unwrap();
        let specials = [
            0x7fc0_1234, // quiet NaN with a payload
            0xffa0_0001, // negative signalling NaN
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7f80_0000, // +∞
            0xff80_0000, // -∞
        ];
        // Every seventh float a special value, the rest hashed bit patterns.
        let pattern = |slot: usize, round: usize, i: usize| -> u32 {
            match i % 7 {
                0 => specials[(i / 7 + slot + round) % specials.len()],
                _ => ((slot * FLOATS + i) as u32 ^ ((round as u32) << 20))
                    .wrapping_mul(2_654_435_761),
            }
        };
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for slot in 0..THREADS {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    for round in 0..ROUNDS {
                        let image: Vec<f32> = (0..FLOATS)
                            .map(|i| f32::from_bits(pattern(slot, round, i)))
                            .collect();
                        // All four start each round together. Odd pieces
                        // first, then even: every write lands beside
                        // another thread's writes to its own slot.
                        start.wait();
                        let odd = (PIECE..FLOATS).step_by(2 * PIECE);
                        let even = (0..FLOATS).step_by(2 * PIECE);
                        for start in odd.chain(even) {
                            let piece = &image[start..start + PIECE];
                            store.write_at(slot, start, piece, &mut scratch).unwrap();
                        }
                        let mut back = vec![0.0f32; FLOATS];
                        for (p, chunk) in back.chunks_mut(PIECE).enumerate().rev() {
                            store.read_at(slot, p * PIECE, chunk, &mut scratch).unwrap();
                        }
                        for (i, (a, b)) in image.iter().zip(&back).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "slot {slot}, round {round}, float {i}"
                            );
                        }
                    }
                });
            }
        });
        let bytes = (THREADS * ROUNDS * FLOATS * 4) as u64;
        assert_eq!(store.bytes_written(), bytes);
        assert_eq!(store.bytes_read(), bytes);
    }

    #[test]
    fn reading_past_a_truncated_swap_file_is_unexpected_eof() {
        let store = NvmeStore::create(2, 16).unwrap();
        let mut scratch = Vec::new();
        store.write_at(1, 0, &[1.5; 16], &mut scratch).unwrap();
        // Cut the file in the middle of slot 1.
        OpenOptions::new()
            .write(true)
            .open(store.path())
            .unwrap()
            .set_len(24 * 4)
            .unwrap();
        let mut out = [0.0f32; 16];
        store.read_at(0, 0, &mut out, &mut scratch).unwrap();
        let err = store.read_at(1, 0, &mut out, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(store.bytes_read(), 64, "a failed read counts nothing");
    }
}
