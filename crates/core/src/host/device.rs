//! A capacity-limited "device" for the functional substrate.
//!
//! Tracks live device bytes and transfer traffic so the functional pipeline
//! enforces the same invariant the real GPU does: the working window and its
//! activations must fit the device, or allocation fails. The numbers feed
//! the functional tests (footprint stays bounded by the window regardless of
//! model depth).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::telemetry::{Gauge, Telemetry};

/// Device-memory accounting for the host substrate.
#[derive(Debug)]
pub struct HostDevice {
    capacity: u64,
    used: AtomicU64,
    peak: AtomicU64,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    /// Telemetry mirror of `used` ("arena occupancy"); inert by default.
    occupancy: Gauge,
    /// Live H2D copies ("copy-engine occupancy", `device.h2d_inflight`).
    h2d_inflight: Gauge,
    /// Live D2H copies (`device.d2h_inflight`). A peak > 0 while the compute
    /// track is busy is the trace evidence that gradient offload runs off
    /// the compute thread's critical path.
    d2h_inflight: Gauge,
}

impl HostDevice {
    /// Creates a device with `capacity` bytes (no telemetry).
    pub fn new(capacity: u64) -> Self {
        HostDevice::with_telemetry(capacity, &Telemetry::disabled())
    }

    /// Creates a device mirroring its live byte count into the
    /// `device.used_bytes` gauge of `tel`.
    pub fn with_telemetry(capacity: u64, tel: &Telemetry) -> Self {
        HostDevice {
            capacity,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            h2d_bytes: AtomicU64::new(0),
            d2h_bytes: AtomicU64::new(0),
            occupancy: tel.gauge("device.used_bytes"),
            h2d_inflight: tel.gauge("device.h2d_inflight"),
            d2h_inflight: tel.gauge("device.d2h_inflight"),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Attempts to allocate `bytes`; fails (returns `false`) on OOM.
    pub fn try_alloc(&self, bytes: u64) -> bool {
        let mut cur = self.used.load(Ordering::SeqCst);
        loop {
            let next = cur + bytes;
            if next > self.capacity {
                return false;
            }
            match self
                .used
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::SeqCst);
                    self.occupancy.add(bytes as i64);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Allocates or panics with an OOM message (scheduler bug in tests).
    pub fn alloc(&self, bytes: u64) {
        assert!(
            self.try_alloc(bytes),
            "device OOM: {} + {} > {}",
            self.used.load(Ordering::SeqCst),
            bytes,
            self.capacity()
        );
    }

    /// Frees `bytes`.
    pub fn free(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::SeqCst);
        assert!(prev >= bytes, "device free underflow");
        self.occupancy.add(-(bytes as i64));
    }

    /// Records a host→device copy.
    pub fn count_h2d(&self, bytes: u64) {
        self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a device→host copy.
    pub fn count_d2h(&self, bytes: u64) {
        self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Marks a host→device copy as started (`device.h2d_inflight` +1).
    pub fn begin_h2d(&self) {
        self.h2d_inflight.add(1);
    }

    /// Marks a host→device copy of `bytes` as finished: decrements the
    /// in-flight gauge and records the traffic.
    pub fn end_h2d(&self, bytes: u64) {
        self.h2d_inflight.add(-1);
        self.count_h2d(bytes);
    }

    /// Marks a device→host copy as started (`device.d2h_inflight` +1).
    pub fn begin_d2h(&self) {
        self.d2h_inflight.add(1);
    }

    /// Marks a device→host copy of `bytes` as finished: decrements the
    /// in-flight gauge and records the traffic.
    pub fn end_d2h(&self, bytes: u64) {
        self.d2h_inflight.add(-1);
        self.count_d2h(bytes);
    }

    /// Live bytes.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    /// Peak live bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::SeqCst)
    }

    /// Total host→device traffic.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d_bytes.load(Ordering::Relaxed)
    }

    /// Total device→host traffic.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let d = HostDevice::new(100);
        d.alloc(60);
        assert_eq!(d.used(), 60);
        assert!(!d.try_alloc(50));
        d.free(60);
        assert!(d.try_alloc(100));
        assert_eq!(d.peak(), 100);
    }

    #[test]
    #[should_panic(expected = "device OOM")]
    fn oom_panics() {
        let d = HostDevice::new(10);
        d.alloc(11);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn free_underflow_panics() {
        let d = HostDevice::new(10);
        d.free(1);
    }

    #[test]
    fn traffic_counters() {
        let d = HostDevice::new(10);
        d.count_h2d(5);
        d.count_h2d(7);
        d.count_d2h(3);
        assert_eq!(d.h2d_bytes(), 12);
        assert_eq!(d.d2h_bytes(), 3);
    }

    #[test]
    fn occupancy_gauge_mirrors_used_bytes() {
        let tel = Telemetry::enabled();
        let d = HostDevice::with_telemetry(100, &tel);
        d.alloc(60);
        d.alloc(30);
        d.free(50);
        let g = tel.gauge("device.used_bytes");
        assert_eq!(g.get(), 40);
        assert_eq!(g.peak(), 90);
        assert_eq!(g.get() as u64, d.used());
    }

    #[test]
    fn inflight_gauges_balance_and_record_peaks() {
        let tel = Telemetry::enabled();
        let d = HostDevice::with_telemetry(100, &tel);
        d.begin_h2d();
        d.begin_h2d();
        d.end_h2d(8);
        d.begin_d2h();
        d.end_d2h(4);
        d.end_h2d(8);
        let h2d = tel.gauge("device.h2d_inflight");
        let d2h = tel.gauge("device.d2h_inflight");
        assert_eq!(h2d.get(), 0, "every begin_h2d matched by an end_h2d");
        assert_eq!(d2h.get(), 0, "every begin_d2h matched by an end_d2h");
        assert_eq!(h2d.peak(), 2);
        assert_eq!(d2h.peak(), 1);
        assert_eq!(d.h2d_bytes(), 16);
        assert_eq!(d.d2h_bytes(), 4);
    }

    #[test]
    fn concurrent_allocs_respect_capacity() {
        let d = std::sync::Arc::new(HostDevice::new(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let d2 = std::sync::Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut got = 0u64;
                for _ in 0..100 {
                    if d2.try_alloc(10) {
                        got += 10;
                    }
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total <= 1000);
        assert_eq!(d.used(), total);
    }
}
