//! Execution timelines: per-lane segment recording, utilization statistics
//! and an ASCII trace renderer (the reproduction of the paper's Fig. 4
//! profiling trace).

use crate::time::SimTime;

/// A lane identifies one hardware unit in the rendered trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// GPU compute stream `k`.
    Compute(u8),
    /// Host→device copy engine.
    CopyIn,
    /// Device→host copy engine.
    CopyOut,
    /// CPU optimizer pool (aggregated).
    CpuOptim,
    /// NVMe I/O channel.
    Nvme,
    /// Network / collective channel.
    Network,
}

impl Lane {
    /// Short label used by the ASCII renderer.
    pub fn label(&self) -> String {
        match self {
            Lane::Compute(k) => format!("GPU-compute[{k}]"),
            Lane::CopyIn => "H2D-copy".to_string(),
            Lane::CopyOut => "D2H-copy".to_string(),
            Lane::CpuOptim => "CPU-optim".to_string(),
            Lane::Nvme => "NVMe-io".to_string(),
            Lane::Network => "Network".to_string(),
        }
    }

    fn glyph(&self) -> char {
        match self {
            Lane::Compute(_) => '#',
            Lane::CopyIn => '>',
            Lane::CopyOut => '<',
            Lane::CpuOptim => 'o',
            Lane::Nvme => '%',
            Lane::Network => '~',
        }
    }
}

/// One scheduled operation in the trace.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Hardware lane.
    pub lane: Lane,
    /// Operation label, e.g. `"fp L12"`.
    pub label: String,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

/// An append-only recording of every operation of one simulated iteration.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    segments: Vec<Segment>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records one operation.
    pub fn record(&mut self, lane: Lane, label: impl Into<String>, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "segment ends before it starts");
        self.segments.push(Segment {
            lane,
            label: label.into(),
            start,
            end,
        });
    }

    /// All recorded segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Latest end time across all lanes (the iteration makespan).
    pub fn makespan(&self) -> SimTime {
        self.segments
            .iter()
            .map(|s| s.end)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Total busy time on one lane.
    pub fn busy(&self, lane: Lane) -> SimTime {
        self.segments
            .iter()
            .filter(|s| s.lane == lane)
            .fold(SimTime::ZERO, |acc, s| acc + (s.end - s.start))
    }

    /// Distinct lanes with at least one segment, in `Lane` order.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = self.segments.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        lanes
    }

    /// Busy intervals of one lane as `(start_ns, end_ns)` pairs sorted by
    /// start — the bridge feeding resource occupancy into the runtime
    /// telemetry layer (which speaks nanoseconds, not `SimTime`).
    pub fn busy_intervals(&self, lane: Lane) -> Vec<(u64, u64)> {
        let mut iv: Vec<(u64, u64)> = self
            .segments
            .iter()
            .filter(|s| s.lane == lane)
            .map(|s| (s.start.as_nanos(), s.end.as_nanos()))
            .collect();
        iv.sort_unstable();
        iv
    }

    /// Busy time across all compute lanes.
    pub fn compute_busy(&self) -> SimTime {
        self.segments
            .iter()
            .filter(|s| matches!(s.lane, Lane::Compute(_)))
            .fold(SimTime::ZERO, |acc, s| acc + (s.end - s.start))
    }

    /// Utilization of a lane over the makespan.
    pub fn utilization(&self, lane: Lane) -> f64 {
        let m = self.makespan();
        if m == SimTime::ZERO {
            0.0
        } else {
            self.busy(lane).as_secs_f64() / m.as_secs_f64()
        }
    }

    /// Fraction of copy time (H2D + D2H) hidden under compute: 1.0 means all
    /// communication overlapped (the paper's "completely hide the data
    /// transfer overhead", §III-A).
    pub fn overlap_fraction(&self) -> f64 {
        let copy: f64 = self
            .segments
            .iter()
            .filter(|s| matches!(s.lane, Lane::CopyIn | Lane::CopyOut))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        if copy == 0.0 {
            return 1.0;
        }
        // Copy time exposed beyond compute-busy intervals: approximate by
        // comparing the makespan with pure-compute critical path.
        let compute = self.compute_busy().as_secs_f64();
        let makespan = self.makespan().as_secs_f64();
        let exposed = (makespan - compute).max(0.0).min(copy);
        1.0 - exposed / copy
    }

    /// Verifies no two segments on the same lane overlap (FIFO legality).
    ///
    /// The CPU-optimizer lane aggregates a *pool* of workers (§III-E1), so
    /// concurrent segments there are intended and exempt from the check.
    pub fn assert_lanes_serialized(&self) {
        let mut by_lane: std::collections::BTreeMap<Lane, Vec<(SimTime, SimTime)>> =
            std::collections::BTreeMap::new();
        for s in &self.segments {
            if s.lane == Lane::CpuOptim {
                continue;
            }
            by_lane.entry(s.lane).or_default().push((s.start, s.end));
        }
        for (lane, mut v) in by_lane {
            v.sort();
            for w in v.windows(2) {
                assert!(
                    w[1].0 >= w[0].1,
                    "lane {lane:?}: segment starting {} overlaps one ending {}",
                    w[1].0,
                    w[0].1
                );
            }
        }
    }

    /// Exports the trace in Chrome tracing (`chrome://tracing` /
    /// Perfetto) JSON array format: one complete event (`ph: "X"`) per
    /// segment, lanes mapped to thread ids.
    pub fn to_chrome_trace(&self) -> String {
        let mut lanes: Vec<Lane> = self.segments.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        let tid_of = |lane: Lane| lanes.iter().position(|l| *l == lane).unwrap_or(0);
        let mut out = String::from("[");
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                s.label.replace('"', "'"),
                s.lane.label(),
                s.start.as_nanos() / 1_000,
                (s.end - s.start).as_nanos() / 1_000,
                tid_of(s.lane)
            ));
        }
        out.push(']');
        out
    }

    /// Renders an ASCII Gantt chart of the iteration (Fig. 4 analogue).
    /// `width` is the number of character columns for the time axis.
    pub fn render_ascii(&self, width: usize) -> String {
        let makespan = self.makespan();
        if makespan == SimTime::ZERO || self.segments.is_empty() {
            return String::from("(empty timeline)\n");
        }
        let mut lanes: Vec<Lane> = self.segments.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        let scale = width as f64 / makespan.as_nanos() as f64;
        let mut out = String::new();
        for lane in lanes {
            let mut row = vec!['.'; width];
            for s in self.segments.iter().filter(|s| s.lane == lane) {
                let a = (s.start.as_nanos() as f64 * scale) as usize;
                let b = ((s.end.as_nanos() as f64 * scale) as usize)
                    .max(a + 1)
                    .min(width);
                for c in row.iter_mut().take(b).skip(a) {
                    *c = lane.glyph();
                }
            }
            out.push_str(&format!("{:>14} |", lane.label()));
            out.extend(row);
            out.push_str(&format!("| {:>5.1}%\n", self.utilization(lane) * 100.0));
        }
        out.push_str(&format!(
            "{:>14}  makespan {} | overlap {:.1}%\n",
            "",
            makespan,
            self.overlap_fraction() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn makespan_and_busy() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "fp L0", ms(0), ms(10));
        t.record(Lane::Compute(0), "fp L1", ms(10), ms(25));
        t.record(Lane::CopyIn, "in L2", ms(0), ms(5));
        assert_eq!(t.makespan(), ms(25));
        assert_eq!(t.busy(Lane::Compute(0)), ms(25));
        assert_eq!(t.busy(Lane::CopyIn), ms(5));
        t.assert_lanes_serialized();
    }

    #[test]
    fn overlap_full_when_copies_hidden() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "fp", ms(0), ms(100));
        t.record(Lane::CopyIn, "in", ms(10), ms(30));
        assert!((t.overlap_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_partial_when_exposed() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "fp", ms(0), ms(50));
        t.record(Lane::CopyIn, "in", ms(50), ms(150)); // fully exposed
        let f = t.overlap_fraction();
        assert!(f < 0.1, "overlap fraction {f}");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_lane_detected() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "a", ms(0), ms(10));
        t.record(Lane::Compute(0), "b", ms(5), ms(15));
        t.assert_lanes_serialized();
    }

    #[test]
    fn ascii_render_contains_lanes() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "fp", ms(0), ms(10));
        t.record(Lane::CopyIn, "in", ms(0), ms(4));
        let s = t.render_ascii(40);
        assert!(s.contains("GPU-compute[0]"));
        assert!(s.contains("H2D-copy"));
        assert!(s.contains("makespan"));
    }

    #[test]
    fn chrome_trace_is_valid_json_events() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "fp L0", ms(0), ms(10));
        t.record(Lane::CopyIn, "h2d L1", ms(2), ms(5));
        let j = t.to_chrome_trace();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"name\":\"fp L0\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"dur\":3000"));
        // Distinct lanes get distinct tids.
        assert!(j.contains("\"tid\":0") && j.contains("\"tid\":1"));
    }

    #[test]
    fn busy_intervals_sorted_per_lane() {
        let mut t = Timeline::new();
        t.record(Lane::CopyIn, "in L1", ms(10), ms(14));
        t.record(Lane::CopyIn, "in L0", ms(0), ms(4));
        t.record(Lane::Compute(0), "fp", ms(0), ms(20));
        assert_eq!(t.lanes(), vec![Lane::Compute(0), Lane::CopyIn]);
        let iv = t.busy_intervals(Lane::CopyIn);
        assert_eq!(
            iv,
            vec![
                (0, ms(4).as_nanos()),
                (ms(10).as_nanos(), ms(14).as_nanos())
            ]
        );
        assert!(t.busy_intervals(Lane::Nvme).is_empty());
    }

    #[test]
    fn utilization_bounds() {
        let mut t = Timeline::new();
        t.record(Lane::Compute(0), "fp", ms(0), ms(10));
        t.record(Lane::CopyOut, "out", ms(0), ms(2));
        assert!((t.utilization(Lane::Compute(0)) - 1.0).abs() < 1e-9);
        assert!((t.utilization(Lane::CopyOut) - 0.2).abs() < 1e-9);
    }
}
