//! Fig. 4 — the compute/offload overlap trace of one training iteration.

use stronghold_core::offload::{
    simulate_iteration, simulate_iteration_with_telemetry, OffloadOptions,
};
use stronghold_core::Telemetry;
use stronghold_model::config::model_4b;
use stronghold_sim::{Lane, Platform};

use crate::report::{telemetry_table, Experiment, Table};

/// The Fig. 4 iteration as a Chrome-tracing / Perfetto JSON document.
pub fn chrome_trace() -> String {
    let r = simulate_iteration(
        &model_4b(),
        &Platform::v100_server(),
        &OffloadOptions::default(),
    )
    .expect("4B on V100");
    r.timeline.to_chrome_trace()
}

/// Renders the ASCII Gantt trace of one STRONGHOLD iteration on the 4B
/// model — the analogue of the paper's profiling trace.
pub fn run() -> Experiment {
    let v100 = Platform::v100_server();
    let cfg = model_4b();
    let tel = Telemetry::enabled();
    let r = simulate_iteration_with_telemetry(&cfg, &v100, &OffloadOptions::default(), &tel)
        .expect("4B on V100");

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["window".into(), r.window.to_string()]);
    t.row(vec!["iteration time".into(), format!("{}", r.iter_time)]);
    t.row(vec![
        "GPU compute utilization".into(),
        format!("{:.1}%", r.gpu_util * 100.0),
    ]);
    t.row(vec![
        "copy overlap".into(),
        format!("{:.1}%", r.overlap * 100.0),
    ]);
    t.row(vec![
        "H2D busy".into(),
        format!("{}", r.timeline.busy(Lane::CopyIn)),
    ]);
    t.row(vec![
        "D2H busy".into(),
        format!("{}", r.timeline.busy(Lane::CopyOut)),
    ]);

    Experiment {
        id: "fig4",
        title: "Fig. 4: GPU computation and offloading trace, 4B model on V100",
        paper_claim:
            "CPU-directed offloading is largely overlapped by GPU computation when P1 and P2 hold",
        extra: r.timeline.render_ascii(100),
        tables: vec![t, telemetry_table(&tel.snapshot_json())],
        verdict: format!(
            "{:.1}% of copy time hides under compute at window {}",
            r.overlap * 100.0,
            r.window
        ),
    }
}
