//! The rescue scenario from the paper's introduction: "a rescue officer
//! can see the structure of a building even if the building is on fire
//! and filled with smoke."
//!
//! A rescue officer sweeps a Zipf-clustered building complex at high speed
//! over a degraded wireless link. The motion-aware stack keeps response
//! times bounded by buffering coarse structure along the predicted path;
//! the run reports the buffer manager's hit rate and data utilization.
//!
//! Run: `cargo run -p mar-examples --release --example rescue_mission`

use mar_buffer::{MotionAwarePrefetcher, NaivePrefetcher, Prefetcher};
use mar_core::system::{run_motion_aware_system, SystemConfig};
use mar_core::Server;
use mar_link::LinkConfig;
use mar_workload::{paper_space, pedestrian_tour, Placement, Scene, SceneConfig, TourConfig};

fn main() {
    // Dense, clustered structures (one building complex dominates).
    let mut cfg = SceneConfig::paper(60, 13);
    cfg.levels = 3;
    cfg.target_bytes = 12.0 * 1024.0 * 1024.0;
    cfg.placement = Placement::Zipf { theta: 1.0 };
    let scene = Scene::generate(cfg);
    // Smoke-degraded link: half the paper's bandwidth, harsher motion loss.
    let link = LinkConfig {
        bandwidth_bps: 128_000.0,
        motion_degradation: 0.7,
        ..LinkConfig::paper()
    };
    let tour = pedestrian_tour(&TourConfig::new(paper_space(), 400, 99, 0.9));

    println!(
        "rescue sweep: {} objects (Zipf-clustered), 128 Kbps smoky link\n",
        scene.objects.len()
    );

    let sys_cfg = SystemConfig {
        frame_frac: 0.08,
        link,
        ..Default::default()
    };
    let server = Server::new(&scene);
    let mut p = MotionAwarePrefetcher::new(4);
    let m = run_motion_aware_system(&server, &scene, &tour, &mut p, &sys_cfg);
    println!("motion-aware system over the sweep:");
    println!("  mean response : {:>8.3} s", m.mean_response());
    println!("  p95 response  : {:>8.3} s", m.percentile_response(95.0));
    println!("  worst frame   : {:>8.3} s", m.max_response());
    println!("  data shipped  : {:>8.1} KB", m.bytes / 1024.0);

    // Buffer-manager view: motion-aware vs naive prefetching.
    let buf_cfg = SystemConfig {
        buffer_bytes: 32.0 * 1024.0,
        ..sys_cfg
    };
    println!("\nprefetching comparison (32 KB buffer):");
    let mut motion_aware = MotionAwarePrefetcher::new(4);
    let mut naive = NaivePrefetcher;
    let prefetchers: [(&str, &mut dyn Prefetcher); 2] =
        [("motion-aware", &mut motion_aware), ("naive", &mut naive)];
    for (label, p) in prefetchers {
        let server = Server::new(&scene);
        let m = run_motion_aware_system(&server, &scene, &tour, p, &buf_cfg).cache;
        println!(
            "  {label:>12}: hit rate {:>5.1}%, utilization {:>5.1}%",
            m.hit_rate() * 100.0,
            m.utilization() * 100.0,
        );
    }
}
