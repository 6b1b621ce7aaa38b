//! Quickstart: the library in ~60 lines.
//!
//! Builds one multiresolution object, inspects its wavelet decomposition,
//! stands up a server over a small scene, and runs a moving client's first
//! few query frames with Algorithm 1.
//!
//! Run: `cargo run -p mar-examples --release --example quickstart`

use mar_core::{IncrementalClient, Server};
use mar_geom::Point2;
use mar_mesh::generate::{generate, ObjectKind, ObjectParams};
use mar_mesh::ResolutionBand;
use mar_workload::{frame_at, paper_space, Scene, SceneConfig};

fn main() {
    // 1. One 3D object in wavelet multiresolution form.
    let obj = generate(&ObjectParams {
        kind: ObjectKind::Building,
        levels: 4,
        seed: 7,
        ..Default::default()
    });
    println!("one building:");
    println!(
        "  base mesh vertices : {}",
        obj.hierarchy.base.vertices.len()
    );
    println!("  wavelet coefficients: {}", obj.coeffs.len());
    for (wmin, label) in [
        (0.0, "full"),
        (0.25, "w>=0.25"),
        (0.5, "w>=0.5"),
        (1.0, "coarsest"),
    ] {
        let band = ResolutionBand::new(wmin, 1.0);
        let rec = obj.reconstruct(band);
        println!(
            "  band {label:>8}: {:5} coefficients, rms error {:.5}",
            obj.count_in_band(band),
            obj.rms_error(&rec)
        );
    }

    // 2. A small city scene and its server (support-region wavelet index).
    let mut cfg = SceneConfig::paper(40, 1);
    cfg.levels = 3;
    cfg.target_bytes = 8.0 * 1024.0 * 1024.0;
    let scene = Scene::generate(cfg);
    let server = Server::new(&scene);
    println!(
        "\nscene: {} objects, {:.1} MB, {} indexed coefficients",
        scene.objects.len(),
        scene.total_bytes() / (1024.0 * 1024.0),
        server.data().len()
    );

    // 3. A client driving straight through the first object, braking
    //    halfway (watch the resolution band widen).
    let target = scene.objects[0].footprint().center();
    let mut client = IncrementalClient::connect(&server);
    println!("\ntick  speed  frame_center      new_bytes  index_io");
    for tick in 0..8 {
        let speed = if tick < 4 { 0.8 } else { 0.05 }; // brakes at tick 4
        let pos = Point2::new([target[0] - 70.0 + 18.0 * tick as f64, target[1]]);
        let frame = frame_at(&paper_space(), &pos, 0.1);
        let r = client.tick(&server, frame, speed);
        println!(
            "{tick:>4}  {speed:>5.2}  ({:6.1},{:6.1})  {:>9.0}  {:>8}",
            pos[0], pos[1], r.bytes, r.io
        );
    }
    println!("\nnote the burst at tick 4: slowing down widens the resolution");
    println!("band, so Algorithm 1 fetches the missing fine detail for the");
    println!("overlap region — and nothing it already has.");
}
