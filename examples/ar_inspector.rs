//! The electrician scenario from the paper's introduction: "an electrician
//! with augmented-reality glasses can see 3D layouts of wiring and pipes
//! inside a wall before a repair."
//!
//! The inspector walks along a wall, pausing at junction boxes. While
//! walking, coarse geometry is enough; each pause triggers a progressive
//! refinement — `Q(R, w_already_have, w_min_new)` — that fetches only the
//! missing detail band for the overlap region (§IV, Algorithm 1).
//!
//! Run: `cargo run -p mar-examples --release --example ar_inspector`

use mar_core::{IncrementalClient, Server, SmoothedSpeed};
use mar_geom::Point2;
use mar_workload::{frame_at, paper_space, Scene, SceneConfig};

fn main() {
    // A dense strip of "conduit" objects; the inspector walks the row that
    // actually holds the most objects (the wall).
    let mut cfg = SceneConfig::paper(30, 9);
    cfg.levels = 4;
    cfg.target_bytes = 6.0 * 1024.0 * 1024.0;
    let scene = Scene::generate(cfg);
    // The wall: the horizontal band with the most objects in it.
    let wall_y = {
        let mut best = (0usize, 500.0);
        for band in 0..10 {
            let y = 50.0 + band as f64 * 100.0;
            let n = scene
                .objects
                .iter()
                .filter(|o| (o.footprint().center()[1] - y).abs() < 60.0)
                .count();
            if n > best.0 {
                best = (n, y);
            }
        }
        best.1
    };
    let server = Server::new(&scene);
    let mut client = IncrementalClient::connect(&server);
    let mut smooth = SmoothedSpeed::default();

    // Walk 40 ticks along the wall, pausing 12 ticks at two junction boxes.
    let mut x = 100.0;
    let mut phase_bytes = [0.0f64; 3]; // walking, first pause, second pause
    println!("tick   x     speed  smoothed  bytes");
    for tick in 0..64 {
        let (speed, phase) = match tick {
            0..=19 => (0.6, 0),
            20..=31 => (0.0, 1), // junction box 1
            32..=51 => (0.6, 0),
            _ => (0.0, 2), // junction box 2
        };
        x += speed * 12.0;
        let s = smooth.update(speed);
        let frame = frame_at(&paper_space(), &Point2::new([x, wall_y]), 0.08);
        let r = client.tick(&server, frame, s);
        phase_bytes[phase] += r.bytes;
        if tick % 8 == 0 || (20..=24).contains(&tick) || (52..=56).contains(&tick) {
            println!(
                "{tick:>4}  {x:>5.0}  {speed:>5.2}  {s:>8.3}  {:>7.0}",
                r.bytes
            );
        }
    }
    println!(
        "\nbytes while walking (coarse band): {:>10.0}",
        phase_bytes[0]
    );
    println!(
        "bytes at junction 1 (refinement)  : {:>10.0}",
        phase_bytes[1]
    );
    println!(
        "bytes at junction 2 (refinement)  : {:>10.0}",
        phase_bytes[2]
    );
    println!("\nthe pauses fetch only the fine-detail delta for the already-");
    println!("retrieved region — the coarse data is never re-transmitted.");
}
