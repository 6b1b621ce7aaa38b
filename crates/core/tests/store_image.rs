//! The store image is a pure function of the scene: `write_store` at a
//! fixed seed writes a file whose length and digest are pinned here, to
//! the values the materialising writer (every page built in memory, then
//! written) produced before the writer streamed. A change that moves a
//! pin changes the on-disk format or the tree it encodes.

use mar_core::{write_store, SceneIndexData, ScratchPath};
use mar_workload::{Scene, SceneConfig};

/// FNV-1a 64 over every byte of the file, then its length.
fn digest(bytes: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let h = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| step(h, u64::from(b)));
    step(h, bytes.len() as u64)
}

/// Writes the store of the paper-configured scene of `objects` objects
/// at `seed` and returns the file's length and digest.
fn image(objects: usize, seed: u64) -> (usize, u64) {
    let path = ScratchPath::new("core-store-image-tests", &format!("{objects}-{seed}.pages"))
        .expect("create tmp dir");
    let data = SceneIndexData::build(&Scene::generate(SceneConfig::paper(objects, seed)));
    write_store(&path, &data).expect("write store");
    let bytes = std::fs::read(&path).expect("read store");
    (bytes.len(), digest(&bytes))
}

/// The benchmark's smoke scale: 30 objects, seed 901.
#[test]
fn quick_scale_store_image_is_pinned() {
    assert_eq!(image(30, 901), (7_254_016, 0x8154_5701_ad53_8ce2));
}

/// The benchmark's full scale: 300 objects at seeds 901 and 1701
/// (~79 MB each; run with `cargo test --release -- --ignored`).
#[test]
#[ignore = "paper scale: writes two ~79 MB files"]
fn paper_scale_store_image_is_pinned() {
    assert_eq!(image(300, 901), (78_577_664, 0x3d88_f01a_cece_61d8));
    assert_eq!(image(300, 1701), (78_823_424, 0xb85f_86f0_8ad4_27cb));
}
