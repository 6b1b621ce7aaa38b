//! Model-based check of the bitmap [`SentFilter`]: random hit lists go
//! through the real filter and through a reference model with the
//! semantics the filter had as two sets (`BTreeSet<CoeffRef>` of sent
//! coefficients, `BTreeSet<u32>` of sent base meshes), and everything a
//! caller can observe must agree — every `QueryResult` bit for bit, the
//! resident-set snapshot, `resume`'s retained counts, and the resident
//! entry count, which `disconnect` must return to zero.

use mar_core::{CoeffRef, QueryResult, SceneIndexData, Sessions, WaveletIndex};
use mar_workload::{Scene, SceneConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

const OBJECTS: usize = 12;

fn scene_data() -> SceneIndexData {
    let mut cfg = SceneConfig::paper(OBJECTS, 29);
    cfg.levels = 3;
    cfg.target_bytes = 1_000_000.0;
    SceneIndexData::build(&Scene::generate(cfg))
}

/// The two-set filter this PR replaced, kept as the reference.
#[derive(Default)]
struct Model {
    sent: BTreeSet<CoeffRef>,
    sent_base: BTreeSet<u32>,
}

impl Model {
    fn admit(&mut self, data: &SceneIndexData, hits: &[CoeffRef], out: &mut QueryResult) {
        for &id in hits {
            if self.sent.insert(id) {
                out.coeffs += 1;
                out.bytes += data.coeff_bytes;
                if self.sent_base.insert(id.object) {
                    out.new_objects += 1;
                    out.bytes += data.base_bytes[id.object as usize];
                }
            }
        }
    }
}

/// A hit as `(object, pick, coefficient)`: `pick` steers half of the hits
/// onto the first and last bit of a word block and of the object.
fn hit(data: &SceneIndexData, (object, pick, coeff): (usize, u8, u32)) -> CoeffRef {
    let count = data.coeff_counts[object];
    let coeff = match pick {
        0 => 0,
        1 => 63,
        2 => 64,
        3 => count - 1,
        4 => (count - 1) / 64 * 64,
        _ => coeff,
    };
    CoeffRef {
        object: object as u32,
        coeff: coeff % count,
    }
}

fn same(a: &QueryResult, b: &QueryResult) -> bool {
    (a.coeffs, a.new_objects, a.io, a.bytes.to_bits())
        == (b.coeffs, b.new_objects, b.io, b.bytes.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames of windows of hits, duplicates within and across windows and
    /// frames included (the id space is small on purpose).
    #[test]
    fn bitmap_filter_matches_the_two_set_model(
        frames in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0..OBJECTS, 0u8..10, 0u32..4096), 0..40),
                1..4,
            ),
            1..8,
        ),
    ) {
        let data = scene_data();
        prop_assert!(data.coeff_counts.iter().all(|&n| n > 64), "blocks span several words");
        let index = WaveletIndex::build(&data);
        let sessions = Sessions::seeded(7);
        let (bystander, _) = sessions.connect_with_token();
        let (id, token) = sessions.connect_with_token();
        let mut model = Model::default();
        let frames: Vec<Vec<Vec<CoeffRef>>> = frames
            .into_iter()
            .map(|f| f.into_iter().map(|w| w.into_iter().map(|h| hit(&data, h)).collect()).collect())
            .collect();
        // The whole script twice: the second pass re-admits only what was
        // already sent and must transmit nothing.
        for pass in 0..2 {
            for windows in &frames {
                let mut want = QueryResult::default();
                let got = sessions
                    .with(id, |filter| {
                        let mut got = QueryResult::default();
                        for hits in windows {
                            filter.admit(&data, &index, hits, &mut got);
                            model.admit(&data, hits, &mut want);
                        }
                        got
                    })
                    .expect("connected");
                prop_assert!(same(&got, &want), "pass {}: {:?} vs model {:?}", pass, got, want);
                prop_assert!(pass == 0 || got == QueryResult::default());
                let sent: Vec<CoeffRef> = model.sent.iter().copied().collect();
                prop_assert_eq!(sessions.session_sent_set(id).expect("connected"), sent);
                prop_assert_eq!(sessions.session_sent(id), model.sent.len());
                let info = sessions.resume(token).expect("live token");
                prop_assert_eq!(
                    (info.session, info.retained_coeffs, info.retained_objects),
                    (id, model.sent.len(), model.sent_base.len())
                );
                prop_assert_eq!(
                    sessions.resident_filter_entries(),
                    model.sent.len() + model.sent_base.len()
                );
            }
        }
        prop_assert_eq!(sessions.session_sent(bystander), 0, "sessions are independent");
        sessions.disconnect(id).expect("connected");
        prop_assert_eq!(sessions.resident_filter_entries(), 0);
    }
}
